//===----------------------------------------------------------------------===//
///
/// \file
/// The MULT_* environment table (core/EnvTable.cpp): every row fills its
/// field only where the code left the default, shows up in
/// Engine::config(), and reports a malformed value in one message format.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "support/StrUtil.h"
#include "ui/Repl.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace mult;
using namespace mult::testutil;

namespace {

std::string tempPath(const char *Name) {
  return ::testing::TempDir() + "mult-env-" + Name;
}

/// A loadable site-policy file at tempPath(\p Name).
std::string policyFile(const char *Name) {
  std::string Path = tempPath(Name);
  FILE *F = std::fopen(Path.c_str(), "w");
  std::fputs(";; mul-t site policies v1\nsite fib+12 eager\n", F);
  std::fclose(F);
  return Path;
}

/// One row under test.
struct EnvCase {
  std::string Name;
  /// A valid value, and what the row's field shows after it applies.
  std::string Valid, Shows;
  std::string Malformed;
  /// Sets the row's field to a non-default value the variable must not
  /// replace; Against is the variable's value during that check.
  void (*Explicit)(EngineConfig &C);
  std::string Against;
  /// The row's field, rendered.
  std::string (*Show)(const EngineConfig &C);
};

std::vector<EnvCase> cases() {
  const std::string PolicyA = policyFile("a.pol");
  policyFile("b.pol"); // the explicit check's file
  return {
      {"MULT_DISPATCH", "switch", "1", "fast",
       [](EngineConfig &C) { C.Dispatch = DispatchMode::Threaded; }, "switch",
       [](const EngineConfig &C) {
         return std::to_string(static_cast<int>(C.Dispatch));
       }},
      {"MULT_RECOVERY", "0", "0", "maybe",
       [](EngineConfig &C) { C.Recovery = false; }, "1",
       [](const EngineConfig &C) { return std::to_string(C.Recovery); }},
      {"MULT_CHECKPOINT", "2000", "2000", "12k",
       [](EngineConfig &C) { C.CheckpointEvery = 5000; }, "2000",
       [](const EngineConfig &C) { return std::to_string(C.CheckpointEvery); }},
      {"MULT_RACE", "1", "1", "yes",
       [](EngineConfig &C) { C.RaceDetect = true; }, "0",
       [](const EngineConfig &C) { return std::to_string(C.RaceDetect); }},
      {"MULT_FAULTS", "gc-at=100000", "gc-at=100000", "proc-kill",
       [](EngineConfig &C) { C.Faults = "seed=9"; }, "gc-at=100000",
       [](const EngineConfig &C) { return C.Faults; }},
      {"MULT_SITE_POLICIES", PolicyA, PolicyA, tempPath("missing.pol"),
       [](EngineConfig &C) { C.SitePolicies = tempPath("b.pol"); }, PolicyA,
       [](const EngineConfig &C) { return C.SitePolicies; }},
      {"MULT_QUOTA", "heap=1000000;live=2", "1000000/0/2/0", "heap=lots",
       [](EngineConfig &C) { C.GroupHeapQuotaWords = 5; }, "cycles=7",
       [](const EngineConfig &C) {
         return strFormat("%llu/%llu/%u/%u",
                          (unsigned long long)C.GroupHeapQuotaWords,
                          (unsigned long long)C.GroupCycleBudget,
                          C.MaxLiveGroups, C.MaxQueuedGroups);
       }},
      {"MULT_SUPERVISE", "escalate", "escalate", "sometimes",
       [](EngineConfig &C) { C.Supervise = "one-shot"; }, "escalate",
       [](const EngineConfig &C) { return C.Supervise; }},
      {"MULT_TELEMETRY", "json:" + tempPath("a.json"),
       "json:" + tempPath("a.json"), "csv:out",
       [](EngineConfig &C) { C.Telemetry = "json:" + tempPath("b.json"); },
       "json:" + tempPath("a.json"),
       [](const EngineConfig &C) { return C.Telemetry; }},
  };
}

EngineConfig base() {
  EngineConfig C = config(1);
  C.LoadPrelude = false;
  return C;
}

TEST(EnvTableTest, EveryRowFillsOnlyADefaultField) {
  std::vector<EnvCase> Cases = cases();
  ASSERT_EQ(envSwitches().size(), Cases.size());
  for (const EnvSwitch &S : envSwitches()) {
    SCOPED_TRACE(S.Name);
    const EnvCase *K = nullptr;
    for (const EnvCase &Cand : Cases)
      if (Cand.Name == S.Name)
        K = &Cand;
    ASSERT_NE(K, nullptr) << "no test case for " << S.Name;
    const std::string Default = K->Show(base());

    // A valid value fills the default field, and config() shows it.
    ::setenv(S.Name, K->Valid.c_str(), 1);
    {
      Engine E(base());
      EXPECT_NE(K->Shows, Default);
      EXPECT_EQ(K->Show(E.config()), K->Shows);
    }

    // An explicit non-default field wins over the variable.
    ::setenv(S.Name, K->Against.c_str(), 1);
    {
      EngineConfig C = base();
      K->Explicit(C);
      const std::string Want = K->Show(C);
      ASSERT_NE(Want, Default);
      Engine E(C);
      EXPECT_EQ(K->Show(E.config()), Want);
    }

    // A malformed value leaves the default and prints one message.
    ::setenv(S.Name, K->Malformed.c_str(), 1);
    ::testing::internal::CaptureStderr();
    {
      Engine E(base());
      EXPECT_EQ(K->Show(E.config()), Default);
    }
    std::string Err = ::testing::internal::GetCapturedStderr();
    std::string Prefix =
        strFormat("mult: ignoring %s='%s': ", S.Name, K->Malformed.c_str());
    EXPECT_EQ(Err.rfind(Prefix, 0), 0u) << Err;
    EXPECT_EQ(std::count(Err.begin(), Err.end(), '\n'), 1) << Err;
    ::unsetenv(S.Name);
  }
}

TEST(EnvTableTest, HelpListsEveryRow) {
  Engine E(base());
  std::string Buf;
  StringOutStream Out(Buf);
  Repl R(E, Out);
  R.processLine(":help");
  EXPECT_NE(Buf.find("environment:"), std::string::npos) << Buf;
  for (const EnvSwitch &S : envSwitches())
    EXPECT_NE(Buf.find(S.Name), std::string::npos) << S.Name;
}

} // namespace
