//===----------------------------------------------------------------------===//
///
/// \file
/// The MULT_* environment table and its parsers.
///
//===----------------------------------------------------------------------===//

#include "core/Engine.h"

#include "support/StrUtil.h"

#include <cstdio>
#include <cstdlib>

using namespace mult;

namespace {

/// True while \p C holds the default of every listed field.
template <auto... Fields> bool atDefault(const EngineConfig &C) {
  static const EngineConfig Default;
  return ((C.*Fields == Default.*Fields) && ...);
}

/// The setter of a one-field row: \p Parse writes the field only on
/// success.
template <auto Field, auto Parse>
bool set(std::string_view V, EngineConfig &C, std::string &Err) {
  return Parse(V, C.*Field, Err);
}

bool parseFlag(std::string_view V, bool &Out, std::string &Err) {
  if (V == "1" || V == "on" || V == "0" || V == "off") {
    Out = V == "1" || V == "on";
    return true;
  }
  Err = "want 1|on|0|off";
  return false;
}

bool parseCycles(std::string_view V, uint64_t &Out, std::string &Err) {
  if (parseU64(V == "off" ? "0" : V, Out))
    return true;
  Err = "not a cycle count";
  return false;
}

bool parseDispatch(std::string_view V, DispatchMode &Out, std::string &Err) {
  if (V == "switch" || V == "threaded") {
    Out = V == "switch" ? DispatchMode::Switch : DispatchMode::Threaded;
    return true;
  }
  Err = "want switch|threaded";
  return false;
}

/// The setter of a spec-text row: \p Check validates, the field keeps
/// the text.
template <auto Field, bool (*Check)(std::string_view, std::string &)>
bool setSpec(std::string_view V, EngineConfig &C, std::string &Err) {
  if (!Check(V, Err))
    return false;
  C.*Field = V;
  return true;
}

bool checkFaults(std::string_view V, std::string &Err) {
  FaultPlan Plan;
  return FaultPlan::parse(V, Plan, Err);
}

bool checkPolicyFile(std::string_view V, std::string &Err) {
  return SitePolicyTable().loadFile(std::string(V), Err);
}

bool checkSupervise(std::string_view V, std::string &Err) {
  Supervisor::Policy Pol;
  return trim(V) == "off" || Supervisor::parsePolicy(V, Pol, Err);
}

using C = EngineConfig;

const EnvSwitch Switches[] = {
    {"MULT_DISPATCH", "switch|threaded: the interpreter's dispatch loop",
     atDefault<&C::Dispatch>, set<&C::Dispatch, parseDispatch>},
    {"MULT_RECOVERY", "0|off: orphan the tasks a proc-kill loses",
     atDefault<&C::Recovery>, set<&C::Recovery, parseFlag>},
    {"MULT_CHECKPOINT", "N|off: checkpoint a task every N busy cycles",
     atDefault<&C::CheckpointEvery>, set<&C::CheckpointEvery, parseCycles>},
    {"MULT_RACE", "1|on: run the determinacy-race detector (:races)",
     atDefault<&C::RaceDetect>, set<&C::RaceDetect, parseFlag>},
    {"MULT_FAULTS", "PLAN: arm a fault plan (grammar as :faults)",
     atDefault<&C::Faults>, setSpec<&C::Faults, checkFaults>},
    {"MULT_SITE_POLICIES", "FILE: per-future-site policies (:profile FILE)",
     atDefault<&C::SitePolicies>, setSpec<&C::SitePolicies, checkPolicyFile>},
    {"MULT_QUOTA", "SPEC: group quotas and admission gate (as :quota)",
     atDefault<&C::GroupHeapQuotaWords, &C::GroupCycleBudget,
               &C::MaxLiveGroups, &C::MaxQueuedGroups>,
     parseQuota},
    {"MULT_SUPERVISE", "POLICY: default supervision policy (as :supervise)",
     atDefault<&C::Supervise>, setSpec<&C::Supervise, checkSupervise>},
    {"MULT_TELEMETRY", "prom:PATH|json:PATH: export telemetry at exit",
     atDefault<&C::Telemetry>, setSpec<&C::Telemetry, checkTelemetrySpec>},
};

} // namespace

std::span<const EnvSwitch> mult::envSwitches() { return Switches; }

EngineConfig mult::applyEnv(EngineConfig Cfg) {
  for (const EnvSwitch &S : Switches) {
    const char *V = std::getenv(S.Name);
    if (!V || !S.AtDefault(Cfg))
      continue;
    std::string Err;
    if (!S.Set(V, Cfg, Err))
      std::fprintf(stderr, "mult: ignoring %s='%s': %s\n", S.Name, V,
                   Err.c_str());
  }
  return Cfg;
}

bool mult::parseQuota(std::string_view Spec, EngineConfig &Cfg,
                      std::string &Err) {
  uint64_t Heap = Cfg.GroupHeapQuotaWords, Cycles = Cfg.GroupCycleBudget;
  uint64_t Live = Cfg.MaxLiveGroups, Queue = Cfg.MaxQueuedGroups;
  if (trim(Spec) == "off") // every limit back to 0, unlimited
    Spec = "heap=0;cycles=0;live=0;queue=0";
  bool Any = false;
  for (std::string_view Part : splitOn(Spec, ";,")) {
    std::string_view Clause = trim(Part);
    if (Clause.empty())
      continue;
    size_t Eq = Clause.find('=');
    std::string_view Key = trim(Clause.substr(0, Eq));
    uint64_t V = 0;
    bool Ok = Eq != Clause.npos && parseU64(trim(Clause.substr(Eq + 1)), V);
    if (Ok && Key == "heap") {
      Heap = V;
    } else if (Ok && Key == "cycles") {
      Cycles = V;
    } else if (Ok && Key == "live" && V <= 100000) {
      Live = V;
    } else if (Ok && Key == "queue" && V <= 100000) {
      Queue = V;
    } else {
      Err = strFormat("bad quota clause '%.*s' (want heap=WORDS, cycles=N, "
                      "live=N, queue=N, or off)",
                      int(Clause.size()), Clause.data());
      return false;
    }
    Any = true;
  }
  if (!Any) {
    Err = "empty quota spec";
    return false;
  }
  Cfg.GroupHeapQuotaWords = Heap;
  Cfg.GroupCycleBudget = Cycles;
  Cfg.MaxLiveGroups = unsigned(Live);
  Cfg.MaxQueuedGroups = unsigned(Queue);
  return true;
}
