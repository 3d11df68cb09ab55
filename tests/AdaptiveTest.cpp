//===----------------------------------------------------------------------===//
///
/// \file
/// The adaptive inlining-threshold controller (sched/Adaptive.h) and the
/// per-future-site policy table (core/SitePolicies.h): pure decision
/// logic, queue high-water semantics, policy file round-trips, and
/// end-to-end engine behavior including the adapt-* fault clauses.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "fault/FaultPlan.h"
#include "obs/Trace.h"
#include "sched/Adaptive.h"
#include "sched/Machine.h"
#include "sched/TaskQueues.h"
#include "support/StrUtil.h"

#include <gtest/gtest.h>

using namespace mult;
using namespace mult::testutil;

namespace {

// A future-heavy doubly recursive summation; every level spawns one task.
constexpr const char PsumSource[] = R"lisp(
    (define (psum n)
      (if (< n 2)
          n
          (+ (touch (future (psum (- n 1)))) (psum (- n 2)))))
)lisp";

//===----------------------------------------------------------------------===//
// TaskQueues high-water marks: run-wide vs window
//===----------------------------------------------------------------------===//

TEST(TaskQueuesHighWater, WindowResetLeavesRunWideMarks) {
  TaskQueues Q;
  uint64_t Now = 0;
  Q.pushNew(TaskId(1), Now);
  Q.pushNew(TaskId(2), Now);
  Q.pushNew(TaskId(3), Now);
  EXPECT_EQ(Q.newHighWater(), 3u);
  EXPECT_EQ(Q.windowHighWater(), 3u);
  EXPECT_EQ(Q.newPushes(), 3u);

  uint64_t Cycles = 0;
  Q.popNew(Now, Cycles);
  Q.popNew(Now, Cycles);
  // Window marks rebase to the *current* depth (1), not zero: what is
  // still queued is still high water for the next window. Run-wide marks
  // are untouched.
  Q.resetWindowHighWater();
  EXPECT_EQ(Q.windowHighWater(), 1u);
  EXPECT_EQ(Q.newHighWater(), 3u);

  Q.pushNew(TaskId(4), Now);
  EXPECT_EQ(Q.windowHighWater(), 2u);
  EXPECT_EQ(Q.newHighWater(), 3u);
  EXPECT_EQ(Q.newPushes(), 4u);
}

TEST(TaskQueuesHighWater, StatsResetRebasesBothViews) {
  TaskQueues Q;
  uint64_t Now = 0;
  Q.pushNew(TaskId(1), Now);
  Q.pushSuspended(TaskId(2), Now);
  EXPECT_EQ(Q.windowHighWater(), 2u);
  uint64_t Cycles = 0;
  Q.popSuspended(Now, Cycles);
  Q.resetHighWater();
  // Both views rebase to current sizes: one new task still queued.
  EXPECT_EQ(Q.newHighWater(), 1u);
  EXPECT_EQ(Q.suspendedHighWater(), 0u);
  EXPECT_EQ(Q.windowHighWater(), 1u);
  // The push counter is monotonic; deltas, not resets, give window rates.
  EXPECT_EQ(Q.newPushes(), 1u);
}

TEST(TaskQueuesHighWater, SuspendedPushesRaiseWindowMark) {
  TaskQueues Q;
  uint64_t Now = 0;
  Q.pushNew(TaskId(1), Now);
  Q.resetWindowHighWater();
  Q.pushSuspended(TaskId(2), Now);
  Q.pushSuspended(TaskId(3), Now);
  EXPECT_EQ(Q.windowHighWater(), 3u);
  EXPECT_EQ(Q.newPushes(), 1u); // suspended pushes are not new-task pushes
}

//===----------------------------------------------------------------------===//
// decideStep: the demand-tracking vote
//===----------------------------------------------------------------------===//

WindowSignals signals(uint64_t StolenFrom, unsigned Processors,
                      uint64_t Attempts = 0, uint64_t Failed = 0) {
  WindowSignals W;
  W.StolenFrom = StolenFrom;
  W.Processors = Processors;
  W.StealAttempts = Attempts;
  W.StealsFailed = Failed;
  return W;
}

TEST(AdaptiveDecide, DemandAboveThresholdRaises) {
  AdaptiveTConfig Cfg;
  EXPECT_EQ(adaptive::decideStep(Cfg, 1, signals(/*StolenFrom=*/3, 4)), +1);
  EXPECT_EQ(adaptive::decideStep(Cfg, 2, signals(3, 4)), +1);
}

TEST(AdaptiveDecide, DemandAtThresholdHolds) {
  AdaptiveTConfig Cfg;
  EXPECT_EQ(adaptive::decideStep(Cfg, 2, signals(2, 4)), 0);
}

TEST(AdaptiveDecide, DemandBelowThresholdLowers) {
  AdaptiveTConfig Cfg;
  EXPECT_EQ(adaptive::decideStep(Cfg, 4, signals(1, 4)), -1);
}

TEST(AdaptiveDecide, MultiprocessorFloorsAtOne) {
  AdaptiveTConfig Cfg;
  // Zero demand on a multiprocessor targets T = 1, never 0: an empty
  // queue makes demand invisible and would wedge the controller serial.
  EXPECT_EQ(adaptive::decideStep(Cfg, 1, signals(0, 4)), 0);
  EXPECT_EQ(adaptive::decideStep(Cfg, 2, signals(0, 4)), -1);
}

TEST(AdaptiveDecide, SingleProcessorDropsToZero) {
  AdaptiveTConfig Cfg;
  // No thief can ever arrive: shed the last future's overhead.
  EXPECT_EQ(adaptive::decideStep(Cfg, 1, signals(0, 1)), -1);
  EXPECT_EQ(adaptive::decideStep(Cfg, 0, signals(0, 1)), 0);
}

TEST(AdaptiveDecide, StarvationSuppressesLowering) {
  AdaptiveTConfig Cfg;
  // 8 probes, 7 failed: this processor is starving. However low the
  // demand on its own queue, cutting supply now would make things worse.
  EXPECT_EQ(adaptive::decideStep(Cfg, 4, signals(0, 4, 8, 7)), 0);
  // Mostly-successful probes are not starvation; lowering proceeds.
  EXPECT_EQ(adaptive::decideStep(Cfg, 4, signals(0, 4, 8, 1)), -1);
  // Below MinProbes the failure rate is noise, not starvation.
  EXPECT_EQ(adaptive::decideStep(Cfg, 4, signals(0, 4, 2, 2)), -1);
}

TEST(AdaptiveDecide, BacklogLowersAtMatchedDemand) {
  AdaptiveTConfig Cfg;
  WindowSignals W = signals(/*StolenFrom=*/4, 4);
  W.QueueHighWater = 4 + Cfg.DrainSlack; // well past the threshold
  EXPECT_EQ(adaptive::decideStep(Cfg, 4, W), -1);
  W.QueueHighWater = 4 + Cfg.DrainSlack - 1;
  EXPECT_EQ(adaptive::decideStep(Cfg, 4, W), 0);
}

TEST(AdaptiveDecide, TargetClampedToMaxT) {
  AdaptiveTConfig Cfg;
  Cfg.MaxT = 4;
  EXPECT_EQ(adaptive::decideStep(Cfg, 4, signals(100, 4)), 0);
  EXPECT_EQ(adaptive::decideStep(Cfg, 3, signals(100, 4)), +1);
}

//===----------------------------------------------------------------------===//
// applyStep: hysteresis and bounds
//===----------------------------------------------------------------------===//

TEST(AdaptiveApply, RequiresConsecutiveVotes) {
  AdaptiveTConfig Cfg; // Hysteresis = 2
  AdaptiveTState A;
  A.T = 2;
  EXPECT_FALSE(adaptive::applyStep(Cfg, A, +1));
  EXPECT_EQ(A.T, 2u);
  EXPECT_TRUE(adaptive::applyStep(Cfg, A, +1));
  EXPECT_EQ(A.T, 3u);
  EXPECT_EQ(A.Raises, 1u);
  EXPECT_EQ(A.Lowers, 0u);
}

TEST(AdaptiveApply, HoldVoteClearsPending) {
  AdaptiveTConfig Cfg;
  AdaptiveTState A;
  A.T = 2;
  EXPECT_FALSE(adaptive::applyStep(Cfg, A, +1));
  EXPECT_FALSE(adaptive::applyStep(Cfg, A, 0)); // interrupts the streak
  EXPECT_FALSE(adaptive::applyStep(Cfg, A, +1));
  EXPECT_EQ(A.T, 2u);
  EXPECT_TRUE(adaptive::applyStep(Cfg, A, +1));
  EXPECT_EQ(A.T, 3u);
}

TEST(AdaptiveApply, DirectionFlipRestartsCount) {
  AdaptiveTConfig Cfg;
  AdaptiveTState A;
  A.T = 2;
  EXPECT_FALSE(adaptive::applyStep(Cfg, A, +1));
  EXPECT_FALSE(adaptive::applyStep(Cfg, A, -1));
  EXPECT_EQ(A.T, 2u);
  EXPECT_TRUE(adaptive::applyStep(Cfg, A, -1));
  EXPECT_EQ(A.T, 1u);
  EXPECT_EQ(A.Lowers, 1u);
}

TEST(AdaptiveApply, BoundedByMinAndMax) {
  AdaptiveTConfig Cfg;
  Cfg.MinT = 1;
  Cfg.MaxT = 2;
  Cfg.Hysteresis = 1;
  AdaptiveTState A;
  A.T = 2;
  EXPECT_FALSE(adaptive::applyStep(Cfg, A, +1)); // already at MaxT
  EXPECT_EQ(A.T, 2u);
  EXPECT_EQ(A.Raises, 0u);
  EXPECT_TRUE(adaptive::applyStep(Cfg, A, -1));
  EXPECT_EQ(A.T, 1u);
  EXPECT_FALSE(adaptive::applyStep(Cfg, A, -1)); // already at MinT
  EXPECT_EQ(A.T, 1u);
  EXPECT_EQ(A.Lowers, 1u);
}

//===----------------------------------------------------------------------===//
// SitePolicyTable: format round-trip and parse errors
//===----------------------------------------------------------------------===//

TEST(SitePolicies, FormatParseRoundTrip) {
  SitePolicyTable T;
  T.set("fib+12", SitePolicy::Eager);
  T.set("msort+33", SitePolicy::Lazy);
  T.set("scan+7", SitePolicy::Inline);
  std::string Text = T.format();

  SitePolicyTable U;
  std::string Err;
  ASSERT_TRUE(U.parse(Text, Err)) << Err;
  EXPECT_EQ(U.size(), 3u);
  ASSERT_NE(U.lookup("fib+12"), nullptr);
  EXPECT_EQ(*U.lookup("fib+12"), SitePolicy::Eager);
  ASSERT_NE(U.lookup("msort+33"), nullptr);
  EXPECT_EQ(*U.lookup("msort+33"), SitePolicy::Lazy);
  ASSERT_NE(U.lookup("scan+7"), nullptr);
  EXPECT_EQ(*U.lookup("scan+7"), SitePolicy::Inline);
  EXPECT_EQ(U.lookup("absent+0"), nullptr);
  // format() is canonical: round-tripping again is a fixed point.
  EXPECT_EQ(U.format(), Text);
}

TEST(SitePolicies, ParseSkipsCommentsAndBlankLines) {
  SitePolicyTable T;
  std::string Err;
  ASSERT_TRUE(T.parse(";; header comment\n"
                      "\n"
                      "site a+1 eager\n"
                      "; another comment\n"
                      "site b+2 inline\n",
                      Err))
      << Err;
  EXPECT_EQ(T.size(), 2u);
}

TEST(SitePolicies, ParseErrorsNameTheLine) {
  SitePolicyTable T;
  std::string Err;
  EXPECT_FALSE(T.parse("site a+1 eager\nsite b+2 sideways\n", Err));
  EXPECT_NE(Err.find("2"), std::string::npos) << Err;
  EXPECT_TRUE(T.empty()) << "failed parse must leave the table empty";

  EXPECT_FALSE(T.parse("site justaname\n", Err));
  EXPECT_FALSE(T.parse("policy a+1 eager\n", Err));
}

//===----------------------------------------------------------------------===//
// Site policies end to end
//===----------------------------------------------------------------------===//

// Builds a policy table naming every future site the traced run visited.
std::string policiesForAllSites(Engine &Traced, const char *Policy) {
  std::string Text;
  for (const std::string &Name : Traced.tracer().siteNames())
    Text += "site " + Name + " " + Policy + "\n";
  return Text;
}

TEST(SitePoliciesEndToEnd, InlinePolicySuppressesAllFutures) {
  EngineConfig C = config(2);
  C.EnableTracing = true;
  Engine Traced(C);
  evalOk(Traced, PsumSource);
  evalFixnum(Traced, "(psum 10)");
  ASSERT_FALSE(Traced.tracer().siteNames().empty());
  EXPECT_GT(Traced.stats().FuturesCreated, 0u);

  Engine E(config(2));
  std::string Err;
  ASSERT_TRUE(E.configureSitePolicies(policiesForAllSites(Traced, "inline"),
                                      Err))
      << Err;
  evalOk(E, PsumSource);
  E.resetStats();
  EXPECT_EQ(evalFixnum(E, "(psum 10)"), 55);
  EXPECT_EQ(E.stats().FuturesCreated, 0u);
  EXPECT_GT(E.stats().PolicyInline, 0u);
  EXPECT_EQ(E.stats().PolicyEager, 0u);
}

TEST(SitePoliciesEndToEnd, EagerPolicyOverridesInliningThreshold) {
  EngineConfig C = config(2);
  C.EnableTracing = true;
  Engine Traced(C);
  evalOk(Traced, PsumSource);
  evalFixnum(Traced, "(psum 10)");

  // T = 0 inlines every future; the eager policy must override it.
  EngineConfig C2 = config(2);
  C2.InlineThreshold = 0;
  Engine E(C2);
  std::string Err;
  ASSERT_TRUE(E.configureSitePolicies(policiesForAllSites(Traced, "eager"),
                                      Err))
      << Err;
  evalOk(E, PsumSource);
  E.resetStats();
  EXPECT_EQ(evalFixnum(E, "(psum 10)"), 55);
  EXPECT_GT(E.stats().FuturesCreated, 0u);
  EXPECT_GT(E.stats().PolicyEager, 0u);
  EXPECT_EQ(E.stats().TasksInlined, 0u);
}

TEST(SitePoliciesEndToEnd, LazyPolicyCreatesSeamsWithoutGlobalLazyMode) {
  EngineConfig C = config(2);
  C.EnableTracing = true;
  Engine Traced(C);
  evalOk(Traced, PsumSource);
  evalFixnum(Traced, "(psum 10)");

  Engine E(config(2));
  ASSERT_FALSE(E.config().LazyFutures);
  std::string Err;
  ASSERT_TRUE(E.configureSitePolicies(policiesForAllSites(Traced, "lazy"),
                                      Err))
      << Err;
  evalOk(E, PsumSource);
  E.resetStats();
  EXPECT_EQ(evalFixnum(E, "(psum 10)"), 55);
  EXPECT_GT(E.stats().SeamsCreated, 0u);
  EXPECT_GT(E.stats().PolicyLazy, 0u);
  // Futures may still appear: a stolen seam splits into a real future.
  // What the policy guarantees is that no site created one eagerly.
  EXPECT_EQ(E.stats().PolicyEager, 0u);
}

TEST(SitePoliciesEndToEnd, UnknownSitesAreHarmless) {
  Engine E(config(2));
  std::string Err;
  ASSERT_TRUE(E.configureSitePolicies("site nowhere+99 eager\n", Err)) << Err;
  evalOk(E, PsumSource);
  EXPECT_EQ(evalFixnum(E, "(psum 10)"), 55);
  EXPECT_EQ(E.stats().PolicyEager, 0u);
}

//===----------------------------------------------------------------------===//
// Adaptive threshold end to end
//===----------------------------------------------------------------------===//

EngineConfig adaptiveConfig(unsigned Procs, uint64_t Window = 512) {
  EngineConfig C = config(Procs);
  C.AdaptiveInline = true;
  C.AdaptiveWindowCycles = Window;
  return C;
}

TEST(AdaptiveEndToEnd, RunsAreDeterministic) {
  auto Run = [](Engine &E) {
    evalOk(E, PsumSource);
    E.resetStats();
    EXPECT_EQ(evalFixnum(E, "(psum 14)"), 377);
  };
  Engine A(adaptiveConfig(4)), B(adaptiveConfig(4));
  Run(A);
  Run(B);
  EXPECT_EQ(A.stats().ElapsedCycles, B.stats().ElapsedCycles);
  EXPECT_EQ(A.stats().FuturesCreated, B.stats().FuturesCreated);
  EXPECT_EQ(A.stats().TasksInlined, B.stats().TasksInlined);
  EXPECT_EQ(A.stats().AdaptWindows, B.stats().AdaptWindows);
  EXPECT_EQ(A.stats().ThresholdRaises, B.stats().ThresholdRaises);
  EXPECT_EQ(A.stats().ThresholdLowers, B.stats().ThresholdLowers);
  for (unsigned I = 0; I < 4; ++I)
    EXPECT_EQ(A.machine().processor(I).Adapt.T,
              B.machine().processor(I).Adapt.T);
}

TEST(AdaptiveEndToEnd, ThresholdStaysInBoundsAndWindowsClose) {
  Engine E(adaptiveConfig(4));
  evalOk(E, PsumSource);
  evalFixnum(E, "(psum 14)");
  const AdaptiveTConfig &Cfg = E.machine().adaptiveConfig();
  EXPECT_TRUE(E.machine().adaptiveEnabled());
  EXPECT_GT(E.stats().AdaptWindows, 0u);
  for (unsigned I = 0; I < 4; ++I) {
    unsigned T = E.machine().processor(I).Adapt.T;
    EXPECT_GE(T, Cfg.MinT);
    EXPECT_LE(T, Cfg.MaxT);
  }
}

TEST(AdaptiveEndToEnd, SingleProcessorShedsAllFutureOverhead) {
  Engine E(adaptiveConfig(1));
  evalOk(E, PsumSource);
  // The prelude likely already dropped T to 0; push it back up so the
  // descent (and its stats) happens inside the measured run.
  E.machine().processor(0).Adapt.T = 3;
  E.resetStats();
  evalFixnum(E, "(psum 14)");
  // With no thief possible, the controller drops T to 0 (always inline).
  EXPECT_EQ(E.machine().processor(0).Adapt.T, 0u);
  EXPECT_GT(E.stats().ThresholdLowers, 0u);
}

TEST(AdaptiveEndToEnd, ThresholdChangesAreTraced) {
  EngineConfig C = adaptiveConfig(1);
  C.EnableTracing = true;
  Engine E(C);
  evalOk(E, PsumSource);
  // Make a descent happen inside the traced run (the prelude already
  // settled T, and its trace events are gone with the bootstrap reset).
  E.machine().processor(0).Adapt.T = 3;
  E.resetStats();
  evalFixnum(E, "(psum 14)");
  bool Seen = false;
  for (const TraceEvent &Ev : E.tracer().events()) {
    if (Ev.Kind == TraceEventKind::ThresholdChange) {
      Seen = true;
      EXPECT_LE(Ev.A, 16u); // new T within bounds
    }
  }
  EXPECT_TRUE(Seen);
}

TEST(AdaptiveEndToEnd, StealCountersPartition) {
  Engine E(adaptiveConfig(4));
  evalOk(E, PsumSource);
  evalFixnum(E, "(psum 14)");
  uint64_t Attempts = 0, Failed = 0, StolenFrom = 0;
  for (unsigned I = 0; I < 4; ++I) {
    const Processor &P = E.machine().processor(I);
    Attempts += P.StealAttempts;
    Failed += P.StealsFailed;
    StolenFrom += P.StolenFrom;
  }
  // Every successful probe has exactly one victim.
  EXPECT_EQ(Attempts - Failed, StolenFrom);
}

TEST(AdaptiveEndToEnd, ResetStatsRebaselinesWindows) {
  Engine E(adaptiveConfig(4));
  evalOk(E, PsumSource);
  evalFixnum(E, "(psum 12)");
  unsigned LearnedT = E.machine().processor(0).Adapt.T;
  E.resetStats();
  EXPECT_EQ(E.stats().AdaptWindows, 0u);
  // Learned thresholds survive a stats reset; only baselines move.
  EXPECT_EQ(E.machine().processor(0).Adapt.T, LearnedT);
  // Counter deltas must not underflow after the reset zeroed them.
  evalFixnum(E, "(psum 12)");
  EXPECT_GT(E.stats().AdaptWindows, 0u);
}

TEST(AdaptiveEndToEnd, DisabledAdaptationChangesNothing) {
  auto Cycles = [](uint64_t Window) {
    EngineConfig C = config(4);
    C.AdaptiveInline = false;
    C.AdaptiveWindowCycles = Window; // must be inert while disabled
    Engine E(C);
    evalOk(E, PsumSource);
    E.resetStats();
    evalFixnum(E, "(psum 14)");
    EXPECT_EQ(E.stats().AdaptWindows, 0u);
    return E.stats().ElapsedCycles;
  };
  EXPECT_EQ(Cycles(512), Cycles(4096));
}

//===----------------------------------------------------------------------===//
// Fault injection against the controller
//===----------------------------------------------------------------------===//

TEST(AdaptiveFaults, PlanRoundTripsAdaptClauses) {
  FaultPlan P;
  std::string Err;
  ASSERT_TRUE(
      FaultPlan::parse("adapt-clamp=2@0,4@16; adapt-reset=3,7", P, Err))
      << Err;
  EXPECT_EQ(P.format(), "adapt-clamp=2@0,4@16;adapt-reset=3,7");

  FaultPlan Q;
  ASSERT_TRUE(FaultPlan::parse(P.format(), Q, Err)) << Err;
  EXPECT_EQ(Q.format(), P.format());

  FaultPlan R;
  EXPECT_FALSE(FaultPlan::parse("adapt-clamp=0@1", R, Err)); // 1-based
  EXPECT_FALSE(FaultPlan::parse("adapt-reset=0", R, Err));
  EXPECT_FALSE(FaultPlan::parse("adapt-clamp=5", R, Err)); // missing @VALUE
}

TEST(AdaptiveFaults, ClampAndResetPerturbTheController) {
  Engine E(adaptiveConfig(2));
  evalOk(E, PsumSource);
  // Window ordinals are machine-lifetime; the prelude and the define
  // already consumed the low ones. Aim at windows inside the next run.
  uint64_t Next = E.machine().adaptWindowsClosed();
  std::string Err;
  ASSERT_TRUE(E.configureFaults(
      strFormat("adapt-clamp=%llu@16; adapt-reset=%llu",
                static_cast<unsigned long long>(Next + 2),
                static_cast<unsigned long long>(Next + 4)),
      Err))
      << Err;
  E.resetStats();
  EXPECT_EQ(evalFixnum(E, "(psum 14)"), 377);
  EXPECT_GT(E.stats().FaultsInjected, 0u);
  // The clamped threshold still respects the configured bounds.
  for (unsigned I = 0; I < 2; ++I)
    EXPECT_LE(E.machine().processor(I).Adapt.T, 16u);
}

TEST(AdaptiveFaults, ClampIsDeterministic) {
  auto Run = []() {
    Engine E(adaptiveConfig(2));
    evalOk(E, PsumSource);
    uint64_t Next = E.machine().adaptWindowsClosed();
    std::string Err;
    EXPECT_TRUE(E.configureFaults(
        strFormat("adapt-clamp=%llu@8",
                  static_cast<unsigned long long>(Next + 3)),
        Err))
        << Err;
    E.resetStats();
    evalFixnum(E, "(psum 14)");
    return E.stats().ElapsedCycles;
  };
  EXPECT_EQ(Run(), Run());
}

} // namespace
