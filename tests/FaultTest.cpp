//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection and graceful degradation: every
/// injectable fault must leave the engine inspectable (breakloop),
/// resumable or killable — never crash the host process.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "fault/FaultPlan.h"
#include "ui/Repl.h"

#include <tuple>

using namespace mult;
using namespace mult::testutil;

namespace {

EngineConfig faultConfig(unsigned Procs, std::string Spec) {
  EngineConfig C = config(Procs);
  C.Faults = std::move(Spec);
  return C;
}

//===----------------------------------------------------------------------===//
// Plan parsing.
//===----------------------------------------------------------------------===//

TEST(FaultPlanTest, ParsesEveryClause) {
  FaultPlan P;
  std::string Err;
  ASSERT_TRUE(FaultPlan::parse(
      "seed=7; alloc-fail=3,1; alloc-fail-every=100; gc-at=500,250;"
      " spawn-error=2; touch-error=4; steal-fail=0.25; steal-fail-at=6;"
      " queue-cap=8; stall=1@100+50,0@0+10",
      P, Err))
      << Err;
  EXPECT_EQ(P.Seed, 7u);
  ASSERT_EQ(P.AllocFailAt.size(), 2u); // sorted + deduped
  EXPECT_EQ(P.AllocFailAt[0], 1u);
  EXPECT_EQ(P.AllocFailAt[1], 3u);
  EXPECT_EQ(P.AllocFailEvery, 100u);
  ASSERT_EQ(P.GcAtCycles.size(), 2u);
  EXPECT_EQ(P.GcAtCycles[0], 250u);
  EXPECT_EQ(P.SpawnErrorAt, std::vector<uint64_t>{2});
  EXPECT_EQ(P.TouchErrorAt, std::vector<uint64_t>{4});
  EXPECT_DOUBLE_EQ(P.StealFailProb, 0.25);
  EXPECT_EQ(P.StealFailAt, std::vector<uint64_t>{6});
  ASSERT_TRUE(P.QueueCap.has_value());
  EXPECT_EQ(*P.QueueCap, 8u);
  ASSERT_EQ(P.Stalls.size(), 2u);
  EXPECT_EQ(P.Stalls[0].Begin, 0u); // stable-sorted by Begin
  EXPECT_EQ(P.Stalls[1].Proc, 1u);
  EXPECT_EQ(P.Stalls[1].Length, 50u);
  EXPECT_FALSE(P.empty());
}

TEST(FaultPlanTest, ParsesProcKillAndSeamSplitFail) {
  FaultPlan P;
  std::string Err;
  ASSERT_TRUE(FaultPlan::parse(
      "proc-kill=2@5000,0@1000; seam-split-fail=7,3,3", P, Err))
      << Err;
  ASSERT_EQ(P.ProcKills.size(), 2u); // sorted by virtual-time mark
  EXPECT_EQ(P.ProcKills[0].Proc, 0u);
  EXPECT_EQ(P.ProcKills[0].AtCycles, 1000u);
  EXPECT_EQ(P.ProcKills[1].Proc, 2u);
  EXPECT_EQ(P.ProcKills[1].AtCycles, 5000u);
  ASSERT_EQ(P.SeamSplitFailAt.size(), 2u); // sorted + deduped
  EXPECT_EQ(P.SeamSplitFailAt[0], 3u);
  EXPECT_EQ(P.SeamSplitFailAt[1], 7u);
  EXPECT_FALSE(P.empty());
}

TEST(FaultPlanTest, ProcKillRoundTrips) {
  FaultPlan P;
  std::string Err;
  ASSERT_TRUE(FaultPlan::parse("proc-kill=1@200,3@90000; seam-split-fail=2",
                               P, Err));
  FaultPlan Q;
  ASSERT_TRUE(FaultPlan::parse(P.format(), Q, Err)) << P.format();
  EXPECT_EQ(P.format(), Q.format());
}

TEST(FaultPlanTest, RejectsMalformedProcKillAndSeamSplitFail) {
  FaultPlan P;
  std::string Err;
  EXPECT_FALSE(FaultPlan::parse("proc-kill=1", P, Err)) << "missing @CYCLES";
  EXPECT_FALSE(FaultPlan::parse("proc-kill=@5", P, Err));
  EXPECT_FALSE(FaultPlan::parse("proc-kill=99999@5", P, Err))
      << "processor ids above 0xffff are nonsense";
  EXPECT_FALSE(FaultPlan::parse("seam-split-fail=0", P, Err))
      << "ordinals are 1-based";
  EXPECT_FALSE(FaultPlan::parse("seam-split-fail=x", P, Err));
}

TEST(FaultPlanTest, FormatRoundTrips) {
  FaultPlan P;
  std::string Err;
  ASSERT_TRUE(FaultPlan::parse(
      "seed=9; alloc-fail=5; gc-at=100; steal-fail=0.5; queue-cap=2;"
      " stall=2@10+20",
      P, Err));
  FaultPlan Q;
  ASSERT_TRUE(FaultPlan::parse(P.format(), Q, Err)) << P.format();
  EXPECT_EQ(P.format(), Q.format());
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  FaultPlan P;
  std::string Err;
  EXPECT_FALSE(FaultPlan::parse("frobnicate=1", P, Err));
  EXPECT_NE(Err.find("unknown fault clause"), std::string::npos) << Err;
  // Plans written for the retired lying-processor layer are rejected
  // loudly rather than silently dropped.
  for (const char *Old : {"proc-lie=1@4000", "cross-check=1"}) {
    Err.clear();
    EXPECT_FALSE(FaultPlan::parse(Old, P, Err)) << Old;
    EXPECT_NE(Err.find("unknown fault clause"), std::string::npos) << Err;
  }
  EXPECT_FALSE(FaultPlan::parse("alloc-fail=zero", P, Err));
  EXPECT_FALSE(FaultPlan::parse("alloc-fail=0", P, Err))
      << "ordinals are 1-based";
  EXPECT_FALSE(FaultPlan::parse("steal-fail=1.5", P, Err));
  EXPECT_FALSE(FaultPlan::parse("stall=1@5", P, Err)) << "missing +LEN";
}

TEST(FaultPlanTest, EmptySpecIsEmptyPlan) {
  FaultPlan P;
  std::string Err;
  ASSERT_TRUE(FaultPlan::parse("", P, Err));
  EXPECT_TRUE(P.empty());
  ASSERT_TRUE(FaultPlan::parse("seed=42", P, Err));
  EXPECT_TRUE(P.empty()) << "a seed alone cannot fire any fault";
}

//===----------------------------------------------------------------------===//
// Injection sites, one by one.
//===----------------------------------------------------------------------===//

TEST(FaultTest, InjectedAllocFailuresAreTransparent) {
  // Each forced failure runs a real collection and the retry succeeds; the
  // program cannot tell (the result is unchanged).
  Engine E(faultConfig(1, "alloc-fail=1,2,3"));
  EXPECT_EQ(evalFixnum(E, "(car (cons 41 1))"), 41);
  EXPECT_EQ(E.stats().FaultsInjected, 3u);
  EXPECT_GE(E.gcStats().Collections, 3u)
      << "every injected failure must trigger a real collection";
}

TEST(FaultTest, PeriodicAllocFailuresSurviveARealWorkload) {
  Engine E(faultConfig(2, "alloc-fail-every=37"));
  EXPECT_EQ(evalFixnum(E, R"lisp(
    (define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
    (length (build 500))
  )lisp"),
            500);
  EXPECT_GT(E.stats().FaultsInjected, 0u);
}

TEST(FaultTest, SpawnErrorStopsTheGroupAndResumeRetries) {
  Engine E(faultConfig(2, "spawn-error=1"));
  EvalResult R = E.eval("(touch (future (+ 40 2)))");
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::RuntimeError));
  EXPECT_NE(R.Error.find("injected-fault: future spawn error"),
            std::string::npos)
      << R.Error;
  // The stop is restartable: resume re-executes the spawn (the injector's
  // counter is already past the ordinal) and the value comes out intact.
  EvalResult After = E.resumeGroup(R.StoppedGroup, Value::falseV());
  ASSERT_TRUE(After.ok()) << After.Error;
  EXPECT_EQ(After.Val.asFixnum(), 42);
  EXPECT_EQ(E.stats().FaultsInjected, 1u);
}

TEST(FaultTest, TouchErrorStopsTheGroupAndResumeRetries) {
  Engine E(faultConfig(2, "touch-error=1"));
  EvalResult R = E.eval("(touch (future 41))");
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::RuntimeError));
  EXPECT_NE(R.Error.find("injected-fault: touch error"), std::string::npos)
      << R.Error;
  EvalResult After = E.resumeGroup(R.StoppedGroup, Value::falseV());
  ASSERT_TRUE(After.ok()) << After.Error;
  EXPECT_EQ(After.Val.asFixnum(), 41);
}

TEST(FaultTest, InjectedFaultsAreKillable) {
  Engine E(faultConfig(2, "spawn-error=1"));
  EvalResult R = E.eval("(touch (future 1))");
  ASSERT_FALSE(R.ok());
  E.killGroup(R.StoppedGroup);
  EXPECT_EQ(evalFixnum(E, "(touch (future 5))"), 5)
      << "the engine must keep working after a killed injected fault";
}

TEST(FaultTest, StealFailuresKeepTheAccountingIdentity) {
  // Every probe fails: the program still completes (each processor drains
  // its own queues) and Steals + StealsFailed == StealAttempts holds.
  Engine E(faultConfig(4, "steal-fail=1.0"));
  EXPECT_EQ(evalFixnum(E, R"lisp(
    (define (fib n)
      (if (< n 2) n
          (+ (touch (future (fib (- n 1)))) (fib (- n 2)))))
    (fib 10)
  )lisp"),
            55);
  const EngineStats &S = E.stats();
  EXPECT_EQ(S.Steals, 0u);
  EXPECT_EQ(S.Steals + S.StealsFailed, S.StealAttempts);
  EXPECT_GT(S.FaultsInjected, 0u);
}

TEST(FaultTest, ProbabilisticStealFailuresAreSeedDeterministic) {
  auto Run = [](uint64_t Seed) {
    Engine E(faultConfig(4, "seed=" + std::to_string(Seed) +
                                "; steal-fail=0.5"));
    evalOk(E, R"lisp(
      (define (fib n)
        (if (< n 2) n
            (+ (touch (future (fib (- n 1)))) (fib (- n 2)))))
      (fib 12)
    )lisp");
    return std::pair(E.stats().FaultsInjected, E.stats().ElapsedCycles);
  };
  EXPECT_EQ(Run(11), Run(11)) << "same seed must reproduce the same run";
}

TEST(FaultTest, QueueCapClampForcesInlining) {
  // No inline threshold is configured, so without the clamp nothing would
  // inline; a cap of 1 inlines every spawn past the first queued task.
  Engine E(faultConfig(1, "queue-cap=1"));
  EXPECT_EQ(evalFixnum(E, R"lisp(
    (define (spawn n) (if (= n 0) '() (cons (future n) (spawn (- n 1)))))
    (length (spawn 8))
  )lisp"),
            8);
  EXPECT_GE(E.stats().TasksInlined, 7u);
  EXPECT_GE(E.stats().FaultsInjected, 7u);
}

TEST(FaultTest, StallWindowCountsAsIdleTime) {
  Engine E(faultConfig(2, "stall=1@0+100000"));
  uint64_t IdleBefore = E.stats().IdleCycles;
  EXPECT_EQ(evalFixnum(E, "(touch (future (+ 1 2)))"), 3);
  EXPECT_EQ(E.stats().FaultsInjected, 1u);
  EXPECT_GE(E.stats().IdleCycles - IdleBefore, 100000u)
      << "the offline window must be accounted as idle so the clock tiles";
  for (unsigned I = 0; I < 2; ++I) {
    const Processor &P = E.machine().processor(I);
    EXPECT_EQ(P.ClockAtReset + P.BusyCycles + P.IdleCycles + P.GcCycles,
              P.Clock)
        << "cycle accounting leak on processor " << I;
  }
}

TEST(FaultTest, ForcedGcFiresAtTheVirtualTimeMark) {
  Engine E(faultConfig(1, "gc-at=1"));
  uint64_t Before = E.gcStats().Collections;
  EXPECT_EQ(evalFixnum(E, "(+ 1 2)"), 3);
  EXPECT_EQ(E.gcStats().Collections, Before + 1);
  EXPECT_EQ(E.stats().FaultsInjected, 1u);
}

TEST(FaultTest, FaultsRecordTraceEvents) {
  EngineConfig C = faultConfig(1, "alloc-fail=1,2");
  C.EnableTracing = true;
  Engine E(C);
  evalOk(E, "(cons 1 2)");
  uint64_t Seen = 0;
  for (const TraceEvent &Ev : E.tracer().events())
    if (Ev.Kind == TraceEventKind::FaultInjected) {
      ++Seen;
      EXPECT_EQ(Ev.A, static_cast<uint64_t>(FaultKind::AllocFail));
      EXPECT_EQ(Ev.C, Seen) << "payload C is the running fault count";
    }
  EXPECT_EQ(Seen, E.stats().FaultsInjected);
  EXPECT_EQ(Seen, 2u);
}

TEST(FaultTest, SeamSplitFailuresDegradeToInlineEvaluation) {
  // The thief backs off the first three split attempts; the seams stay
  // with their owners and are squashed at inline cost on return. The
  // program cannot tell, and the futures-only-at-steal-time invariant
  // survives the interference.
  EngineConfig C = faultConfig(4, "seam-split-fail=1,2,3");
  C.LazyFutures = true;
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, R"lisp(
    (define (tree n)
      (if (< n 2) 1 (+ (touch (future (tree (- n 1))))
                       (touch (future (tree (- n 2)))))))
    (tree 14)
  )lisp"),
            610);
  EXPECT_EQ(E.stats().FaultsInjected, 3u);
  EXPECT_EQ(E.stats().SeamsStolen, E.stats().FuturesCreated)
      << "a failed split must not leak a future";
}

TEST(FaultTest, SeamSplitFailuresAreDeterministic) {
  auto Run = [] {
    EngineConfig C = faultConfig(2, "seam-split-fail=1,3,5,7,9");
    C.LazyFutures = true;
    Engine E(C);
    evalOk(E, R"lisp(
      (define (tree n)
        (if (< n 2) 1 (+ (touch (future (tree (- n 1))))
                         (touch (future (tree (- n 2)))))))
      (tree 12)
    )lisp");
    return std::tuple(E.stats().FaultsInjected, E.stats().SeamsStolen,
                      E.stats().ElapsedCycles);
  };
  EXPECT_EQ(Run(), Run())
      << "the same plan must perturb the same split attempts";
}

//===----------------------------------------------------------------------===//
// Watchdog and deadlock reporting.
//===----------------------------------------------------------------------===//

TEST(FaultTest, CycleBudgetWatchdogStopsRunawayGroups) {
  EngineConfig C = config(1);
  C.MaxCycles = 100000;
  Engine E(C);
  EvalResult R = E.eval("(let loop () (loop))");
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::RuntimeError));
  EXPECT_NE(R.Error.find("cycle-budget-exhausted"), std::string::npos)
      << R.Error;
  ASSERT_NE(E.findGroup(R.StoppedGroup), nullptr);
  // Resume grants a fresh budget; the loop is still infinite, so the
  // watchdog fires again rather than hanging the host.
  EvalResult After = E.resumeGroup(R.StoppedGroup, Value::falseV());
  ASSERT_FALSE(After.ok());
  EXPECT_NE(After.Error.find("cycle-budget-exhausted"), std::string::npos);
  E.killGroup(E.currentStoppedGroup());
  EXPECT_EQ(evalFixnum(E, "(+ 1 2)"), 3);
}

TEST(FaultTest, DeadlockReportNamesTheWaitCycle) {
  // A future that touches itself: the child task waits on the very future
  // it is computing, a one-task wait cycle.
  Engine E(config(1));
  evalOk(E, "(define f #f)");
  EvalResult R = E.eval("(begin (set! f (future (touch f))) (touch f))");
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::Deadlock));
  EXPECT_NE(R.Error.find("blocked tasks:"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("wait cycle:"), std::string::npos) << R.Error;
}

TEST(FaultTest, SemaphoreDeadlockListsBlockedTasks) {
  Engine E(config(1));
  EvalResult R = E.eval("(semaphore-p (make-semaphore))");
  ASSERT_EQ(static_cast<int>(R.K),
            static_cast<int>(EvalResult::Kind::Deadlock));
  EXPECT_NE(R.Error.find("semaphore"), std::string::npos) << R.Error;
}

//===----------------------------------------------------------------------===//
// The REPL's :faults command.
//===----------------------------------------------------------------------===//

class FaultReplTest : public ::testing::Test {
protected:
  FaultReplTest() : E(config(1)), Out(Buf), R(E, Out) {}

  std::string line(std::string_view L) {
    Buf.clear();
    R.processLine(L);
    return Buf;
  }

  Engine E;
  std::string Buf;
  StringOutStream Out;
  Repl R;
};

TEST_F(FaultReplTest, ArmShowDisarm) {
  EXPECT_NE(line(":faults").find("off"), std::string::npos);
  EXPECT_NE(line(":faults alloc-fail=1").find("armed"), std::string::npos);
  EXPECT_NE(line(":faults").find("alloc-fail=1"), std::string::npos);
  EXPECT_NE(line(":faults bogus=1").find("bad fault plan"),
            std::string::npos);
  // A malformed spec keeps the previous plan armed.
  EXPECT_TRUE(E.faults().armed());
  EXPECT_NE(line(":faults off").find("off"), std::string::npos);
  EXPECT_FALSE(E.faults().armed());
}

TEST_F(FaultReplTest, InjectedFaultEntersTheBreakloop) {
  line(":faults spawn-error=1");
  std::string S = line("(touch (future 1))");
  EXPECT_NE(S.find("injected-fault"), std::string::npos) << S;
  EXPECT_NE(S.find("stopped"), std::string::npos) << S;
  EXPECT_EQ(line(":resume"), "1\n");
}

} // namespace
