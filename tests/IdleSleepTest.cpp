//===----------------------------------------------------------------------===//
///
/// \file
/// Idle sleep (Machine::run): while every queue and the seam deque are
/// empty, an idle processor sleeps and is later credited with its failed
/// steal rounds in closed form. The tracer observes every round, so a
/// traced run never sleeps; these tests run each program both ways and
/// require every virtual counter to agree bit for bit.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "../bench/programs/BoyerProgram.h"
#include "../bench/programs/MiniCompilerProgram.h"
#include "sched/Machine.h"

#include <cstring>
#include <type_traits>

using namespace mult;
using namespace mult::testutil;

namespace {

//===----------------------------------------------------------------------===//
// The replay count
//===----------------------------------------------------------------------===//

TEST(IdleRoundsBefore, CountsRoundsStartingBeforeTheKey) {
  // Rounds of sleeper 3 start at 100, 110, 120, ...
  EXPECT_EQ(idleRoundsBefore(100, 3, 10, 135, 5), 4u); // 100..130
  EXPECT_EQ(idleRoundsBefore(100, 3, 10, 135, 1), 4u);
  EXPECT_EQ(idleRoundsBefore(100, 3, 10, 101, 1), 1u); // just the first
}

TEST(IdleRoundsBefore, RoundStartingAtTheKeyFollowsTheIndexTieBreak) {
  // A round starting exactly at H runs first only from a lower index.
  EXPECT_EQ(idleRoundsBefore(100, 3, 10, 130, 5), 4u); // 100..130
  EXPECT_EQ(idleRoundsBefore(100, 3, 10, 130, 2), 3u); // 100..120
  EXPECT_EQ(idleRoundsBefore(100, 3, 10, 100, 5), 1u);
  EXPECT_EQ(idleRoundsBefore(100, 3, 10, 100, 2), 0u);
  // The pseudo-key (L + 1, 0) of the cycle limit counts every round that
  // starts at or before L, sleeper 0 included.
  EXPECT_EQ(idleRoundsBefore(100, 0, 10, 131, 0), 4u);
  EXPECT_EQ(idleRoundsBefore(100, 0, 10, 130, 0), 3u);
}

TEST(IdleRoundsBefore, NothingWhenTheNextRoundIsLater) {
  EXPECT_EQ(idleRoundsBefore(100, 3, 10, 99, 5), 0u);
  EXPECT_EQ(idleRoundsBefore(100, 3, 10, 99, 2), 0u);
  EXPECT_EQ(idleRoundsBefore(100, 3, 78, 0, 5), 0u);
}

TEST(IdleRoundsBefore, LongSleepsDoNotOverflow) {
  uint64_t H = uint64_t(1) << 62;
  EXPECT_EQ(idleRoundsBefore(0, 1, 78, H, 2), H / 78 + 1);
  EXPECT_EQ(idleRoundsBefore(0, 2, 78, H, 1), (H - 1) / 78 + 1);
}

//===----------------------------------------------------------------------===//
// Parity: sleeping (untraced) against one round at a time (traced)
//===----------------------------------------------------------------------===//

/// Everything virtual about an engine after its evals.
struct Fingerprint {
  std::vector<std::string> Results; ///< printed value or error, per eval
  std::vector<uint64_t> Elapsed;    ///< ElapsedCycles per eval
  EngineStats Stats;
  Gc::Stats GcStats;
  std::vector<std::vector<uint64_t>> Procs;
  std::vector<std::string> Telemetry;
  IdleSleepStats Sleep;
};

// Compared as raw words below, so neither may hold padding or floats.
static_assert(std::has_unique_object_representations_v<EngineStats>);
static_assert(std::has_unique_object_representations_v<Gc::Stats>);

template <typename T> std::vector<uint64_t> words(const T &V) {
  std::vector<uint64_t> W(sizeof(T) / sizeof(uint64_t));
  std::memcpy(W.data(), &V, sizeof(T));
  return W;
}

Fingerprint run(EngineConfig C, const std::vector<std::string> &Evals,
                bool Traced) {
  C.EnableTracing = Traced;
  C.TraceSink = Traced ? "ring:1" : "";
  Engine E(C);
  Fingerprint F;
  for (const std::string &Src : Evals) {
    EvalResult R = E.eval(Src);
    F.Results.push_back(R.ok() ? valueToString(R.Val)
                               : std::to_string(static_cast<int>(R.K)) + ": " +
                                     R.Error);
    F.Elapsed.push_back(E.stats().ElapsedCycles);
  }
  F.Stats = E.stats();
  F.GcStats = E.gcStats();
  Machine &M = E.machine();
  for (unsigned I = 0; I < M.numProcessors(); ++I) {
    const Processor &P = M.processor(I);
    F.Procs.push_back({P.Clock, P.BusyCycles, P.IdleCycles, P.GcCycles,
                       P.StealAttempts, P.StealsFailed, P.Steals,
                       P.StolenFrom, P.Dispatches, P.TasksStarted,
                       P.Instructions});
  }
  const Telemetry &T = E.telemetry();
  for (Telemetry::Id Id = 0; Id < T.size(); ++Id) {
    const Telemetry::Metric &Mt = T.metric(Id);
    std::string Row = Mt.Name + "{" + Mt.LabelValue + "}";
    if (Mt.K == Telemetry::Kind::Counter) {
      Row += " " + std::to_string(T.counterValue(Id));
    } else if (Mt.K == Telemetry::Kind::Histogram) {
      LatencyHistogram H = T.merged(Id);
      for (uint64_t V : {H.count(), H.sum(), H.min(), H.max(),
                         H.percentile(50), H.percentile(90),
                         H.percentile(99)})
        Row += " " + std::to_string(V);
    } else {
      continue; // gauges hold host-time figures
    }
    F.Telemetry.push_back(Row);
  }
  F.Sleep = M.idleSleepStats();
  return F;
}

/// Runs \p Evals sleeping and traced; expects identical virtual results
/// and returns the sleeping run's fingerprint.
Fingerprint expectParity(const EngineConfig &C,
                         const std::vector<std::string> &Evals) {
  Fingerprint Sleeping = run(C, Evals, /*Traced=*/false);
  Fingerprint Stepped = run(C, Evals, /*Traced=*/true);
  EXPECT_EQ(Sleeping.Results, Stepped.Results);
  EXPECT_EQ(Sleeping.Elapsed, Stepped.Elapsed);
  std::vector<uint64_t> SW = words(Sleeping.Stats), TW = words(Stepped.Stats);
  for (size_t I = 0; I < SW.size(); ++I)
    EXPECT_EQ(SW[I], TW[I]) << "EngineStats word " << I;
  EXPECT_EQ(words(Sleeping.GcStats), words(Stepped.GcStats));
  EXPECT_EQ(Sleeping.Procs, Stepped.Procs);
  EXPECT_EQ(Sleeping.Telemetry, Stepped.Telemetry);
  // The traced run plays every round.
  EXPECT_EQ(Stepped.Sleep.RoundsReplayed, 0u);
  return Sleeping;
}

double replayedFrac(const IdleSleepStats &S) {
  uint64_t All = S.RoundsRun + S.RoundsReplayed;
  return All ? static_cast<double>(S.RoundsReplayed) / All : 0.0;
}

const std::string LongLoop =
    "(let loop ((i 0)) (if (< i 1000000) (loop (+ i 1)) i))";

std::string kindPrefix(EvalResult::Kind K) {
  return std::to_string(static_cast<int>(K)) + ": ";
}

const std::string CompilerExpr =
    "(car (mc-compile-program (mc-gen-program 21 4) #t))";

class IdleSleepCompiler
    : public ::testing::TestWithParam<std::tuple<unsigned, StealOrder>> {};

TEST_P(IdleSleepCompiler, MatchesRoundByRound) {
  auto [Procs, Order] = GetParam();
  EngineConfig C = config(Procs);
  C.StealPolicy = Order;
  Fingerprint F = expectParity(C, {MiniCompilerSource, CompilerExpr});
  EXPECT_GT(F.Sleep.RoundsReplayed, 0u);
  if (Procs == 12) {
    // The parse and the serialised assembler keep all but one processor
    // idle: nearly every idle round is replayed, not stepped.
    EXPECT_GE(replayedFrac(F.Sleep), 0.99)
        << F.Sleep.RoundsRun << " run, " << F.Sleep.RoundsReplayed
        << " replayed";
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProcsAndOrders, IdleSleepCompiler,
    ::testing::Combine(::testing::Values(4u, 12u, 16u),
                       ::testing::Values(StealOrder::Lifo, StealOrder::Fifo)));

TEST(IdleSleepParity, BoyerCollectsWhileProcessorsSleep) {
  EngineConfig C = config(8);
  C.InlineThreshold = 1;
  C.HeapWords = size_t(1) << 18;
  Fingerprint F = expectParity(
      C, {BoyerCommonSource, BoyerParallelArgs, "(boyer-test 1)"});
  EXPECT_EQ(F.Results.back(), "#t");
  EXPECT_GE(F.GcStats.Collections, 1u);
  EXPECT_GT(F.Sleep.RoundsReplayed, 0u);
}

TEST(IdleSleepParity, SemaphoreWakesOntoASleepersQueue) {
  // Five philosophers on eight processors: a V re-homes a waiter onto the
  // suspended queue of a processor that may be asleep.
  const char *Philosophers = R"lisp(
    (begin
      (define n 5)
      (define forks (make-vector n 0))
      (define uses (make-vector n 0))
      (do ((i 0 (+ i 1))) ((= i n) #t)
        (vector-set! forks i (make-semaphore 1)))
      (define (dine who)
        (let ((li who) (ri (remainder (+ who 1) n)))
          (let ((first (vector-ref forks (if (even? who) li ri)))
                (second (vector-ref forks (if (even? who) ri li))))
            (let loop ((r 0))
              (if (= r 60)
                  'full
                  (begin
                    (semaphore-p first)
                    (semaphore-p second)
                    (vector-set! uses li (+ (vector-ref uses li) 1))
                    (let spin ((i 0)) (if (< i 40) (spin (+ i 1))))
                    (semaphore-v second)
                    (semaphore-v first)
                    (loop (+ r 1))))))))
      (define (spawn who)
        (if (= who n) '() (cons (future (dine who)) (spawn (+ who 1)))))
      (define (wait-all l)
        (if (null? l) 'done (begin (touch (car l)) (wait-all (cdr l)))))
      (wait-all (spawn 0))
      (vector-ref uses 0))
  )lisp";
  Fingerprint F = expectParity(config(8), {Philosophers});
  EXPECT_EQ(F.Results.back(), "60");
  EXPECT_GT(F.Sleep.RoundsReplayed, 0u);
}

TEST(IdleSleepParity, LazyFutureSeams) {
  EngineConfig C = config(4);
  C.LazyFutures = true;
  Fingerprint F = expectParity(
      C, {"(define (fib n) (if (< n 2) n (+ (future (fib (- n 1))) "
          "(fib (- n 2)))))",
          "(fib 16)",
          "(let loop ((i 0)) (if (< i 20000) (loop (+ i 1)) i))"});
  EXPECT_EQ(F.Results[1], "987");
  EXPECT_GT(F.Stats.SeamsCreated, 0u);
  EXPECT_GT(F.Sleep.RoundsReplayed, 0u);
}

TEST(IdleSleepParity, DeadlockReportsTheSameClock) {
  // The child computes while the other processors sleep, then blocks
  // forever: the last wake leads straight into the quiescence check.
  Fingerprint F = expectParity(
      config(4),
      {"(touch (future (let loop ((i 0)) (if (< i 5000) (loop (+ i 1)) "
       "(semaphore-p (make-semaphore))))))"});
  EXPECT_EQ(F.Results[0].rfind(kindPrefix(EvalResult::Kind::Deadlock) +
                                   "deadlock",
                               0),
            0u)
      << F.Results[0];
  EXPECT_EQ(F.Stats.DeadlocksDetected, 1u);
  EXPECT_GT(F.Sleep.RoundsReplayed, 0u);
}

TEST(IdleSleepParity, CycleLimitReportsTheSameClock) {
  // A long sequential loop keeps three processors asleep when the limit
  // hits. At 4 processors a failed round is 30 cycles long, so 30
  // consecutive limits land on every phase of the sleepers' rounds.
  for (uint64_t Limit = 100'000; Limit < 100'030; ++Limit) {
    EngineConfig C = config(4);
    C.MaxRunCycles = Limit;
    Fingerprint F = expectParity(C, {LongLoop});
    EXPECT_EQ(F.Results[0].rfind(kindPrefix(EvalResult::Kind::CycleLimit), 0),
              0u)
        << F.Results[0];
    EXPECT_GT(F.Elapsed[0], Limit);
    EXPECT_GT(F.Sleep.RoundsReplayed, 0u);
  }
}

TEST(IdleSleepParity, CycleBudgetWatchdogStopsAtTheSameClock) {
  for (uint64_t Budget : {50'000u, 50'017u}) {
    EngineConfig C = config(4);
    C.MaxCycles = Budget;
    Fingerprint F = expectParity(C, {LongLoop, "(+ 1 2)"});
    EXPECT_EQ(
        F.Results[0].rfind(kindPrefix(EvalResult::Kind::RuntimeError), 0), 0u)
        << F.Results[0];
    EXPECT_NE(F.Results[0].find("cycle-budget-exhausted"), std::string::npos);
    EXPECT_GT(F.Sleep.RoundsReplayed, 0u);
  }
}

} // namespace
