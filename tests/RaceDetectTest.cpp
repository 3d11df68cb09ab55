//===----------------------------------------------------------------------===//
///
/// \file
/// Determinacy-race detection over the trace stream: racy programs must
/// be flagged with both access sites named, synchronized programs (touch
/// ordering, semaphore P/V pairs) must come out clean, the detector must
/// not perturb virtual time, and the ring-sink drop accounting that
/// guards offline analysis must balance. See DESIGN.md "Determinacy
/// races and the series-parallel relation".
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/RaceDetect.h"
#include "obs/Metrics.h"
#include "support/StrUtil.h"

#include <string>

using namespace mult;
using namespace mult::testutil;

namespace {

/// Eager-spawning config (a huge inline threshold keeps every future a
/// real task; load-based inlining would serialize the racy accesses and
/// hide the race) with the detector armed.
EngineConfig raceConfig(unsigned Procs) {
  EngineConfig C = config(Procs);
  C.InlineThreshold = 1'000'000;
  C.RaceDetect = true;
  return C;
}

/// Two future children both set! the same closed-over variable with no
/// ordering between them.
const char *const RacyWrites = R"lisp(
  (begin
    (define (racy)
      (let ((x 0))
        (let ((f (future (set! x 1)))
              (g (future (set! x 2))))
          (touch f) (touch g) x)))
    (racy))
)lisp";

/// The parent reads the cell in parallel with the child's write; the
/// touch comes too late to order them.
const char *const RacyReadWrite = R"lisp(
  (begin
    (define vv (make-vector 1 0))
    (define (racy)
      (let ((f (future (vector-set! vv 0 1))))
        (let ((seen (vector-ref vv 0)))
          (touch f)
          seen)))
    (racy))
)lisp";

/// Fully touch-ordered: the parent only reads after the child resolved.
const char *const TouchOrdered = R"lisp(
  (begin
    (define vv (make-vector 1 0))
    (define (ok)
      (let ((f (future (vector-set! vv 0 1))))
        (touch f)
        (vector-set! vv 0 2)
        (vector-ref vv 0)))
    (ok))
)lisp";

/// Builds the dining-philosophers program with per-fork use counters
/// written inside the critical section. Fork k's counter is written by
/// the two neighbours that share fork k, always while holding it, so the
/// semaphore happens-before edges make the program race-free. With
/// \p DropPV, philosopher 0 skips the P/V pair on its second fork but
/// still bumps that fork's counter — exactly one pair removed, and the
/// counter write races with the neighbour's protected write.
std::string philosophers(bool DropPV) {
  const char *P2 = DropPV ? "(if (> who 0) (semaphore-p second) #t)"
                          : "(semaphore-p second)";
  const char *V2 = DropPV ? "(if (> who 0) (semaphore-v second) #t)"
                          : "(semaphore-v second)";
  return strFormat(R"lisp(
   (begin
    (define n 5)
    (define rounds 3)
    (define forks (make-vector n 0))
    (define uses (make-vector n 0))
    (do ((i 0 (+ i 1))) ((= i n) #t)
      (vector-set! forks i (make-semaphore 1)))
    (define (dine who)
      (let ((li who) (ri (remainder (+ who 1) n)))
        (let ((fi (if (even? who) li ri))
              (si (if (even? who) ri li)))
          (let ((first (vector-ref forks fi))
                (second (vector-ref forks si)))
            (let loop ((r 0))
              (if (= r rounds)
                  'full
                  (begin
                    (semaphore-p first)
                    %s
                    (vector-set! uses li (+ (vector-ref uses li) 1))
                    (vector-set! uses ri (+ (vector-ref uses ri) 1))
                    %s
                    (semaphore-v first)
                    (loop (+ r 1)))))))))
    (define (spawn who)
      (if (= who n) '() (cons (future (dine who)) (spawn (+ who 1)))))
    (define (wait-all l)
      (if (null? l) 'done (begin (touch (car l)) (wait-all (cdr l)))))
    (wait-all (spawn 0))
    (vector-ref uses 0))
  )lisp",
                   P2, V2);
}

} // namespace

TEST(RaceDetectTest, RacyFutureWritesAreFlaggedWithBothSites) {
  Engine E(raceConfig(4));
  evalFixnum(E, RacyWrites);
  const RaceDetector *D = E.raceDetector();
  ASSERT_NE(D, nullptr);
  ASSERT_GE(D->raceCount(), 1u) << "unordered sibling writes must race";
  const RaceDetector::Race &R = D->races().front();
  EXPECT_TRUE(R.Prior.Write && R.Current.Write);
  EXPECT_NE(R.Prior.Task, R.Current.Task);
  std::string Report = D->describe(R, E.tracer().siteNames());
  // Both accesses must carry future-site provenance ("spawned at ...").
  size_t First = Report.find("spawned at");
  ASSERT_NE(First, std::string::npos) << Report;
  EXPECT_NE(Report.find("spawned at", First + 1), std::string::npos)
      << Report;
}

TEST(RaceDetectTest, ParallelReadAgainstWriteIsFlagged) {
  Engine E(raceConfig(4));
  evalOk(E, RacyReadWrite);
  const RaceDetector *D = E.raceDetector();
  ASSERT_NE(D, nullptr);
  ASSERT_GE(D->raceCount(), 1u);
  const RaceDetector::Race &R = D->races().front();
  EXPECT_TRUE(R.Prior.Write != R.Current.Write)
      << "one side is the child write, the other the parent read";
}

TEST(RaceDetectTest, TouchOrderingIsRaceFree) {
  Engine E(raceConfig(4));
  EXPECT_EQ(evalFixnum(E, TouchOrdered), 2);
  ASSERT_NE(E.raceDetector(), nullptr);
  EXPECT_EQ(E.raceDetector()->raceCount(), 0u)
      << "touch is a series edge; no parallel accesses remain";
  EXPECT_GT(E.raceDetector()->accessesChecked(), 0u)
      << "the program does access tracked cells";
}

TEST(RaceDetectTest, DistinctVectorSlotsDoNotRace) {
  Engine E(raceConfig(4));
  evalOk(E, R"lisp(
    (begin
      (define vv (make-vector 2 0))
      (let ((f (future (vector-set! vv 0 1)))
            (g (future (vector-set! vv 1 2))))
        (touch f) (touch g)))
  )lisp");
  ASSERT_NE(E.raceDetector(), nullptr);
  EXPECT_EQ(E.raceDetector()->raceCount(), 0u)
      << "slot granularity: parallel writes to different indices are fine";
}

TEST(RaceDetectTest, SemaphoreProtectedCounterIsRaceFree) {
  Engine E(raceConfig(4));
  EXPECT_EQ(evalFixnum(E, R"lisp(
    (begin
      (define s (make-semaphore 1))
      (define vv (make-vector 1 0))
      (define (bump)
        (semaphore-p s)
        (vector-set! vv 0 (+ (vector-ref vv 0) 1))
        (semaphore-v s))
      (let ((f (future (bump))) (g (future (bump))))
        (touch f) (touch g) (vector-ref vv 0)))
  )lisp"),
            2);
  ASSERT_NE(E.raceDetector(), nullptr);
  EXPECT_EQ(E.raceDetector()->raceCount(), 0u)
      << "P/V pairs must contribute happens-before cross-edges";
}

TEST(RaceDetectTest, SameCounterWithoutSemaphoreIsFlagged) {
  Engine E(raceConfig(4));
  evalOk(E, R"lisp(
    (begin
      (define vv (make-vector 1 0))
      (define (bump) (vector-set! vv 0 (+ (vector-ref vv 0) 1)))
      (let ((f (future (bump))) (g (future (bump))))
        (touch f) (touch g) (vector-ref vv 0)))
  )lisp");
  ASSERT_NE(E.raceDetector(), nullptr);
  EXPECT_GE(E.raceDetector()->raceCount(), 1u);
}

TEST(RaceDetectTest, FluidDefaultBoxRaces) {
  // Two tasks set! the same fluid with no task-local binding in scope:
  // both hit the shared global default box.
  Engine E(raceConfig(4));
  evalOk(E, R"lisp(
    (begin
      (define-fluid *mode* 0)
      (let ((f (future (set-fluid! *mode* 1)))
            (g (future (set-fluid! *mode* 2))))
        (touch f) (touch g)))
  )lisp");
  ASSERT_NE(E.raceDetector(), nullptr);
  EXPECT_GE(E.raceDetector()->raceCount(), 1u)
      << "dynamic-env mutation of the shared default must be tracked";
}

TEST(RaceDetectTest, TaskLocalFluidBindingsDoNotRace) {
  Engine E(raceConfig(4));
  evalOk(E, R"lisp(
    (begin
      (define-fluid *mode* 0)
      (let ((f (future (bind ((*mode* 1)) (set-fluid! *mode* 5))))
            (g (future (bind ((*mode* 2)) (set-fluid! *mode* 6)))))
        (touch f) (touch g)))
  )lisp");
  ASSERT_NE(E.raceDetector(), nullptr);
  EXPECT_EQ(E.raceDetector()->raceCount(), 0u)
      << "bind gives each task its own box; deep binding isolates them";
}

// --- Satellite 4: dining philosophers under semaphore happens-before ----

class RaceDetectStealOrderTest
    : public ::testing::TestWithParam<StealOrder> {};

TEST_P(RaceDetectStealOrderTest, DiningPhilosophersRaceFree) {
  EngineConfig C = raceConfig(4);
  C.StealPolicy = GetParam();
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, philosophers(/*DropPV=*/false)), 6)
      << "fork 0 is used by its two neighbours, 3 rounds each";
  ASSERT_NE(E.raceDetector(), nullptr);
  EXPECT_EQ(E.raceDetector()->raceCount(), 0u)
      << "every counter write holds the fork that guards it";
  EXPECT_GT(E.raceDetector()->accessesChecked(), 0u);
}

TEST_P(RaceDetectStealOrderTest, PhilosophersMissingOnePVPairFlagged) {
  EngineConfig C = raceConfig(4);
  C.StealPolicy = GetParam();
  Engine E(C);
  evalFixnum(E, philosophers(/*DropPV=*/true));
  ASSERT_NE(E.raceDetector(), nullptr);
  EXPECT_GE(E.raceDetector()->raceCount(), 1u)
      << "philosopher 0 bumps a fork counter without holding the fork";
}

INSTANTIATE_TEST_SUITE_P(StealOrders, RaceDetectStealOrderTest,
                         ::testing::Values(StealOrder::Lifo,
                                           StealOrder::Fifo),
                         [](const auto &Info) {
                           return Info.param == StealOrder::Lifo ? "Lifo"
                                                                 : "Fifo";
                         });

// --- Virtual-time invariance -------------------------------------------

TEST(RaceDetectTest, DetectorDoesNotPerturbVirtualTime) {
  // Same program, detector off vs on: recording costs zero virtual time,
  // so cycle counts must match bit for bit (this is what lets CI assert
  // golden cycles under MULT_RACE=1).
  EngineConfig Off = config(4);
  Off.InlineThreshold = 1'000'000;
  Engine EOff(Off);
  int64_t ROff = evalFixnum(EOff, RacyWrites);

  Engine EOn(raceConfig(4));
  int64_t ROn = evalFixnum(EOn, RacyWrites);

  EXPECT_EQ(ROff, ROn);
  EXPECT_EQ(EOff.stats().ElapsedCycles, EOn.stats().ElapsedCycles);
  EXPECT_EQ(busyCycles(EOff), busyCycles(EOn));
  EXPECT_EQ(EOff.stats().Dispatches, EOn.stats().Dispatches);
}

TEST(RaceDetectTest, StatsReportCarriesRaceCounters) {
  Engine E(raceConfig(4));
  evalFixnum(E, RacyWrites);
  const RaceDetector &RD = *E.raceDetector();
  EXPECT_GE(RD.raceCount(), 1u);
  EXPECT_GT(RD.accessesChecked(), 0u);
  EXPECT_GE(RD.cellsTracked(), 1u);
  std::string Text;
  StringOutStream OS(Text);
  dumpMetrics(OS, E);
  EXPECT_NE(Text.find(strFormat(
                "races: %llu (%llu accesses checked, %llu cells tracked)\n",
                static_cast<unsigned long long>(RD.raceCount()),
                static_cast<unsigned long long>(RD.accessesChecked()),
                static_cast<unsigned long long>(RD.cellsTracked()))),
            std::string::npos)
      << Text;

  Engine Plain(config(4));
  evalFixnum(Plain, RacyWrites);
  std::string PlainText;
  StringOutStream PlainOS(PlainText);
  dumpMetrics(PlainOS, Plain);
  EXPECT_EQ(PlainText.find("races:"), std::string::npos)
      << "no detector, no races line";
}

TEST(RaceDetectTest, ResetStatsClearsTheDetector) {
  Engine E(raceConfig(4));
  evalFixnum(E, RacyWrites);
  ASSERT_GE(E.raceDetector()->raceCount(), 1u);
  E.resetStats();
  EXPECT_EQ(E.raceDetector()->raceCount(), 0u);
  EXPECT_EQ(E.raceDetector()->accessesChecked(), 0u);
}

// --- Satellite 1: ring-sink drop accounting and offline refusal --------

TEST(RaceDetectTest, RingSinkDropAccountingBalances) {
  // Small ring: most events are overwritten, but every emission must be
  // accounted for: recorded + dropped == emitted, at every ring size.
  for (size_t Cap : {16u, 64u, 256u}) {
    EngineConfig C = config(4);
    C.InlineThreshold = 1'000'000;
    C.EnableTracing = true;
    C.TraceSink = strFormat("ring:%zu", Cap);
    Engine E(C);
    EXPECT_EQ(evalFixnum(E, R"lisp(
      (begin
        (define (fib n)
          (if (< n 2) n
              (+ (touch (future (fib (- n 1)))) (fib (- n 2)))))
        (fib 10))
    )lisp"),
              55);
    const Tracer &Tr = E.tracer();
    EXPECT_GT(Tr.dropped(), 0u) << "the run must overflow a ring of "
                                << Cap;
    EXPECT_EQ(Tr.size() + Tr.dropped(), Tr.emitted())
        << "drop accounting leak at ring size " << Cap;
  }
}

TEST(RaceDetectTest, OfflineAnalysisRefusesTruncatedRingTrace) {
  EngineConfig C = config(4);
  C.InlineThreshold = 1'000'000;
  C.EnableTracing = true;
  C.TraceSink = "ring:16";
  Engine E(C);
  evalFixnum(E, RacyWrites);
  ASSERT_GT(E.tracer().dropped(), 0u);

  RaceDetector D;
  std::string Err;
  EXPECT_FALSE(analyzeRaces(E.tracer().events(), E.tracer().dropped(), D,
                            Err));
  EXPECT_NE(Err.find("dropped"), std::string::npos) << Err;
  EXPECT_NE(Err.find("incomplete"), std::string::npos)
      << "the refusal must say why the verdict would be unreliable: "
      << Err;
}

TEST(RaceDetectTest, OnlineDetectorIsCompleteOverARingSink) {
  // The observer sees events before sink buffering, so a tiny ring does
  // not cost it any DAG edges: the race is still found.
  EngineConfig C = raceConfig(4);
  C.EnableTracing = true;
  C.TraceSink = "ring:16";
  Engine E(C);
  evalFixnum(E, RacyWrites);
  ASSERT_GT(E.tracer().dropped(), 0u) << "the ring must actually truncate";
  EXPECT_GE(E.raceDetector()->raceCount(), 1u)
      << "online detection must be immune to ring drops";
}

TEST(RaceDetectTest, OfflineAnalysisMatchesOnlineOverFullTrace) {
  Engine E(raceConfig(4));
  evalFixnum(E, RacyWrites);
  ASSERT_EQ(E.tracer().dropped(), 0u);

  RaceDetector D;
  std::string Err;
  ASSERT_TRUE(
      analyzeRaces(E.tracer().events(), E.tracer().dropped(), D, Err))
      << Err;
  EXPECT_EQ(D.raceCount(), E.raceDetector()->raceCount());
  EXPECT_EQ(D.accessesChecked(), E.raceDetector()->accessesChecked());
}
