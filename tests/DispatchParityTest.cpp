//===----------------------------------------------------------------------===//
///
/// \file
/// Dispatch parity: the direct-threaded interpreter (vm/Threaded.h) must be
/// observationally identical to the portable switch interpreter — same
/// results, same virtual cycles, same instruction counts, same trace event
/// stream, same fault/race behavior. "Virtual cycles are sacred": the
/// threaded path buys host speed only; if any test here fails, a handler
/// body or a fused superinstruction has drifted from the switch semantics.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "obs/Trace.h"
#include "runtime/Printer.h"
#include "vm/Threaded.h"

#include <cstdlib>
#include <sstream>
#include <tuple>

using namespace mult;
using namespace mult::testutil;

namespace {

/// Everything observable about one engine run, comparable across
/// dispatchers with EXPECT_EQ.
struct RunFingerprint {
  std::string Result;       ///< printed value (or error text)
  uint64_t ElapsedCycles;   ///< virtual time of the run
  uint64_t Instructions;    ///< architectural instruction count
  uint64_t BusyCycles;      ///< busy cycles charged, all processors
  uint64_t IdleCycles;
  uint64_t TasksCreated;
  uint64_t FuturesResolved;
  uint64_t TouchesExecuted;
  uint64_t TouchesBlocked;
  uint64_t Steals;
  uint64_t StealAttempts;
  uint64_t Dispatches;
  uint64_t FaultsInjected;
  uint64_t Collections;     ///< GC runs
  uint64_t GcPauseCycles;   ///< total GC pause time
  std::string Trace;        ///< serialized event stream ("" if untraced)

  bool operator==(const RunFingerprint &O) const {
    return std::tie(Result, ElapsedCycles, Instructions, BusyCycles,
                    IdleCycles, TasksCreated, FuturesResolved,
                    TouchesExecuted, TouchesBlocked, Steals, StealAttempts,
                    Dispatches, FaultsInjected, Collections, GcPauseCycles,
                    Trace) ==
           std::tie(O.Result, O.ElapsedCycles, O.Instructions,
                    O.BusyCycles, O.IdleCycles, O.TasksCreated,
                    O.FuturesResolved, O.TouchesExecuted, O.TouchesBlocked,
                    O.Steals, O.StealAttempts, O.Dispatches,
                    O.FaultsInjected, O.Collections, O.GcPauseCycles,
                    O.Trace);
  }
};

void printDiff(std::ostream &OS, const RunFingerprint &A,
               const RunFingerprint &B) {
  auto Row = [&](const char *Name, auto X, auto Y) {
    if (!(X == Y))
      OS << "  " << Name << ": switch=" << X << " threaded=" << Y << "\n";
  };
  Row("result", A.Result, B.Result);
  Row("elapsed-cycles", A.ElapsedCycles, B.ElapsedCycles);
  Row("instructions", A.Instructions, B.Instructions);
  Row("busy-cycles", A.BusyCycles, B.BusyCycles);
  Row("idle-cycles", A.IdleCycles, B.IdleCycles);
  Row("tasks-created", A.TasksCreated, B.TasksCreated);
  Row("futures-resolved", A.FuturesResolved, B.FuturesResolved);
  Row("touches", A.TouchesExecuted, B.TouchesExecuted);
  Row("touches-blocked", A.TouchesBlocked, B.TouchesBlocked);
  Row("steals", A.Steals, B.Steals);
  Row("steal-attempts", A.StealAttempts, B.StealAttempts);
  Row("dispatches", A.Dispatches, B.Dispatches);
  Row("faults", A.FaultsInjected, B.FaultsInjected);
  Row("collections", A.Collections, B.Collections);
  Row("gc-pause", A.GcPauseCycles, B.GcPauseCycles);
  if (A.Trace != B.Trace)
    OS << "  trace streams differ (" << A.Trace.size() << " vs "
       << B.Trace.size() << " chars)\n";
}

std::string serializeTrace(const Tracer &Tr) {
  std::ostringstream OS;
  for (const TraceEvent &E : Tr.events())
    OS << unsigned(E.Proc) << ' ' << traceEventKindName(E.Kind) << ' '
       << E.Clock << ' ' << E.A << ' ' << E.B << ' ' << E.C << '\n';
  return OS.str();
}

struct RunOpts {
  unsigned Procs = 1;
  bool Trace = false;
  std::string Faults;
  bool RaceDetect = false;
  uint64_t HeapWords = 0; ///< 0 = default size
  std::vector<std::string> Prelude; ///< forms evaluated before the program
};

RunFingerprint runOnce(DispatchMode Mode, const std::string &Program,
                       const RunOpts &O) {
  EngineConfig C = config(O.Procs);
  C.Dispatch = Mode;
  C.EnableTracing = O.Trace;
  C.Faults = O.Faults;
  C.RaceDetect = O.RaceDetect;
  if (O.HeapWords)
    C.HeapWords = O.HeapWords;
  Engine E(C);
  for (const std::string &Form : O.Prelude)
    evalOk(E, Form);
  E.resetStats();
  EvalResult R = E.eval(Program);

  RunFingerprint F;
  F.Result = R.ok() ? valueToString(R.Val) : "ERROR: " + R.Error;
  const EngineStats &S = E.stats();
  F.ElapsedCycles = S.ElapsedCycles;
  F.Instructions = S.Instructions;
  F.BusyCycles = busyCycles(E);
  F.IdleCycles = S.IdleCycles;
  F.TasksCreated = S.TasksCreated;
  F.FuturesResolved = S.FuturesResolved;
  F.TouchesExecuted = S.TouchesExecuted;
  F.TouchesBlocked = S.TouchesBlocked;
  F.Steals = S.Steals;
  F.StealAttempts = S.StealAttempts;
  F.Dispatches = S.Dispatches;
  F.FaultsInjected = S.FaultsInjected;
  F.Collections = E.gcStats().Collections;
  F.GcPauseCycles = E.gcStats().TotalPauseCycles;
  if (O.Trace)
    F.Trace = serializeTrace(E.tracer());
  return F;
}

/// Runs \p Program under both dispatchers and expects identical
/// fingerprints. Skips (trivially passes) on builds without computed goto,
/// where only the switch path exists.
void expectParity(const std::string &Program, const RunOpts &O = {}) {
  RunFingerprint Sw = runOnce(DispatchMode::Switch, Program, O);
  RunFingerprint Th = runOnce(DispatchMode::Threaded, Program, O);
  if (!(Sw == Th)) {
    std::ostringstream OS;
    printDiff(OS, Sw, Th);
    ADD_FAILURE() << "dispatch parity broken (" << O.Procs
                  << " procs):\n" << OS.str();
  }
}

//===----------------------------------------------------------------------===//
// Mode selection plumbing.
//===----------------------------------------------------------------------===//

TEST(DispatchModeTest, ExplicitConfigWins) {
  EngineConfig C = config(1);
  C.Dispatch = DispatchMode::Switch;
  Engine E(C);
  EXPECT_FALSE(E.dispatchThreaded());
  EXPECT_STREQ(E.dispatchName(), "switch");
}

TEST(DispatchModeTest, EnvSelectsMode) {
  ::setenv("MULT_DISPATCH", "switch", 1);
  {
    Engine E(config(1));
    EXPECT_FALSE(E.dispatchThreaded());
  }
  ::setenv("MULT_DISPATCH", "threaded", 1);
  {
    Engine E(config(1));
    // True exactly when the build has computed goto.
    EXPECT_EQ(E.dispatchThreaded(), threadedLabels() != nullptr);
  }
  ::unsetenv("MULT_DISPATCH");
}

TEST(DispatchModeTest, ExplicitConfigBeatsEnv) {
  ::setenv("MULT_DISPATCH", "threaded", 1);
  EngineConfig C = config(1);
  C.Dispatch = DispatchMode::Switch;
  Engine E(C);
  EXPECT_FALSE(E.dispatchThreaded());
  ::unsetenv("MULT_DISPATCH");
}

//===----------------------------------------------------------------------===//
// Sequential parity: results + cycles + instruction counts.
//===----------------------------------------------------------------------===//

TEST(DispatchParityTest, ArithLoop) {
  // Dense fused-pair territory: Local/PushFixnum heads feeding arithmetic
  // and comparisons, with fixnum and non-fixnum (overflow) paths.
  expectParity(R"lisp(
    (let loop ((i 0) (acc 1))
      (if (= i 40) acc
          (loop (+ i 1) (+ (* acc 3) (- i 7)))))
  )lisp");
}

TEST(DispatchParityTest, OverflowToFlonumInFusedArith) {
  // The fused arithmetic fast path must bail to the generic handler when
  // the result leaves fixnum range; totals must not change.
  expectParity(R"lisp(
    (let loop ((i 0) (acc 1))
      (if (= i 80) acc (loop (+ i 1) (* acc 7))))
  )lisp");
}

TEST(DispatchParityTest, GlobalHeavyLoop) {
  // GlobalRef/GlobalSet inline caches: reads and writes of several
  // globals, plus redefinition mid-run.
  expectParity(R"lisp(
    (begin
      (define a 1) (define b 2) (define sum 0)
      (let loop ((i 0))
        (if (= i 100) sum
            (begin
              (set! sum (+ sum (+ a b)))
              (if (= i 50) (set! a 100) #f)
              (loop (+ i 1))))))
  )lisp");
}

TEST(DispatchParityTest, CallHeavyFib) {
  expectParity("(begin (define (fib n) (if (< n 2) n (+ (fib (- n 1)) "
               "(fib (- n 2))))) (fib 15))");
}

TEST(DispatchParityTest, PolymorphicCallSites) {
  // One call site fed closures that change identity every iteration: the
  // call IC misses forever, which must be invisible in virtual time.
  expectParity(R"lisp(
    (begin
      (define (apply-n f n acc)
        (if (= n 0) acc (apply-n f (- n 1) (f acc))))
      (define (make-adder k) (lambda (x) (+ x k)))
      (let loop ((i 0) (acc 0))
        (if (= i 30) acc
            (loop (+ i 1) (apply-n (make-adder i) 4 acc)))))
  )lisp");
}

TEST(DispatchParityTest, ErrorPathsIdentical) {
  expectParity("(car 5)");
  expectParity("(vector-ref (make-vector 3 0) 9)");
  expectParity("(+ 'a 1)");
  expectParity("((lambda (x) x) 1 2)");
}

TEST(DispatchParityTest, DataStructuresAndVectors) {
  expectParity(R"lisp(
    (begin
      (define v (make-vector 20 0))
      (let fill ((i 0))
        (if (= i 20) #t (begin (vector-set! v i (* i i)) (fill (+ i 1)))))
      (let sum ((i 0) (acc '()))
        (if (= i 20) (length acc)
            (sum (+ i 1) (cons (vector-ref v i) acc)))))
  )lisp");
}

//===----------------------------------------------------------------------===//
// Parallel parity: 1/4/16 processors, traces compared event-for-event.
//===----------------------------------------------------------------------===//

const char *ParallelFutures = R"lisp(
  (define (spawn n)
    (if (= n 0) '()
        (cons (future (let loop ((i 0))
                        (if (= i 300) (* n n) (loop (+ i 1)))))
              (spawn (- n 1)))))
  (define (drain l acc)
    (if (null? l) acc (drain (cdr l) (+ acc (touch (car l))))))
  (drain (spawn 24) 0)
)lisp";

class DispatchParityProcsTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DispatchParityProcsTest, ParallelFuturesTraced) {
  RunOpts O;
  O.Procs = GetParam();
  O.Trace = true;
  expectParity(ParallelFutures, O);
}

TEST_P(DispatchParityProcsTest, GcUnderLoadTraced) {
  RunOpts O;
  O.Procs = GetParam();
  O.Trace = true;
  O.HeapWords = 1 << 16; // small heap: several collections mid-run
  expectParity(R"lisp(
    (begin
      (define (build n) (if (= n 0) '() (cons n (build (- n 1)))))
      (define (churn k acc)
        (if (= k 0) acc (churn (- k 1) (+ acc (length (build 500))))))
      (define (spawn n)
        (if (= n 0) '() (cons (future (churn 4 0)) (spawn (- n 1)))))
      (define (drain l acc)
        (if (null? l) acc (drain (cdr l) (+ acc (touch (car l))))))
      (drain (spawn 8) 0))
  )lisp", O);
}

INSTANTIATE_TEST_SUITE_P(Procs, DispatchParityProcsTest,
                         ::testing::Values(1u, 4u, 16u));

//===----------------------------------------------------------------------===//
// Inline caches across GC: forced collections between global accesses and
// closure calls pin the weak-cache remap (Engine::remapWeakCaches).
//===----------------------------------------------------------------------===//

TEST(DispatchParityTest, ForcedGcBetweenGlobalAccesses) {
  // gc-at fires collections at fixed virtual times while the loop is
  // reading/writing globals and calling a heap-allocated closure through
  // a warmed call IC. After each collection the closure has moved: a stale
  // IC would either crash or silently call dead code; the remap keeps the
  // hit path and the golden cycles intact.
  RunOpts O;
  O.Faults = "gc-at=2000,6000,12000";
  O.Prelude = {"(define counter 0)",
               "(define bump (let ((k 3)) (lambda (x) (+ x k))))"};
  expectParity(R"lisp(
    (let loop ((i 0))
      (if (= i 200) counter
          (begin (set! counter (bump counter)) (loop (+ i 1)))))
  )lisp", O);
}

TEST(DispatchParityTest, ForcedGcCorrectResultThreaded) {
  // Same shape, asserting the actual value under the threaded path (not
  // just parity): the IC must still reach the *moved* closure.
  RunOpts O;
  O.Faults = "gc-at=2000,6000,12000";
  O.Prelude = {"(define counter 0)",
               "(define bump (let ((k 3)) (lambda (x) (+ x k))))"};
  RunFingerprint F = runOnce(DispatchMode::Threaded, R"lisp(
    (let loop ((i 0))
      (if (= i 200) counter
          (begin (set! counter (bump counter)) (loop (+ i 1)))))
  )lisp", O);
  EXPECT_EQ(F.Result, "600");
  EXPECT_GE(F.FaultsInjected, 1u);
}

TEST(DispatchParityTest, AllocFaultPlanParity) {
  RunOpts O;
  O.Procs = 4;
  O.Faults = "seed=11; steal-fail=0.3; stall=1@5000+400";
  O.Trace = true;
  expectParity(ParallelFutures, O);
}

//===----------------------------------------------------------------------===//
// Race detector parity: the detector consumes the trace stream, so a
// racy program must produce the identical verdict under both dispatchers.
//===----------------------------------------------------------------------===//

TEST(DispatchParityTest, RaceDetectorSameVerdict) {
  RunOpts O;
  O.Procs = 4;
  O.RaceDetect = true;
  O.Trace = true;
  // Two tasks racing on one global through set!; nondeterministic in a
  // real machine, deterministic here — and identical across dispatchers.
  expectParity(R"lisp(
    (begin
      (define shared 0)
      (define (bump n)
        (let loop ((i 0))
          (if (= i n) shared
              (begin (set! shared (+ shared 1)) (loop (+ i 1))))))
      (let ((a (future (bump 50))) (b (future (bump 50))))
        (+ (touch a) (touch b))))
  )lisp", O);
}

} // namespace
