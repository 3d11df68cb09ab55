//===----------------------------------------------------------------------===//
///
/// \file
/// Checkpointed recovery: a deterministic virtual-time checkpoint policy
/// (EngineConfig::CheckpointEvery) snapshots resumable task state so a
/// proc-kill restarts lost futures from their newest capture instead of
/// from spawn, bounding the re-executed work to CheckpointEvery + one
/// quantum per task. See DESIGN.md "Checkpointed recovery".
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "fault/FaultPlan.h"
#include "obs/Metrics.h"
#include "support/StrUtil.h"
#include "ui/Repl.h"

#include <cstdlib>

using namespace mult;
using namespace mult::testutil;

namespace mult {
void dumpStats(OutStream &OS, const EngineStats &S); // core/Stats.cpp
} // namespace mult

namespace {

/// Eager-spawn workers, each a seam-free tail loop long enough to cross
/// many quantum boundaries: the workload the capture policy is built
/// for (every TimeSlice is capture-eligible). Returns workers * 20000.
const char *const WorkersTemplate = R"lisp(
  (begin
    (define (work n acc)
      (if (= n 0) acc (work (- n 1) (+ acc 1))))
    (define (spawn k)
      (if (= k 0) '() (cons (future (work 20000 0)) (spawn (- k 1)))))
    (define (wait l acc)
      (if (null? l) acc (wait (cdr l) (+ acc (touch (car l))))))
    (wait (spawn %d) 0))
)lisp";

EngineConfig ckptConfig(unsigned Procs, std::string Spec,
                        uint64_t Every = 2000) {
  EngineConfig C = config(Procs);
  C.Faults = std::move(Spec);
  C.CheckpointEvery = Every;
  C.InlineThreshold = 1'000'000; // eager: every worker a real task
  return C;
}

/// Cycle-tiling invariant, dead processors included (see RecoveryTest).
void checkInvariants(Engine &E) {
  for (unsigned I = 0; I < E.machine().numProcessors(); ++I) {
    const Processor &P = E.machine().processor(I);
    EXPECT_EQ(P.ClockAtReset + P.BusyCycles + P.IdleCycles + P.GcCycles,
              P.Clock)
        << "cycle accounting leak on processor " << I
        << (P.Dead ? " (dead)" : "");
  }
}

//===----------------------------------------------------------------------===//
// Capture policy
//===----------------------------------------------------------------------===//

TEST(CheckpointTest, CapturesFireAtTheConfiguredInterval) {
  Engine E(ckptConfig(4, ""));
  EXPECT_EQ(evalFixnum(E, strFormat(WorkersTemplate, 8)), 160000);
  const EngineStats &S = E.stats();
  EXPECT_GT(S.CheckpointsTaken, 0u)
      << "seam-free workers crossing quanta must be captured";
  EXPECT_GT(S.CheckpointCycles, 0u) << "captures are not free";
  // The per-processor counters tile the machine-wide one.
  uint64_t PerProc = 0;
  for (unsigned I = 0; I < 4; ++I)
    PerProc += E.machine().processor(I).CheckpointsTaken;
  EXPECT_EQ(PerProc, S.CheckpointsTaken);
  checkInvariants(E);
}

TEST(CheckpointTest, DormantPolicyLeavesNoFootprint) {
  // CheckpointEvery = 0 (the default): no captures, no new stats lines,
  // and the metrics report renders bit-identically to the pre-checkpoint
  // format (the golden-metrics guarantee).
  EngineConfig C = config(4);
  C.InlineThreshold = 1'000'000;
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, strFormat(WorkersTemplate, 8)), 160000);
  EXPECT_EQ(E.stats().CheckpointsTaken, 0u);
  EXPECT_EQ(E.stats().CheckpointCycles, 0u);
  std::string Dump;
  StringOutStream OS(Dump);
  dumpStats(OS, E.stats());
  dumpMetrics(OS, buildMetrics(E.machine(), E.stats(), E.gcStats(),
                               E.tracer(), nullptr, nullptr,
                               E.config().CheckpointEvery));
  EXPECT_EQ(Dump.find("checkpoints:"), std::string::npos) << Dump;
  EXPECT_EQ(Dump.find("recovery-bound:"), std::string::npos) << Dump;
}

TEST(CheckpointTest, MultCheckpointEnvArmsThePolicy) {
  setenv("MULT_CHECKPOINT", "2000", 1);
  EngineConfig C = config(2);
  C.InlineThreshold = 1'000'000;
  Engine E(C);
  unsetenv("MULT_CHECKPOINT");
  EXPECT_EQ(E.config().CheckpointEvery, 2000u);
  EXPECT_EQ(evalFixnum(E, strFormat(WorkersTemplate, 4)), 80000);
  EXPECT_GT(E.stats().CheckpointsTaken, 0u);
}

TEST(CheckpointTest, CaptureTranscriptIsDeterministic) {
  // Same config, fresh engines, 1/4/16 processors: bit-identical stats
  // dump (CheckpointCycles included), metrics report, and event trace.
  for (unsigned Procs : {1u, 4u, 16u}) {
    auto Run = [Procs](std::string &Out, std::vector<TraceEvent> &Events) {
      EngineConfig C = ckptConfig(Procs, "");
      C.EnableTracing = true;
      Engine E(C);
      EXPECT_EQ(evalFixnum(E, strFormat(WorkersTemplate, 8)), 160000);
      StringOutStream OS(Out);
      dumpStats(OS, E.stats());
      dumpMetrics(OS, buildMetrics(E.machine(), E.stats(), E.gcStats(),
                                   E.tracer(), nullptr, nullptr,
                                   E.config().CheckpointEvery));
      Events.assign(E.tracer().events().begin(), E.tracer().events().end());
    };
    std::string A, B;
    std::vector<TraceEvent> EvA, EvB;
    Run(A, EvA);
    Run(B, EvB);
    EXPECT_EQ(A, B) << "at " << Procs << " procs";
    EXPECT_NE(A.find("checkpoints:"), std::string::npos) << A;
    ASSERT_EQ(EvA.size(), EvB.size()) << "at " << Procs << " procs";
    for (size_t I = 0; I < EvA.size(); ++I)
      ASSERT_TRUE(EvA[I].Kind == EvB[I].Kind && EvA[I].Proc == EvB[I].Proc &&
                  EvA[I].Clock == EvB[I].Clock && EvA[I].A == EvB[I].A &&
                  EvA[I].B == EvB[I].B && EvA[I].C == EvB[I].C)
          << "trace diverges at event " << I << " (" << Procs << " procs)";
  }
}

//===----------------------------------------------------------------------===//
// Checkpointed recovery
//===----------------------------------------------------------------------===//

TEST(CheckpointTest, KilledTasksRestartFromTheirNewestCheckpoint) {
  Engine E(ckptConfig(4, "proc-kill=1@50000"));
  EXPECT_EQ(evalFixnum(E, strFormat(WorkersTemplate, 8)), 160000)
      << "restored tasks must still produce the right answer";
  const EngineStats &S = E.stats();
  EXPECT_EQ(S.ProcsKilled, 1u);
  EXPECT_GE(S.TasksRestored, 1u)
      << "the kill lands mid-worker; its checkpoint must be used";
  EXPECT_GT(S.RecoveryCycles, 0u)
      << "the capture-to-kill delta is re-executed work";
  checkInvariants(E);
}

TEST(CheckpointTest, RecoveryCyclesAreBoundedByTheCaptureInterval) {
  // The tentpole invariant: a restored task re-executes at most the work
  // since its newest capture, and the policy captures within one quantum
  // of every CheckpointEvery busy cycles.
  EngineConfig C = ckptConfig(4, "proc-kill=1@50000");
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, strFormat(WorkersTemplate, 8)), 160000);
  const EngineStats &S = E.stats();
  ASSERT_GE(S.TasksRestored, 1u);
  EXPECT_LE(S.MaxTaskRecoveryCycles, C.CheckpointEvery + C.QuantumCycles)
      << "a restored task re-executed more than one capture interval";
  // And the metrics report proves it in one line.
  std::string Dump;
  StringOutStream OS(Dump);
  dumpMetrics(OS, buildMetrics(E.machine(), E.stats(), E.gcStats(),
                               E.tracer(), nullptr, nullptr,
                               E.config().CheckpointEvery));
  EXPECT_NE(Dump.find("recovery-bound:"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("(OK)"), std::string::npos) << Dump;
  EXPECT_EQ(Dump.find("VIOLATED"), std::string::npos) << Dump;
}

TEST(CheckpointTest, RestoreIsCheaperThanSpawnReplay) {
  // Same kill without checkpoints: every lost worker re-runs from spawn,
  // so the recovery bucket must shrink when captures are armed.
  EngineConfig Base = ckptConfig(4, "proc-kill=1@50000", /*Every=*/0);
  Engine EBase(Base);
  EXPECT_EQ(evalFixnum(EBase, strFormat(WorkersTemplate, 8)), 160000);
  ASSERT_GE(EBase.stats().TasksRecovered, 1u);
  ASSERT_GT(EBase.stats().RecoveryCycles, 0u);

  Engine ECkpt(ckptConfig(4, "proc-kill=1@50000"));
  EXPECT_EQ(evalFixnum(ECkpt, strFormat(WorkersTemplate, 8)), 160000);
  ASSERT_GE(ECkpt.stats().TasksRestored, 1u);
  EXPECT_LT(ECkpt.stats().RecoveryCycles, EBase.stats().RecoveryCycles)
      << "restoring from a checkpoint must beat re-running from spawn";
}

TEST(CheckpointTest, RestoredTasksAreAnnouncedInTheTrace) {
  EngineConfig C = ckptConfig(4, "proc-kill=1@50000");
  C.EnableTracing = true;
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, strFormat(WorkersTemplate, 8)), 160000);
  uint64_t Captured = 0, Restored = 0;
  for (const TraceEvent &Ev : E.tracer().events()) {
    if (Ev.Kind == TraceEventKind::CheckpointTaken) {
      ++Captured;
      EXPECT_GT(Ev.B, 0u) << "payload B is the capture cost";
    } else if (Ev.Kind == TraceEventKind::TaskRestored) {
      ++Restored;
      EXPECT_NE(Ev.B, 1u) << "payload B (new home) must be a survivor";
      EXPECT_EQ(Ev.C, 1u) << "payload C is the dead processor";
    }
  }
  EXPECT_EQ(Captured, E.stats().CheckpointsTaken);
  EXPECT_EQ(Restored, E.stats().TasksRestored);
}

TEST(CheckpointTest, SecondKillWhileTheFirstRespawnDrainsIsSurvived) {
  // Overlapping fail-stops: the second victim is exactly the survivor
  // that inherited the first victim's restored tasks, and dies one
  // quantum later — before that backlog has drained. Its queues (the
  // inherited tasks included) must be recovered a second time onto the
  // remaining survivors.
  for (const char *Spec :
       {"proc-kill=1@30000,2@30064", "proc-kill=1@30000,2@30000"}) {
    Engine E(ckptConfig(4, Spec));
    EXPECT_EQ(evalFixnum(E, strFormat(WorkersTemplate, 8)), 160000)
        << "spec " << Spec;
    const EngineStats &S = E.stats();
    EXPECT_EQ(S.ProcsKilled, 2u) << "spec " << Spec;
    EXPECT_TRUE(E.machine().processor(1).Dead);
    EXPECT_TRUE(E.machine().processor(2).Dead);
    checkInvariants(E);
    EXPECT_EQ(evalFixnum(E, "(* 6 7)"), 42)
        << "the machine must keep working on the remaining survivors";
  }
}

TEST(CheckpointTest, EpochMismatchFallsBackToSpawnReplay) {
  // Semaphore traffic bumps the side-effect epoch after every capture
  // that precedes a P/V, so stale records must not be restored across an
  // observable effect; the dining philosophers from RecoveryTest stress
  // exactly that. The run must still complete correctly — via restore
  // where the epoch matches, lineage replay or redirection elsewhere.
  const char *Philosophers = R"lisp(
    (begin
      (define n 5)
      (define rounds 200)
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
                      (semaphore-p second)
                      (vector-set! uses li (+ (vector-ref uses li) 1))
                      (vector-set! uses ri (+ (vector-ref uses ri) 1))
                      (semaphore-v second)
                      (semaphore-v first)
                      (loop (+ r 1)))))))))
      (define (spawn who)
        (if (= who n) '() (cons (future (dine who)) (spawn (+ who 1)))))
      (define (wait-all l)
        (if (null? l) 'done (begin (touch (car l)) (wait-all (cdr l)))))
      (wait-all (spawn 0))
      (vector-ref uses 0))
  )lisp";
  Engine E(ckptConfig(4, "proc-kill=1@20000", /*Every=*/500));
  EXPECT_EQ(evalFixnum(E, Philosophers), 400);
  EXPECT_EQ(E.stats().ProcsKilled, 1u);
  checkInvariants(E);
}

//===----------------------------------------------------------------------===//
// Kill inside a GC copy phase
//===----------------------------------------------------------------------===//

TEST(CheckpointTest, KillInsideACollectionIsCompletedBySurvivors) {
  // gc-at forces a collection at mark 30000; the kill mark lands just
  // past the rendezvous cost, i.e. *inside* the collection. The victim's
  // root scan is forced (its current task must be evacuated so it can be
  // recovered), a survivor inherits its private copy stack, and the
  // machine-level fail-stop runs after the collection commits.
  EngineConfig C = ckptConfig(4, "gc-at=30000; proc-kill=1@30200");
  C.EnableTracing = true;
  Engine E(C);
  EXPECT_EQ(evalFixnum(E, strFormat(WorkersTemplate, 8)), 160000)
      << "the half-copied heap must end up coherent";
  const EngineStats &S = E.stats();
  EXPECT_EQ(S.ProcsKilled, 1u);
  EXPECT_TRUE(E.machine().processor(1).Dead);
  EXPECT_GE(E.gcStats().Collections, 1u);
  checkInvariants(E);
  // Record order is causal order: the kill must land between the
  // collection's begin and the first post-collection mutator event —
  // i.e. after GcEnd, because the engine defers the machine-level death
  // until the collection has committed.
  const auto &Events = E.tracer().events();
  size_t GcBegin = Events.size(), Kill = Events.size();
  for (size_t I = 0; I < Events.size(); ++I) {
    if (Events[I].Kind == TraceEventKind::GcBegin && GcBegin == Events.size())
      GcBegin = I;
    if (Events[I].Kind == TraceEventKind::ProcKilled && Kill == Events.size())
      Kill = I;
  }
  ASSERT_LT(GcBegin, Events.size());
  ASSERT_LT(Kill, Events.size());
  EXPECT_GT(Kill, GcBegin) << "the kill must not precede the collection";
  // The heap stays usable afterwards.
  EXPECT_EQ(evalFixnum(E, "(* 6 7)"), 42);
}

TEST(CheckpointTest, GcPhaseKillTranscriptIsDeterministic) {
  auto Run = [](std::string &Out, std::vector<TraceEvent> &Events) {
    EngineConfig C = ckptConfig(4, "gc-at=30000; proc-kill=1@30200");
    C.EnableTracing = true;
    Engine E(C);
    EXPECT_EQ(evalFixnum(E, strFormat(WorkersTemplate, 8)), 160000);
    StringOutStream OS(Out);
    dumpStats(OS, E.stats());
    Events.assign(E.tracer().events().begin(), E.tracer().events().end());
  };
  std::string A, B;
  std::vector<TraceEvent> EvA, EvB;
  Run(A, EvA);
  Run(B, EvB);
  EXPECT_EQ(A, B);
  ASSERT_EQ(EvA.size(), EvB.size());
  for (size_t I = 0; I < EvA.size(); ++I)
    ASSERT_TRUE(EvA[I].Kind == EvB[I].Kind && EvA[I].Proc == EvB[I].Proc &&
                EvA[I].Clock == EvB[I].Clock && EvA[I].A == EvB[I].A &&
                EvA[I].B == EvB[I].B && EvA[I].C == EvB[I].C)
        << "trace diverges at event " << I;
}

//===----------------------------------------------------------------------===//
// The REPL's :procs checkpoint columns
//===----------------------------------------------------------------------===//

TEST(CheckpointTest, ProcsCommandShowsCheckpointCounts) {
  EngineConfig C = ckptConfig(2, "");
  Engine E(C);
  std::string Buf;
  StringOutStream Out(Buf);
  Repl R(E, Out);
  R.processLine(strFormat(WorkersTemplate, 4));
  Buf.clear();
  R.processLine(":procs");
  EXPECT_NE(Buf.find("ckpts@last"), std::string::npos) << Buf;
  EXPECT_NE(Buf.find('@'), std::string::npos) << Buf;

  // Dormant config: the column (and header) must not appear at all.
  EngineConfig C2 = config(2);
  Engine E2(C2);
  std::string Buf2;
  StringOutStream Out2(Buf2);
  Repl R2(E2, Out2);
  R2.processLine(":procs");
  EXPECT_EQ(Buf2.find("ckpts"), std::string::npos) << Buf2;
}

} // namespace
