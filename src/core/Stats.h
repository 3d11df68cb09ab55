//===----------------------------------------------------------------------===//
///
/// \file
/// Run-time statistics the benchmark harnesses report.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_CORE_STATS_H
#define MULT_CORE_STATS_H

#include <cstdint>

namespace mult {

/// Cycle totals attributed to the six steps of evaluating
/// `(touch (future 0))` (paper Table 1). Counts are events; Cycles are
/// virtual NS32332 instructions.
struct FutureStepStats {
  uint64_t MakeThunkCycles = 0;     ///< Step 1: make thunk, call *future.
  uint64_t CreateEnqueueCycles = 0; ///< Step 2: create future+task, enqueue.
  uint64_t BlockCycles = 0;         ///< Step 3: block the touching task.
  uint64_t DispatchNewCycles = 0;   ///< Step 4: dequeue + start a new task.
  uint64_t ResolveCycles = 0;       ///< Step 5: resolve, wake waiters.
  uint64_t DispatchSuspCycles = 0;  ///< Step 6: dequeue + resume.
  uint64_t total() const {
    return MakeThunkCycles + CreateEnqueueCycles + BlockCycles +
           DispatchNewCycles + ResolveCycles + DispatchSuspCycles;
  }
};

/// Engine-wide counters, cumulative until resetStats().
struct EngineStats {
  // Tasks and futures.
  uint64_t TasksCreated = 0;
  uint64_t TasksInlined = 0;  ///< futures evaluated inline (threshold T)
  uint64_t TasksCompleted = 0;
  uint64_t FuturesCreated = 0;
  uint64_t FuturesResolved = 0;

  // Lazy futures.
  uint64_t SeamsCreated = 0;
  uint64_t SeamsStolen = 0;

  // Touches.
  uint64_t TouchesExecuted = 0; ///< dynamic count of touch instructions
  uint64_t TouchesBlocked = 0;  ///< touches that found an unresolved future

  // Scheduling. One StealAttempt is one stealNew/stealSuspended probe of a
  // victim queue; it either yields a dispatched task (Steals) or not
  // (StealsFailed: queue empty, or the popped task was vetoed), so
  // Steals + StealsFailed == StealAttempts always.
  uint64_t Dispatches = 0;
  uint64_t Steals = 0;
  uint64_t StealAttempts = 0;
  uint64_t StealsFailed = 0;

  // Adaptive inlining threshold (sched/Adaptive.h; zero unless
  // EngineConfig::AdaptiveInline).
  uint64_t AdaptWindows = 0;     ///< adaptation windows closed
  uint64_t ThresholdRaises = 0;  ///< T moved up (starvation signal)
  uint64_t ThresholdLowers = 0;  ///< T moved down (surplus signal)

  // Per-site policies (core/SitePolicies.h; zero unless a table loaded).
  uint64_t PolicyEager = 0;  ///< futures forced eager by a site policy
  uint64_t PolicyInline = 0; ///< futures forced inline by a site policy
  uint64_t PolicyLazy = 0;   ///< futures forced lazy by a site policy

  // Robustness (src/fault and the degradation paths it exercises).
  uint64_t FaultsInjected = 0;      ///< fault-plan clauses that fired
  uint64_t HeapExhaustedStops = 0;  ///< groups stopped on heap-exhausted
  uint64_t DeadlocksDetected = 0;   ///< quiescent runs with root unresolved

  // Fail-stop recovery (proc-kill clauses; zero unless one fired).
  uint64_t ProcsKilled = 0;    ///< processors fail-stopped
  uint64_t TasksRecovered = 0; ///< lost tasks re-spawned from lineage
  uint64_t TasksOrphaned = 0;  ///< lost tasks with observed side effects
  uint64_t RecoveryCycles = 0; ///< busy cycles re-executing recovered tasks
  uint64_t WakesRedirected = 0; ///< post-mortem wakes rerouted to survivors

  // Checkpointed recovery (EngineConfig::CheckpointEvery / MULT_CHECKPOINT;
  // zero unless armed).
  uint64_t CheckpointsTaken = 0;  ///< checkpoint records captured
  uint64_t CheckpointCycles = 0;  ///< virtual cycles spent capturing
  uint64_t TasksRestored = 0;     ///< lost tasks resumed from a checkpoint
  /// Largest per-task re-execution charge among checkpoint-restored tasks;
  /// bounded by CheckpointEvery + QuantumCycles by construction.
  uint64_t MaxTaskRecoveryCycles = 0;

  // Tenant fault domains (quotas, supervision, admission; zero unless
  // MULT_QUOTA/MULT_SUPERVISE or :quota/:supervise armed the layer).
  uint64_t QuotaStops = 0;     ///< groups stopped on group-heap-quota
  uint64_t BudgetStops = 0;    ///< groups stopped on group-cycle-budget
  uint64_t QuotaGraceGcs = 0;  ///< free collections granted at first trip
  uint64_t GroupsShed = 0;     ///< quota violators killed under pressure
  uint64_t SupervisorRestarts = 0;    ///< restart events that fired
  uint64_t SupervisorGaveUp = 0;      ///< restart storms ended permanently
  uint64_t SupervisorEscalations = 0; ///< escalate policies that ended runs
  uint64_t GroupsAdmitted = 0; ///< launches admitted (incl. from the queue)
  uint64_t GroupsQueued = 0;   ///< launches parked in the admission queue
  uint64_t GroupsRejected = 0; ///< launches shed at the gate

  // Execution.
  uint64_t Instructions = 0;   ///< bytecode instructions executed
  uint64_t CyclesExecuted = 0; ///< virtual NS32332 instructions charged
  uint64_t IdleCycles = 0;

  // The last run's elapsed virtual time.
  uint64_t ElapsedCycles = 0;

  FutureStepStats Steps;

  /// The paper's machine runs ~1 MIPS with a measured 220us for the ~196
  /// instructions of (touch (future 0)): 1.12 us per abstract instruction.
  static constexpr double MicrosecondsPerCycle = 1.12;

  double elapsedSeconds() const {
    return static_cast<double>(ElapsedCycles) * MicrosecondsPerCycle * 1e-6;
  }
  static double cyclesToSeconds(uint64_t Cycles) {
    return static_cast<double>(Cycles) * MicrosecondsPerCycle * 1e-6;
  }
};

} // namespace mult

#endif // MULT_CORE_STATS_H
