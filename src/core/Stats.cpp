//===----------------------------------------------------------------------===//
///
/// \file
/// Statistics rendering.
///
//===----------------------------------------------------------------------===//

#include "core/Stats.h"

#include "support/OutStream.h"
#include "support/StrUtil.h"

namespace mult {

/// Renders \p S human-readably (REPL's :stats command, debugging).
void dumpStats(OutStream &OS, const EngineStats &S) {
  OS << "tasks: created " << S.TasksCreated << ", inlined " << S.TasksInlined
     << ", completed " << S.TasksCompleted << '\n';
  OS << "futures: created " << S.FuturesCreated << ", resolved "
     << S.FuturesResolved << '\n';
  OS << "lazy seams: created " << S.SeamsCreated << ", stolen "
     << S.SeamsStolen << '\n';
  OS << "touches: executed " << S.TouchesExecuted << ", blocked "
     << S.TouchesBlocked << '\n';
  OS << "scheduling: dispatches " << S.Dispatches << ", steals " << S.Steals
     << " (of " << S.StealAttempts << " attempts, " << S.StealsFailed
     << " failed)\n";
  if (S.AdaptWindows)
    OS << "adaptive-T: " << S.AdaptWindows << " windows, "
       << S.ThresholdRaises << " raises, " << S.ThresholdLowers
       << " lowers\n";
  if (S.PolicyEager || S.PolicyInline || S.PolicyLazy)
    OS << "site policies: " << S.PolicyEager << " eager, " << S.PolicyInline
       << " inline, " << S.PolicyLazy << " lazy\n";
  OS << "execution: " << S.Instructions << " insns, " << S.CyclesExecuted
     << " cycles busy, " << S.IdleCycles << " idle\n";
  if (S.FaultsInjected || S.HeapExhaustedStops || S.DeadlocksDetected)
    OS << "robustness: " << S.FaultsInjected << " faults injected, "
       << S.HeapExhaustedStops << " heap-exhausted stops, "
       << S.DeadlocksDetected << " deadlocks detected\n";
  if (S.ProcsKilled || S.TasksRecovered || S.TasksOrphaned)
    OS << "recovery: " << S.ProcsKilled << " procs killed, "
       << S.TasksRecovered << " tasks recovered, " << S.TasksOrphaned
       << " orphaned, " << S.RecoveryCycles << " recovery cycles\n";
  if (S.CheckpointsTaken || S.TasksRestored)
    OS << "checkpoints: " << S.CheckpointsTaken << " taken ("
       << S.CheckpointCycles << " cycles), " << S.TasksRestored
       << " tasks restored, max task recovery " << S.MaxTaskRecoveryCycles
       << " cycles\n";
  OS << strFormat("last run: %llu cycles = %.4f virtual seconds\n",
                  static_cast<unsigned long long>(S.ElapsedCycles),
                  S.elapsedSeconds());
}

} // namespace mult
