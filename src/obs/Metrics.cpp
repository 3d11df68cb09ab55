//===----------------------------------------------------------------------===//
///
/// \file
/// Metrics rendering.
///
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "analysis/RaceDetect.h"
#include "core/Engine.h"
#include "obs/Telemetry.h"
#include "support/StrUtil.h"

#include <algorithm>

using namespace mult;

namespace {

unsigned long long ull(uint64_t V) {
  return static_cast<unsigned long long>(V);
}

/// Percentage \p Num of \p Den, for success rates (\p Den nonzero).
double percent(uint64_t Num, uint64_t Den) {
  return static_cast<double>(Num) * 100.0 / static_cast<double>(Den);
}

/// One summary line per non-empty unlabeled telemetry histogram, in
/// registration order (display names: '_' -> '-', no "_cycles").
void dumpLatencies(OutStream &OS, const Telemetry &T) {
  bool Header = false;
  for (Telemetry::Id I = 0; I < T.size(); ++I) {
    const Telemetry::Metric &M = T.metric(I);
    if (M.K != Telemetry::Kind::Histogram || !M.LabelKey.empty())
      continue;
    LatencyHistogram H = T.merged(I);
    if (H.count() == 0)
      continue;
    if (!Header) {
      OS << "latency (virtual cycles):\n";
      Header = true;
    }
    std::string N = M.Name;
    if (N.size() > 7 && N.compare(N.size() - 7, 7, "_cycles") == 0)
      N.resize(N.size() - 7);
    std::replace(N.begin(), N.end(), '_', '-');
    OS << strFormat("  %-18s n=%llu mean=%.1f p50=%llu p90=%llu p99=%llu "
                    "max=%llu\n",
                    N.c_str(), ull(H.count()),
                    static_cast<double>(H.sum()) /
                        static_cast<double>(H.count()),
                    ull(H.percentile(50)), ull(H.percentile(90)),
                    ull(H.percentile(99)), ull(H.max()));
  }
}

} // namespace

void mult::dumpMetrics(OutStream &OS, Engine &E) {
  const EngineStats &S = E.stats();
  Machine &M = E.machine();
  const Gc::Stats &G = E.gcStats();
  const bool AdaptiveT = M.adaptiveEnabled();

  OS << "per-processor virtual time (cycles):\n";
  OS << "  proc       busy       idle         gc      insns  disp  steal"
        "/att(rate)  qhi(new/susp)";
  if (AdaptiveT)
    OS << "  T";
  OS << "\n";
  uint64_t Busy = 0;
  for (unsigned I = 0; I < M.numProcessors(); ++I) {
    const Processor &P = M.processor(I);
    Busy += P.BusyCycles;
    OS << strFormat("  %4u %10llu %10llu %10llu %10llu %5llu %6llu/%llu", I,
                    ull(P.BusyCycles), ull(P.IdleCycles), ull(P.GcCycles),
                    ull(P.Instructions), ull(P.Dispatches), ull(P.Steals),
                    ull(P.StealAttempts));
    // A processor that never probed has no success rate, not a 0% one.
    if (P.StealAttempts == 0)
      OS << "(-)";
    else
      OS << strFormat("(%.0f%%)", percent(P.Steals, P.StealAttempts));
    OS << strFormat("  %zu/%zu", P.Queues.newHighWater(),
                    P.Queues.suspendedHighWater());
    if (AdaptiveT)
      OS << strFormat("  %u", P.Adapt.T);
    OS << "\n";
  }

  OS << "tasks: created " << S.TasksCreated << ", inlined " << S.TasksInlined
     << ", completed " << S.TasksCompleted << '\n';
  OS << "futures: created " << S.FuturesCreated << ", resolved "
     << S.FuturesResolved << '\n';
  OS << "lazy seams: created " << S.SeamsCreated << ", stolen "
     << S.SeamsStolen << '\n';
  OS << "touches: executed " << S.TouchesExecuted << ", blocked "
     << S.TouchesBlocked << '\n';
  // Steals + StealsFailed == StealAttempts (EngineStats).
  OS << "scheduling: dispatches " << S.Dispatches;
  if (S.StealAttempts == 0)
    OS << ", no steal attempts\n";
  else
    OS << strFormat(", steals %llu of %llu attempts (%llu failed, %.1f%% "
                    "success)\n",
                    ull(S.Steals), ull(S.StealAttempts), ull(S.StealsFailed),
                    percent(S.Steals, S.StealAttempts));
  if (AdaptiveT)
    OS << "adaptive-T: " << S.AdaptWindows << " windows closed, "
       << S.ThresholdRaises << " raises, " << S.ThresholdLowers
       << " lowers\n";
  if (S.PolicyEager || S.PolicyInline || S.PolicyLazy)
    OS << "site policies: " << S.PolicyEager << " eager, " << S.PolicyInline
       << " inline, " << S.PolicyLazy << " lazy\n";
  OS << "execution: " << S.Instructions << " insns, " << Busy
     << " cycles busy, " << S.IdleCycles << " idle\n";
  OS << strFormat("gc: %llu collections, %llu pause cycles",
                  ull(G.Collections), ull(G.TotalPauseCycles));
  if (G.Collections > 0)
    OS << strFormat(" (max %llu, mean %.1f)", ull(G.MaxPauseCycles),
                    static_cast<double>(G.TotalPauseCycles) /
                        static_cast<double>(G.Collections));
  OS << "\n";

  if (S.FaultsInjected || S.HeapExhaustedStops || S.DeadlocksDetected)
    OS << "robustness: " << S.FaultsInjected << " faults injected, "
       << S.HeapExhaustedStops << " heap-exhausted stops, "
       << S.DeadlocksDetected << " deadlocks detected\n";
  if (S.ProcsKilled || S.TasksRecovered || S.TasksOrphaned)
    OS << "recovery: " << S.ProcsKilled << " procs killed, "
       << S.TasksRecovered << " tasks recovered, " << S.TasksOrphaned
       << " orphaned, " << S.RecoveryCycles << " recovery cycles, "
       << S.WakesRedirected << " wakes redirected\n";
  if (S.CheckpointsTaken || S.TasksRestored)
    OS << "checkpoints: " << S.CheckpointsTaken << " taken ("
       << S.CheckpointCycles << " cycles), " << S.TasksRestored
       << " tasks restored, max task recovery " << S.MaxTaskRecoveryCycles
       << " cycles\n";
  if (uint64_t Every = E.config().CheckpointEvery; S.TasksRestored && Every) {
    // The proof line the checkpoint policy promises: no restored task
    // re-executed more than one capture interval plus one quantum (a
    // capture fires at the first quantum boundary past Every busy cycles).
    uint64_t Bound = Every + M.quantum();
    OS << strFormat("recovery-bound: max task recovery %llu cycles <= "
                    "checkpoint-every %llu + quantum %llu (%s)\n",
                    ull(S.MaxTaskRecoveryCycles), ull(Every),
                    ull(M.quantum()),
                    S.MaxTaskRecoveryCycles <= Bound ? "OK" : "VIOLATED");
  }
  if (S.QuotaStops || S.BudgetStops || S.QuotaGraceGcs || S.GroupsShed)
    OS << "tenant: " << S.QuotaStops << " quota stops, " << S.BudgetStops
       << " budget stops, " << S.QuotaGraceGcs << " grace collections, "
       << S.GroupsShed << " shed\n";
  if (S.SupervisorRestarts || S.SupervisorGaveUp || S.SupervisorEscalations)
    OS << "supervisor: " << S.SupervisorRestarts << " restarts, "
       << S.SupervisorGaveUp << " gave up, " << S.SupervisorEscalations
       << " escalations\n";
  if (S.GroupsAdmitted || S.GroupsQueued || S.GroupsRejected)
    OS << "admission: " << S.GroupsAdmitted << " admitted, " << S.GroupsQueued
       << " queued, " << S.GroupsRejected << " rejected\n";
  // No detector, no races line.
  if (const RaceDetector *RD = E.raceDetector())
    OS << "races: " << RD->raceCount() << " (" << RD->accessesChecked()
       << " accesses checked, " << RD->cellsTracked() << " cells tracked)\n";

  dumpLatencies(OS, E.telemetry());
  OS << strFormat("last run: %llu cycles = %.4f virtual seconds\n",
                  ull(S.ElapsedCycles), S.elapsedSeconds());
}
