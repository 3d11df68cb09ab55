//===----------------------------------------------------------------------===//
///
/// \file
/// Metrics aggregation and rendering.
///
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "analysis/RaceDetect.h"
#include "core/Task.h"
#include "obs/Telemetry.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <unordered_map>

using namespace mult;

MetricsReport mult::buildMetrics(const Machine &M, const EngineStats &S,
                                 const Gc::Stats &G, const Tracer &Tr,
                                 const RaceDetector *RD,
                                 const Telemetry *Telem,
                                 uint64_t CheckpointEvery) {
  MetricsReport R;
  for (unsigned I = 0; I < M.numProcessors(); ++I) {
    const Processor &P = M.processor(I);
    ProcMetrics PM;
    PM.Id = I;
    PM.BusyCycles = P.BusyCycles;
    PM.IdleCycles = P.IdleCycles;
    PM.GcCycles = P.GcCycles;
    PM.Instructions = P.Instructions;
    PM.Dispatches = P.Dispatches;
    PM.Steals = P.Steals;
    PM.StealAttempts = P.StealAttempts;
    PM.StealsFailed = P.StealsFailed;
    PM.TasksStarted = P.TasksStarted;
    PM.NewQueueHighWater = P.Queues.newHighWater();
    PM.SuspQueueHighWater = P.Queues.suspendedHighWater();
    PM.AdaptiveT = P.Adapt.T;
    R.Procs.push_back(PM);
  }

  R.StealAttempts = S.StealAttempts;
  R.Steals = S.Steals;
  R.StealsFailed = S.StealsFailed;
  R.AdaptiveT = M.adaptiveEnabled();
  R.AdaptWindows = S.AdaptWindows;
  R.ThresholdRaises = S.ThresholdRaises;
  R.ThresholdLowers = S.ThresholdLowers;
  R.Collections = G.Collections;
  R.GcPauseCycles = G.TotalPauseCycles;
  R.GcMaxPauseCycles = G.MaxPauseCycles;
  R.FaultsInjected = S.FaultsInjected;
  R.HeapExhaustedStops = S.HeapExhaustedStops;
  R.DeadlocksDetected = S.DeadlocksDetected;
  R.ProcsKilled = S.ProcsKilled;
  R.TasksRecovered = S.TasksRecovered;
  R.TasksOrphaned = S.TasksOrphaned;
  R.RecoveryCycles = S.RecoveryCycles;
  R.WakesRedirected = S.WakesRedirected;
  R.CheckpointsTaken = S.CheckpointsTaken;
  R.CheckpointCycles = S.CheckpointCycles;
  R.TasksRestored = S.TasksRestored;
  R.MaxTaskRecoveryCycles = S.MaxTaskRecoveryCycles;
  R.CheckpointEvery = CheckpointEvery;
  R.QuantumCycles = M.quantum();
  R.QuotaStops = S.QuotaStops;
  R.BudgetStops = S.BudgetStops;
  R.QuotaGraceGcs = S.QuotaGraceGcs;
  R.GroupsShed = S.GroupsShed;
  R.SupervisorRestarts = S.SupervisorRestarts;
  R.SupervisorGaveUp = S.SupervisorGaveUp;
  R.SupervisorEscalations = S.SupervisorEscalations;
  R.GroupsAdmitted = S.GroupsAdmitted;
  R.GroupsQueued = S.GroupsQueued;
  R.GroupsRejected = S.GroupsRejected;
  if (RD) {
    R.RaceDetectOn = true;
    R.RacesDetected = RD->raceCount();
    R.AccessesChecked = RD->accessesChecked();
    R.CellsTracked = RD->cellsTracked();
  }

  if (Telem) {
    // Task lifetimes from the always-on histogram: same log2 convention
    // as the trace-derived path, telemetry's extra high buckets fold into
    // the report's top bucket.
    Telemetry::Id LifeId = Telem->find("task_lifetime_cycles");
    if (LifeId != Telemetry::InvalidId) {
      LatencyHistogram H = Telem->merged(LifeId);
      for (unsigned B = 0; B < LatencyHistogram::NumBuckets; ++B) {
        uint64_t N = H.buckets()[B];
        if (N)
          R.TaskLifetimeLog2[std::min<size_t>(
              B, R.TaskLifetimeLog2.size() - 1)] += N;
      }
      R.TasksMeasured = H.count();
    }

    // Latency summaries for every non-empty unlabeled histogram, in
    // registration order (display names: '_' -> '-', no "_cycles").
    for (Telemetry::Id I = 0; I < Telem->size(); ++I) {
      const Telemetry::Metric &MDef = Telem->metric(I);
      if (MDef.K != Telemetry::Kind::Histogram || !MDef.LabelKey.empty())
        continue;
      LatencyHistogram H = Telem->merged(I);
      if (H.count() == 0)
        continue;
      MetricsReport::LatencySummary LS;
      std::string N = MDef.Name;
      if (N.size() > 7 && N.compare(N.size() - 7, 7, "_cycles") == 0)
        N.resize(N.size() - 7);
      std::replace(N.begin(), N.end(), '_', '-');
      LS.Name = N;
      LS.Count = H.count();
      LS.Mean = static_cast<double>(H.sum()) / static_cast<double>(H.count());
      LS.P50 = H.percentile(50);
      LS.P90 = H.percentile(90);
      LS.P99 = H.percentile(99);
      LS.Max = H.max();
      R.Latencies.push_back(std::move(LS));
    }
    return R;
  }

  // Task lifetimes from the trace: pair each finish with its creation.
  std::unordered_map<uint64_t, uint64_t> Born;
  for (const TraceEvent &E : Tr.events()) {
    if (E.Kind == TraceEventKind::TaskCreate) {
      Born[E.A] = E.Clock;
    } else if (E.Kind == TraceEventKind::TaskFinish) {
      auto It = Born.find(E.A);
      if (It == Born.end() || E.Clock < It->second)
        continue;
      uint64_t Life = E.Clock - It->second;
      unsigned Bucket = 0;
      while (Bucket + 1 < R.TaskLifetimeLog2.size() && (Life >> (Bucket + 1)))
        ++Bucket;
      ++R.TaskLifetimeLog2[Bucket];
      ++R.TasksMeasured;
      Born.erase(It);
    }
  }
  return R;
}

void mult::dumpMetrics(OutStream &OS, const MetricsReport &R) {
  OS << "per-processor virtual time (cycles):\n";
  OS << "  proc       busy       idle         gc      insns  disp  steal"
        "/att(rate)  qhi(new/susp)";
  if (R.AdaptiveT)
    OS << "  T";
  OS << "\n";
  for (const ProcMetrics &P : R.Procs) {
    OS << strFormat(
        "  %4u %10llu %10llu %10llu %10llu %5llu %6llu/%llu",
        P.Id, static_cast<unsigned long long>(P.BusyCycles),
        static_cast<unsigned long long>(P.IdleCycles),
        static_cast<unsigned long long>(P.GcCycles),
        static_cast<unsigned long long>(P.Instructions),
        static_cast<unsigned long long>(P.Dispatches),
        static_cast<unsigned long long>(P.Steals),
        static_cast<unsigned long long>(P.StealAttempts));
    // A processor that never probed has no success rate, not a 0% one.
    if (P.StealAttempts == 0)
      OS << "(-)";
    else
      OS << strFormat("(%.0f%%)", P.stealSuccessRate() * 100.0);
    OS << strFormat("  %zu/%zu", P.NewQueueHighWater, P.SuspQueueHighWater);
    if (R.AdaptiveT)
      OS << strFormat("  %u", P.AdaptiveT);
    OS << "\n";
  }
  if (R.StealAttempts == 0)
    OS << "stealing: no attempts\n";
  else
    OS << strFormat("stealing: %llu of %llu attempts succeeded (%llu failed, "
                    "%.1f%% success)\n",
                    static_cast<unsigned long long>(R.Steals),
                    static_cast<unsigned long long>(R.StealAttempts),
                    static_cast<unsigned long long>(R.StealsFailed),
                    R.stealSuccessRate() * 100.0);
  if (R.AdaptiveT)
    OS << strFormat("adaptive-T: %llu windows closed, %llu raises, "
                    "%llu lowers\n",
                    static_cast<unsigned long long>(R.AdaptWindows),
                    static_cast<unsigned long long>(R.ThresholdRaises),
                    static_cast<unsigned long long>(R.ThresholdLowers));
  OS << strFormat("gc: %llu collections, %llu pause cycles",
                  static_cast<unsigned long long>(R.Collections),
                  static_cast<unsigned long long>(R.GcPauseCycles));
  if (R.Collections > 0)
    OS << strFormat(" (max %llu, mean %.1f)",
                    static_cast<unsigned long long>(R.GcMaxPauseCycles),
                    static_cast<double>(R.GcPauseCycles) /
                        static_cast<double>(R.Collections));
  OS << "\n";
  if (R.FaultsInjected || R.HeapExhaustedStops || R.DeadlocksDetected)
    OS << strFormat("robustness: %llu faults injected, %llu heap-exhausted "
                    "stops, %llu deadlocks detected\n",
                    static_cast<unsigned long long>(R.FaultsInjected),
                    static_cast<unsigned long long>(R.HeapExhaustedStops),
                    static_cast<unsigned long long>(R.DeadlocksDetected));
  if (R.ProcsKilled || R.TasksRecovered || R.TasksOrphaned)
    OS << strFormat("recovery: %llu procs killed, %llu tasks recovered, "
                    "%llu orphaned, %llu recovery cycles, "
                    "%llu wakes redirected\n",
                    static_cast<unsigned long long>(R.ProcsKilled),
                    static_cast<unsigned long long>(R.TasksRecovered),
                    static_cast<unsigned long long>(R.TasksOrphaned),
                    static_cast<unsigned long long>(R.RecoveryCycles),
                    static_cast<unsigned long long>(R.WakesRedirected));
  if (R.CheckpointsTaken || R.TasksRestored)
    OS << strFormat("checkpoints: %llu taken, %llu capture cycles, "
                    "%llu tasks restored\n",
                    static_cast<unsigned long long>(R.CheckpointsTaken),
                    static_cast<unsigned long long>(R.CheckpointCycles),
                    static_cast<unsigned long long>(R.TasksRestored));
  if (R.TasksRestored && R.CheckpointEvery) {
    // The proof line the checkpoint policy promises: no restored task
    // re-executed more than one capture interval plus one quantum.
    uint64_t Bound = R.CheckpointEvery + R.QuantumCycles;
    OS << strFormat("recovery-bound: max task recovery %llu cycles <= "
                    "checkpoint-every %llu + quantum %llu (%s)\n",
                    static_cast<unsigned long long>(R.MaxTaskRecoveryCycles),
                    static_cast<unsigned long long>(R.CheckpointEvery),
                    static_cast<unsigned long long>(R.QuantumCycles),
                    R.MaxTaskRecoveryCycles <= Bound ? "OK" : "VIOLATED");
  }
  if (R.QuotaStops || R.BudgetStops || R.QuotaGraceGcs || R.GroupsShed)
    OS << strFormat("tenant: %llu quota stops, %llu budget stops, "
                    "%llu grace collections, %llu shed\n",
                    static_cast<unsigned long long>(R.QuotaStops),
                    static_cast<unsigned long long>(R.BudgetStops),
                    static_cast<unsigned long long>(R.QuotaGraceGcs),
                    static_cast<unsigned long long>(R.GroupsShed));
  if (R.SupervisorRestarts || R.SupervisorGaveUp || R.SupervisorEscalations)
    OS << strFormat("supervisor: %llu restarts, %llu gave up, "
                    "%llu escalations\n",
                    static_cast<unsigned long long>(R.SupervisorRestarts),
                    static_cast<unsigned long long>(R.SupervisorGaveUp),
                    static_cast<unsigned long long>(R.SupervisorEscalations));
  if (R.GroupsAdmitted || R.GroupsQueued || R.GroupsRejected)
    OS << strFormat("admission: %llu admitted, %llu queued, %llu rejected\n",
                    static_cast<unsigned long long>(R.GroupsAdmitted),
                    static_cast<unsigned long long>(R.GroupsQueued),
                    static_cast<unsigned long long>(R.GroupsRejected));
  if (R.RaceDetectOn)
    OS << strFormat("races: %llu (%llu accesses checked, %llu cells "
                    "tracked)\n",
                    static_cast<unsigned long long>(R.RacesDetected),
                    static_cast<unsigned long long>(R.AccessesChecked),
                    static_cast<unsigned long long>(R.CellsTracked));
  if (!R.Latencies.empty()) {
    OS << "latency (virtual cycles):\n";
    for (const MetricsReport::LatencySummary &L : R.Latencies)
      OS << strFormat("  %-18s n=%llu mean=%.1f p50=%llu p90=%llu p99=%llu "
                      "max=%llu\n",
                      L.Name.c_str(),
                      static_cast<unsigned long long>(L.Count), L.Mean,
                      static_cast<unsigned long long>(L.P50),
                      static_cast<unsigned long long>(L.P90),
                      static_cast<unsigned long long>(L.P99),
                      static_cast<unsigned long long>(L.Max));
  }
  if (R.TasksMeasured == 0) {
    OS << "task lifetimes: (no tasks measured)\n";
    return;
  }
  OS << strFormat("task lifetimes (%llu tasks, virtual cycles, log2 "
                  "buckets):\n",
                  static_cast<unsigned long long>(R.TasksMeasured));
  for (size_t I = 0; I < R.TaskLifetimeLog2.size(); ++I) {
    if (R.TaskLifetimeLog2[I] == 0)
      continue;
    OS << strFormat("  [%8llu, %8llu): %llu\n",
                    static_cast<unsigned long long>(uint64_t(1) << I),
                    static_cast<unsigned long long>(uint64_t(1) << (I + 1)),
                    static_cast<unsigned long long>(R.TaskLifetimeLog2[I]));
  }
}
