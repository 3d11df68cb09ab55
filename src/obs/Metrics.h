//===----------------------------------------------------------------------===//
///
/// \file
/// Aggregated per-run metrics, built from the always-on counters plus
/// (when tracing is enabled) the virtual-time event stream.
///
/// The report answers the paper's accounting questions directly: where did
/// each processor's virtual time go (busy / idle / GC), how well did work
/// stealing perform (success rate, per-processor steal counts), how deep
/// did the task queues get (high-water marks), and how long did tasks live
/// (a log2 histogram of create-to-finish virtual cycles, trace-derived).
///
//===----------------------------------------------------------------------===//

#ifndef MULT_OBS_METRICS_H
#define MULT_OBS_METRICS_H

#include "core/Stats.h"
#include "obs/Trace.h"
#include "runtime/Gc.h"
#include "sched/Machine.h"
#include "support/OutStream.h"

#include <array>
#include <vector>

namespace mult {

class RaceDetector;
class Telemetry;

/// One processor's share of the run.
struct ProcMetrics {
  unsigned Id = 0;
  uint64_t BusyCycles = 0;
  uint64_t IdleCycles = 0;
  uint64_t GcCycles = 0;
  uint64_t Instructions = 0;
  uint64_t Dispatches = 0;
  uint64_t Steals = 0;
  uint64_t StealAttempts = 0; ///< probes this processor made as a thief
  uint64_t StealsFailed = 0;  ///< of those, probes that found nothing
  uint64_t TasksStarted = 0;
  size_t NewQueueHighWater = 0;
  size_t SuspQueueHighWater = 0;
  /// This processor's inlining threshold at the end of the run
  /// (meaningful when MetricsReport::AdaptiveT).
  unsigned AdaptiveT = 0;
  /// This processor's steal success as a thief, 0 when it never probed.
  double stealSuccessRate() const {
    return StealAttempts == 0 ? 0.0
                              : static_cast<double>(Steals) /
                                    static_cast<double>(StealAttempts);
  }
};

/// The whole report.
struct MetricsReport {
  std::vector<ProcMetrics> Procs;

  // Stealing (engine-wide; Steals + StealsFailed == StealAttempts).
  uint64_t StealAttempts = 0;
  uint64_t Steals = 0;
  uint64_t StealsFailed = 0;
  /// Steals / StealAttempts, 0 when no attempts were made.
  double stealSuccessRate() const {
    return StealAttempts == 0
               ? 0.0
               : static_cast<double>(Steals) / static_cast<double>(StealAttempts);
  }

  // Adaptive inlining threshold (sched/Adaptive.h).
  bool AdaptiveT = false;        ///< the controller was enabled
  uint64_t AdaptWindows = 0;     ///< windows closed across the machine
  uint64_t ThresholdRaises = 0;
  uint64_t ThresholdLowers = 0;

  // GC.
  uint64_t Collections = 0;
  uint64_t GcPauseCycles = 0;
  uint64_t GcMaxPauseCycles = 0; ///< longest single collection

  // Robustness (all zero unless fault injection was armed or the run
  // degraded; the renderer omits the section in that case).
  uint64_t FaultsInjected = 0;
  uint64_t HeapExhaustedStops = 0;
  uint64_t DeadlocksDetected = 0;

  // Fail-stop recovery (all zero unless a proc-kill clause fired; the
  // renderer omits the section in that case).
  uint64_t ProcsKilled = 0;
  uint64_t TasksRecovered = 0;
  uint64_t TasksOrphaned = 0;
  uint64_t RecoveryCycles = 0;
  uint64_t WakesRedirected = 0;

  // Checkpointed recovery (all zero unless EngineConfig::CheckpointEvery
  // was armed; the renderer omits the lines in that case).
  uint64_t CheckpointsTaken = 0;
  uint64_t CheckpointCycles = 0;
  uint64_t TasksRestored = 0;
  uint64_t MaxTaskRecoveryCycles = 0;
  /// Config echoes for the recovery-bound line: the policy guarantees
  /// MaxTaskRecoveryCycles <= CheckpointEvery + QuantumCycles per
  /// restored task (a capture fires at the first quantum boundary past
  /// CheckpointEvery busy cycles).
  uint64_t CheckpointEvery = 0;
  uint64_t QuantumCycles = 0;

  // Tenant fault domains (all zero unless the quota/supervision layer
  // was armed; the renderer omits the lines in that case).
  uint64_t QuotaStops = 0;
  uint64_t BudgetStops = 0;
  uint64_t QuotaGraceGcs = 0;
  uint64_t GroupsShed = 0;
  uint64_t SupervisorRestarts = 0;
  uint64_t SupervisorGaveUp = 0;
  uint64_t SupervisorEscalations = 0;
  uint64_t GroupsAdmitted = 0;
  uint64_t GroupsQueued = 0;
  uint64_t GroupsRejected = 0;

  // Determinacy-race detection (EngineConfig::RaceDetect / MULT_RACE).
  // When the detector is off, RaceDetectOn is false and the renderer
  // omits the races line entirely, keeping untraced output bit-identical.
  bool RaceDetectOn = false;
  uint64_t RacesDetected = 0;
  uint64_t AccessesChecked = 0;
  uint64_t CellsTracked = 0;

  /// Task lifetimes (create to finish, virtual cycles) in log2 buckets:
  /// bucket i counts lifetimes in [2^i, 2^(i+1)). Filled from the always-on
  /// telemetry histogram when one is passed to buildMetrics; otherwise
  /// trace-derived (and empty for untraced runs).
  std::array<uint64_t, 40> TaskLifetimeLog2 = {};
  uint64_t TasksMeasured = 0;

  /// One always-on latency histogram's summary (virtual cycles).
  struct LatencySummary {
    std::string Name; ///< display name, e.g. "gc-pause"
    uint64_t Count = 0;
    double Mean = 0.0;
    uint64_t P50 = 0;
    uint64_t P90 = 0;
    uint64_t P99 = 0;
    uint64_t Max = 0;
  };
  /// Non-empty unlabeled telemetry histograms, registration order.
  /// Empty when buildMetrics was not given a Telemetry.
  std::vector<LatencySummary> Latencies;
};

/// Builds the report for the last measured run. Pass the engine's race
/// detector (may be null) to fold determinacy-race counters in. Pass the
/// engine's telemetry (may be null) to fill the latency summaries and to
/// source task lifetimes from the always-on histogram instead of the
/// trace (so lifetimes no longer require tracing).
/// \p CheckpointEvery is EngineConfig::CheckpointEvery (0 = checkpoints
/// off), threaded through so the report can render the recovery bound.
MetricsReport buildMetrics(const Machine &M, const EngineStats &S,
                           const Gc::Stats &G, const Tracer &Tr,
                           const RaceDetector *RD = nullptr,
                           const Telemetry *Telem = nullptr,
                           uint64_t CheckpointEvery = 0);

/// Renders \p R human-readably (benches, the REPL's :stats command).
void dumpMetrics(OutStream &OS, const MetricsReport &R);

} // namespace mult

#endif // MULT_OBS_METRICS_H
