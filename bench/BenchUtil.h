//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the table-regenerating benchmark harnesses.
///
/// Times are *virtual* seconds on the simulated Multimax (1 abstract
/// NS32332 instruction = 1.12 us, the paper's measured rate); see
/// DESIGN.md. Absolute numbers therefore share units with the paper's
/// tables, but the shape (ratios, crossovers) is the claim under test.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_BENCH_BENCHUTIL_H
#define MULT_BENCH_BENCHUTIL_H

#include "core/Engine.h"
#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "obs/TraceExport.h"
#include "runtime/Printer.h"
#include "support/StrUtil.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

namespace multbench {

using namespace mult;

/// Observability switches, environment-driven so the benchmark binaries
/// keep their argument-free table-regeneration interface:
///   MULT_TRACE=1       enable the event tracer for the timed region
///   MULT_METRICS=1     print the aggregated metrics report per run, plus
///                      one machine-parseable ";; virtual-cycles: <tag> <n>"
///                      line per run (the regression dashboard's input)
///   MULT_PROFILE=1     enable tracing and print the critical-path profile
///                      (work, span, parallelism, per-future-site) per run
///   MULT_TRACE_DIR=D   write D/<tag>.trace.json per traced run
///   MULT_TRACE_MODE=M  trace sink: unbounded (default), ring:N, or
///                      stream[:PATH] (see Tracer::configureSink)
///   MULT_FAULTS=SPEC   arm the deterministic fault injector for every
///                      run (picked up by the Engine itself; see
///                      fault/FaultPlan.h for the spec grammar). With
///                      MULT_METRICS also set, one machine-parseable
///                      ";; fault-metrics: <tag> <name> <n>" line is
///                      printed per robustness counter per run.
///   MULT_CHECKPOINT=N  arm the checkpointed-recovery policy (capture a
///                      whole task's resumable state every N busy
///                      cycles; picked up by the Engine itself). Changes
///                      virtual time, so like MULT_FAULTS it must stay
///                      off for golden runs; with MULT_METRICS and
///                      MULT_FAULTS set, checkpoint counters join the
///                      ";; fault-metrics:" lines
///   MULT_ADAPTIVE_T=1  switch every run from the static inlining
///                      threshold to the per-processor adaptive
///                      controller (sched/Adaptive.h); the static T
///                      passed by the bench becomes the starting point
///   MULT_SITE_POLICIES=F  load per-future-site policies from F (picked
///                      up by the Engine itself; see :profile FILE)
///   MULT_TELEMETRY=prom:PATH|json:PATH  export the always-on telemetry
///                      registry (counters, gauges, latency histograms)
///                      when the engine is destroyed. Recording itself
///                      needs no switch; this only chooses an export.
///
/// Always printed per run (no switch): one ";; host: <tag> ..." line of
/// host wall-clock phase times and the derived ns-per-proc-cycle (and
/// ns-per-makespan-cycle).
/// Host time is machine-dependent noise, so the golden comparator
/// (tools/collect_metrics.py) must never track it. With MULT_METRICS,
/// deterministic ";; histo: <tag> <name> ..." summary lines are printed
/// for the virtual-time latency histograms and ARE golden-tracked.
inline bool traceRequested() { return std::getenv("MULT_TRACE") != nullptr; }
inline bool metricsRequested() {
  return std::getenv("MULT_METRICS") != nullptr;
}
inline bool profileRequested() {
  return std::getenv("MULT_PROFILE") != nullptr;
}
inline bool adaptiveRequested() {
  return std::getenv("MULT_ADAPTIVE_T") != nullptr;
}

/// Builds a machine configuration for one benchmark run.
inline EngineConfig machine(unsigned Procs,
                            std::optional<unsigned> InlineT = std::nullopt,
                            bool Lazy = false) {
  EngineConfig C;
  C.NumProcessors = Procs;
  C.InlineThreshold = InlineT;
  C.LazyFutures = Lazy;
  C.HeapWords = size_t(1) << 23;
  C.AdaptiveInline = adaptiveRequested();
  C.EnableTracing = traceRequested() || profileRequested();
  if (const char *Mode = std::getenv("MULT_TRACE_MODE"))
    C.TraceSink = Mode;
  return C;
}

/// Post-run observability hook: metrics to stdout and/or a Chrome-trace
/// JSON file named after \p Tag, per the environment switches above.
inline void reportRun(Engine &E, const std::string &Tag) {
  if (metricsRequested()) {
    std::printf("\n;; metrics: %s\n", Tag.c_str());
    FileOutStream &OS = FileOutStream::stdoutStream();
    dumpMetrics(OS, buildMetrics(E.machine(), E.stats(), E.gcStats(),
                                 E.tracer(), E.raceDetector(),
                                 &E.telemetry(), E.config().CheckpointEvery));
    OS.flush();
    // The stable parse target for tools/collect_metrics.py: exact virtual
    // cycle count of the preceding timed run (deterministic per commit).
    std::printf(";; virtual-cycles: %s %llu\n", Tag.c_str(),
                static_cast<unsigned long long>(E.stats().ElapsedCycles));
    // Virtual-time latency histograms, same determinism contract as the
    // cycle count above: the collector tracks these as <tag>@<name>.
    const Telemetry &T = E.telemetry();
    for (const char *Name :
         {"gc_pause_cycles", "touch_wait_cycles", "task_lifetime_cycles"}) {
      Telemetry::Id Id = T.find(Name);
      if (Id == Telemetry::InvalidId)
        continue;
      LatencyHistogram H = T.merged(Id);
      std::string N = Name;
      N.resize(N.size() - 7); // strip "_cycles"
      for (char &C : N)
        if (C == '_')
          C = '-';
      std::printf(";; histo: %s %s n=%llu sum=%llu p50=%llu p90=%llu "
                  "p99=%llu max=%llu\n",
                  Tag.c_str(), N.c_str(),
                  static_cast<unsigned long long>(H.count()),
                  static_cast<unsigned long long>(H.sum()),
                  static_cast<unsigned long long>(H.percentile(50)),
                  static_cast<unsigned long long>(H.percentile(90)),
                  static_cast<unsigned long long>(H.percentile(99)),
                  static_cast<unsigned long long>(H.max()));
    }
    if (E.faults().armed()) {
      std::printf(";; fault-metrics: %s faults-injected %llu\n", Tag.c_str(),
                  static_cast<unsigned long long>(E.stats().FaultsInjected));
      std::printf(";; fault-metrics: %s heap-exhausted-stops %llu\n",
                  Tag.c_str(),
                  static_cast<unsigned long long>(
                      E.stats().HeapExhaustedStops));
      std::printf(";; fault-metrics: %s deadlocks-detected %llu\n",
                  Tag.c_str(),
                  static_cast<unsigned long long>(
                      E.stats().DeadlocksDetected));
      std::printf(";; fault-metrics: %s procs-killed %llu\n", Tag.c_str(),
                  static_cast<unsigned long long>(E.stats().ProcsKilled));
      std::printf(";; fault-metrics: %s tasks-recovered %llu\n", Tag.c_str(),
                  static_cast<unsigned long long>(E.stats().TasksRecovered));
      std::printf(";; fault-metrics: %s tasks-orphaned %llu\n", Tag.c_str(),
                  static_cast<unsigned long long>(E.stats().TasksOrphaned));
      std::printf(";; fault-metrics: %s recovery-cycles %llu\n", Tag.c_str(),
                  static_cast<unsigned long long>(E.stats().RecoveryCycles));
      // Checkpoint counters only exist when the policy is armed; keep
      // faulted-but-uncheckpointed outputs structurally unchanged.
      if (E.config().CheckpointEvery) {
        std::printf(";; fault-metrics: %s checkpoints-taken %llu\n",
                    Tag.c_str(),
                    static_cast<unsigned long long>(
                        E.stats().CheckpointsTaken));
        std::printf(";; fault-metrics: %s checkpoint-cycles %llu\n",
                    Tag.c_str(),
                    static_cast<unsigned long long>(
                        E.stats().CheckpointCycles));
        std::printf(";; fault-metrics: %s tasks-restored %llu\n", Tag.c_str(),
                    static_cast<unsigned long long>(E.stats().TasksRestored));
        std::printf(";; fault-metrics: %s max-task-recovery-cycles %llu\n",
                    Tag.c_str(),
                    static_cast<unsigned long long>(
                        E.stats().MaxTaskRecoveryCycles));
      }
    }
    // Tenant fault-domain counters, emitted only when the layer is armed
    // (MULT_QUOTA/MULT_SUPERVISE or an evalGroups run), mirroring the
    // fault-metrics contract: tools/collect_metrics.py hard-fails on
    // these lines unless invoked with --tenant.
    if (E.tenantArmed()) {
      const EngineStats &S = E.stats();
      struct {
        const char *Name;
        uint64_t Value;
      } TenantLines[] = {
          {"quota-stops", S.QuotaStops},
          {"budget-stops", S.BudgetStops},
          {"quota-grace-gcs", S.QuotaGraceGcs},
          {"groups-shed", S.GroupsShed},
          {"supervisor-restarts", S.SupervisorRestarts},
          {"supervisor-gave-up", S.SupervisorGaveUp},
          {"supervisor-escalations", S.SupervisorEscalations},
          {"groups-admitted", S.GroupsAdmitted},
          {"groups-queued", S.GroupsQueued},
          {"groups-rejected", S.GroupsRejected},
      };
      for (const auto &L : TenantLines)
        std::printf(";; tenant-metrics: %s %s %llu\n", Tag.c_str(), L.Name,
                    static_cast<unsigned long long>(L.Value));
      for (const char *Name :
           {"supervisor_restart_latency_cycles", "admission_queue_wait_cycles"}) {
        Telemetry::Id Id = T.find(Name);
        if (Id == Telemetry::InvalidId)
          continue;
        LatencyHistogram H = T.merged(Id);
        std::string N = Name;
        N.resize(N.size() - 7); // strip "_cycles"
        for (char &C : N)
          if (C == '_')
            C = '-';
        std::printf(";; tenant-metrics: %s histo %s n=%llu sum=%llu "
                    "p50=%llu p99=%llu max=%llu\n",
                    Tag.c_str(), N.c_str(),
                    static_cast<unsigned long long>(H.count()),
                    static_cast<unsigned long long>(H.sum()),
                    static_cast<unsigned long long>(H.percentile(50)),
                    static_cast<unsigned long long>(H.percentile(99)),
                    static_cast<unsigned long long>(H.max()));
      }
    }
  }
  if (profileRequested()) {
    std::printf("\n;; profile: %s\n", Tag.c_str());
    FileOutStream &OS = FileOutStream::stdoutStream();
    dumpProfile(OS, analyzeCriticalPath(E.tracer()),
                E.machine().numProcessors(), E.stats().ElapsedCycles);
    OS.flush();
  }
  if (const char *Dir = std::getenv("MULT_TRACE_DIR");
      Dir && E.tracer().enabled()) {
    std::string Path = std::string(Dir) + "/" + Tag + ".trace.json";
    if (FILE *F = std::fopen(Path.c_str(), "w")) {
      FileOutStream FS(F);
      writeChromeTrace(FS, E.tracer(), E.machine());
      FS.flush();
      std::fclose(F);
      std::fprintf(stderr, ";; trace: %s (%zu events)\n", Path.c_str(),
                   E.tracer().size());
    } else {
      std::fprintf(stderr, ";; trace: cannot open %s\n", Path.c_str());
    }
  }
  // Host wall-clock phases, printed for every run with no switch. These
  // are simulator self-times (steady_clock), noisy and machine-dependent:
  // tools/collect_metrics.py recognizes ";; host:" and refuses to let it
  // anywhere near the golden comparison. Run includes nested GC time.
  //
  // ns-per-proc-cycle is the simulator's speed: mutator host time (run
  // minus GC) over the processor-cycles simulated, busy + idle summed
  // over processors (perfbench's sim.ns_per_proc_cycle). Idle rounds
  // replayed in closed form are cheap, so dividing by makespan instead
  // (ns-per-makespan-cycle) flatters idle-heavy runs.
  {
    const Telemetry &T = E.telemetry();
    uint64_t RunNs = T.hostNs(Telemetry::Phase::Run);
    uint64_t GcNs = T.hostNs(Telemetry::Phase::Gc);
    uint64_t MutatorNs = RunNs > GcNs ? RunNs - GcNs : 0;
    uint64_t ProcCycles = 0;
    for (unsigned I = 0; I < E.machine().numProcessors(); ++I) {
      const Processor &P = E.machine().processor(I);
      ProcCycles += P.BusyCycles + P.IdleCycles;
    }
    uint64_t Makespan = E.stats().ElapsedCycles;
    auto PerCycle = [](uint64_t Ns, uint64_t Cycles) {
      return Cycles ? static_cast<double>(Ns) / static_cast<double>(Cycles)
                    : 0.0;
    };
    double NsPerProcCycle = PerCycle(MutatorNs, ProcCycles);
    E.telemetry().set(E.telemetryIds().HostNsPerCycle, NsPerProcCycle);
    std::printf(";; host: %s read-ns=%llu compile-ns=%llu run-ns=%llu "
                "gc-ns=%llu ns-per-proc-cycle=%.2f "
                "ns-per-makespan-cycle=%.2f\n",
                Tag.c_str(),
                static_cast<unsigned long long>(
                    T.hostNs(Telemetry::Phase::Read)),
                static_cast<unsigned long long>(
                    T.hostNs(Telemetry::Phase::Compile)),
                static_cast<unsigned long long>(RunNs),
                static_cast<unsigned long long>(GcNs), NsPerProcCycle,
                PerCycle(RunNs, Makespan));
  }
}

/// Evaluates \p Setup (library code), then times \p Expr. Exits loudly on
/// any error: a benchmark that silently fails is worse than a crash.
inline double runVirtualSeconds(Engine &E, const std::string &Setup,
                                const std::string &Expr,
                                std::string *ResultOut = nullptr) {
  if (!Setup.empty()) {
    EvalResult S = E.eval(Setup);
    if (!S.ok()) {
      std::fprintf(stderr, "bench setup failed: %s\n", S.Error.c_str());
      std::exit(1);
    }
  }
  E.resetStats();
  EvalResult R = E.eval(Expr);
  if (!R.ok()) {
    std::fprintf(stderr, "bench run failed: %s\n", R.Error.c_str());
    std::exit(1);
  }
  if (ResultOut)
    *ResultOut = valueToString(R.Val);
  return E.stats().elapsedSeconds();
}

/// Header/rule printing for the ASCII tables.
inline void printRule(unsigned Width = 72) {
  for (unsigned I = 0; I < Width; ++I)
    std::putchar('-');
  std::putchar('\n');
}

inline void printTitle(const char *Title) {
  std::printf("\n%s\n", Title);
  printRule();
}

} // namespace multbench

#endif // MULT_BENCH_BENCHUTIL_H
