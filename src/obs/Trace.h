//===----------------------------------------------------------------------===//
///
/// \file
/// Virtual-time event tracing (the observability substrate).
///
/// Every interesting runtime transition — task lifecycle, future protocol
/// steps, touches, steals, inlining decisions, GC phases, idle intervals —
/// is recorded as a small fixed-size event stamped with the *emitting
/// processor's virtual clock*. The stream feeds three consumers:
///
///   - obs/TraceExport.*: a Chrome trace-event JSON exporter (loadable in
///     chrome://tracing and Perfetto), one row per virtual processor;
///   - obs/Metrics.*: the aggregated per-run metrics report;
///   - obs/CriticalPath.*: the work/span (critical-path) profiler, which
///     reconstructs the future-spawn DAG from the stream.
///
/// Since the DAG reconstruction needs real edges, events carry a third
/// payload word C: parent task on create, waker task on resume, a resolve
/// serial linking each future-resolve to the touch-hits it enables, and
/// the seam serial tying a lazy-future split to the inline decision that
/// pushed the seam.
///
/// Recording costs no *virtual* time at all (the simulation's cycle
/// accounting never sees it), and when disabled it costs essentially no
/// host time either: every emit site guards on Tracer::enabled(), a single
/// inlined bool test. This is what lets benches keep tracing compiled in
/// while staying bit-identical to untraced runs.
///
/// Three sink modes keep heavy workloads tractable (ROADMAP
/// "trace-buffer scalability"):
///
///   - unbounded (default): a flat in-memory vector, ~32 MB per 10^6
///     events;
///   - ring:N: a bounded circular buffer holding the *last* N events;
///     overwritten events are counted in dropped() so a truncated trace is
///     never silently read as complete (Recorded + Dropped == Emitted);
///   - stream[:PATH]: events are appended to a binary file as they are
///     emitted and nothing is buffered; readTraceFile loads the file back
///     for offline analysis.
///
/// Later subsystems (the race detector of Utterback et al., adaptive
/// scheduling) consume this same stream; keep events small and
/// append-only.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_OBS_TRACE_H
#define MULT_OBS_TRACE_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mult {

/// What happened. Payload fields A/B/C are kind-specific; see each entry.
/// C is 0 where not listed.
enum class TraceEventKind : uint8_t {
  TaskCreate,     ///< A = task id, B = group id, C = parent task id
                  ///< (InvalidTask when the task has no creating task,
                  ///< e.g. a top-level root).
  TaskStart,      ///< Dispatched onto the processor. A = task id,
                  ///< B = 0 own queue, 1 stolen, 2 lazy-seam split.
  TaskBlock,      ///< A = task id, B = 0 future, 1 semaphore.
  TaskResume,     ///< Woken, re-enqueued. A = task id, B = home processor,
                  ///< C = waker task id (the resolver/signaller).
  TaskFinish,     ///< Completed normally. A = task id.
  TaskStopped,    ///< Suspended by a group stop. A = task id.
  TaskParked,     ///< Popped while its group was stopped. A = task id.
  TaskDropped,    ///< Popped from a killed group and discarded. A = task id.
  FutureCreate,   ///< A = child task id, B = future-site id.
  FutureResolve,  ///< A = number of waiters woken, C = resolve serial
                  ///< (stamped into the future; TouchHit echoes it).
  TouchHit,       ///< Touch found a resolved future. A = task id,
                  ///< C = the future's resolve serial (0 when the future
                  ///< was resolved while tracing was off).
  TouchBlock,     ///< Touch found an unresolved future. A = task id.
  StealAttempt,   ///< One queue probe. A = victim processor,
                  ///< B = 1 success, 0 failure (empty or vetting rejected).
  InlineDecision, ///< `future` policy choice. A = 0 inlined, 1 real task,
                  ///< 2 lazy seam. B = future-site id. For lazy seams,
                  ///< C = the seam serial (SeamSteal echoes it).
  SeamSteal,      ///< Lazy seam split. A = new parent-continuation task id,
                  ///< B = victim task index, C = seam serial.
  GcBegin,        ///< Collection pause begins on this processor.
  GcEnd,          ///< Collection pause ends (common resume clock).
  IdleBegin,      ///< Processor found no work.
  IdleEnd,        ///< Processor found work again.
  FaultInjected,  ///< A fault-plan clause fired. A = FaultKind, B = detail
                  ///< (site-specific: task queue depth, stall length, ...),
                  ///< C = running count of injected faults.
  ThresholdChange,///< Adaptive controller moved this processor's inlining
                  ///< threshold. A = new T, B = old T, C = machine-wide
                  ///< window ordinal of the closing window.
  PolicyDecision, ///< A loaded site policy decided a `future`. A =
                  ///< SitePolicy (0 eager, 1 inline, 2 lazy), B =
                  ///< future-site id.
  ProcKilled,     ///< A proc-kill clause fail-stopped a processor. A =
                  ///< dead processor id, B = tasks lost (drained + the
                  ///< task it was running), C = running kill count.
  TaskRecovered,  ///< A lost task was re-spawned from its lineage onto a
                  ///< survivor. A = task id, B = new home processor,
                  ///< C = dead processor it was lost from.
  TaskOrphaned,   ///< A lost task had observed side effects and could not
                  ///< be recovered. A = task id, B = reason (1 no
                  ///< lineage, 2 semaphore held, 3 seam observed,
                  ///< 4 I/O performed, 5 recovery disabled),
                  ///< C = dead processor it was lost from.
  CellRead,       ///< Race detector: a mutable cell was read. A = cell
                  ///< serial, B = slot index, C = reading task id.
  CellWrite,      ///< Race detector: a mutable cell was written. A = cell
                  ///< serial, B = slot index, C = writing task id.
  SemAcquire,     ///< semaphore-p succeeded (or a waiter was handed the
                  ///< count). A = semaphore cell serial, C = acquiring
                  ///< task id.
  SemRelease,     ///< semaphore-v released the count (or handed it off).
                  ///< A = semaphore cell serial, C = releasing task id.
  CheckpointTaken,///< A checkpoint record was captured at a quantum
                  ///< boundary. A = task id, B = capture cost in cycles,
                  ///< C = the task's side-effect epoch at capture.
  TaskRestored,   ///< A lost task was resumed from its newest checkpoint
                  ///< instead of re-spawned. A = task id, B = new home
                  ///< processor, C = dead processor it was lost from.
  GroupQuotaStop, ///< A group tripped its live-words heap quota. A =
                  ///< group id, B = account words, C = quota words.
  GroupBudgetStop,///< A group tripped its busy-cycle budget. A = group
                  ///< id, B = cycles used, C = budget.
  SupervisorRestart, ///< A scheduled restart fired. A = group id,
                  ///< B = attempt (1-based).
  SupervisorGaveUp,  ///< Restart storm ended permanently. A = group id,
                  ///< B = restarts taken.
  GroupShed,      ///< Load shedding killed a quota violator under global
                  ///< memory pressure. A = group id, B = account words,
                  ///< C = priority.
  GroupQueued,    ///< The admission gate parked a launch. A = group id.
  GroupAdmitted,  ///< A launch was admitted (B = virtual cycles it waited
                  ///< in the queue; 0 at the initial gate). A = group id.
};

/// Human-readable name of \p K ("task-create", "steal-attempt", ...).
const char *traceEventKindName(TraceEventKind K);

class TraceObserver;

/// One recorded event. 32 bytes; buffers are flat vectors and the stream
/// sink writes this struct raw (same-machine format; readTraceFile
/// validates the record size).
struct TraceEvent {
  uint64_t Clock; ///< Emitting processor's virtual clock.
  uint64_t A;     ///< Kind-specific payload.
  uint64_t C;     ///< Kind-specific payload (DAG edge info).
  uint32_t B;     ///< Kind-specific payload.
  uint8_t Proc;   ///< Emitting processor id.
  TraceEventKind Kind;
};

/// Where record() puts events.
enum class TraceSinkMode : uint8_t {
  Unbounded, ///< In-memory vector, grows without limit.
  Ring,      ///< In-memory circular buffer of ringCapacity() events.
  Stream,    ///< Appended to a binary file; nothing buffered.
};

/// The recorder. Owned by the Engine; cleared by Engine::resetStats so a
/// buffer always describes exactly one measured run. The sink mode, the
/// future-site table and the resolve-serial counter survive clear() (sites
/// are properties of the loaded program; serials must never repeat within
/// an engine, or a stale stamp on a long-lived future could alias a fresh
/// one).
class Tracer {
public:
  ~Tracer();

  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  /// Appends one event. Callers on hot paths should guard with enabled();
  /// record() re-checks so unguarded calls stay correct.
  void record(TraceEventKind Kind, unsigned Proc, uint64_t Clock,
              uint64_t A = 0, uint64_t B = 0, uint64_t C = 0) {
    if (!Enabled)
      return;
    ++Emitted;
    TraceEvent E{Clock, A, C, static_cast<uint32_t>(B),
                 static_cast<uint8_t>(Proc), Kind};
    if (Observer)
      notifyObserver(E);
    if (Mode == TraceSinkMode::Unbounded) {
      Events.push_back(E);
      return;
    }
    recordSlow(E);
  }

  /// Attaches \p Obs as the online stream consumer (nullptr detaches). The
  /// observer is fed every emitted event before sink buffering, so it is
  /// immune to ring-sink drops. Survives clear(): the observer's lifetime
  /// is tied to the engine, not to one measured run.
  void setObserver(TraceObserver *Obs) { Observer = Obs; }
  TraceObserver *observer() const { return Observer; }

  /// The buffered events in chronological emission order (a ring is
  /// linearized on access). Empty in stream mode.
  const std::vector<TraceEvent> &events() const;
  /// Number of events currently buffered (0 in stream mode).
  size_t size() const {
    return Mode == TraceSinkMode::Stream ? 0 : Events.size();
  }
  /// Drops buffered events and resets the emission counters; in stream
  /// mode the sink file is rewound so it describes the next run only.
  void clear();

  /// \name Drop accounting: recorded() + dropped() == emitted(), always.
  /// @{
  uint64_t emitted() const { return Emitted; }
  uint64_t dropped() const { return Dropped; }
  uint64_t recorded() const { return Emitted - Dropped; }
  /// @}

  /// \name Sink configuration
  /// @{
  TraceSinkMode mode() const { return Mode; }
  size_t ringCapacity() const { return RingCap; }
  const std::string &streamPath() const { return StreamPath; }
  void setUnbounded();
  /// Keep only the most recent \p N events (N >= 1).
  void setRingCapacity(size_t N);
  /// Streams events to \p Path; false (with the mode unchanged) when the
  /// file cannot be opened.
  bool openStream(const std::string &Path);
  /// Flushes the stream sink and patches its header counts so the file is
  /// complete; no-op in the in-memory modes.
  void flushStream();
  /// Parses a sink spec — "unbounded" (or ""), "ring:N", "stream[:PATH]" —
  /// and applies it. False (and \p Err set) on a malformed spec.
  bool configureSink(const std::string &Spec, std::string &Err);
  /// @}

  /// \name DAG bookkeeping for the critical-path profiler
  /// @{
  /// Fresh serial stamped into a future at resolve time; never repeats
  /// within an engine.
  uint64_t newResolveSerial() { return ++ResolveSerialCounter; }
  /// Interns the future site (\p CodeKey, \p Pc) — one id per textual
  /// `future` expression — naming it "<Name>+<Pc>". Call only while
  /// enabled; ids are assigned in first-use order, so identical runs get
  /// identical tables.
  uint32_t futureSiteId(const void *CodeKey, uint32_t Pc,
                        std::string_view Name);
  const std::vector<std::string> &siteNames() const { return SiteNames; }
  /// @}

private:
  void recordSlow(const TraceEvent &E);
  void notifyObserver(const TraceEvent &E);
  void closeStreamFile();
  void writeStreamHeader();

  TraceObserver *Observer = nullptr;

  bool Enabled = false;
  TraceSinkMode Mode = TraceSinkMode::Unbounded;
  size_t RingCap = 0;
  mutable std::vector<TraceEvent> Events;
  mutable size_t RingHead = 0; ///< Index of the oldest event (ring mode).
  uint64_t Emitted = 0;
  uint64_t Dropped = 0;

  std::FILE *StreamFile = nullptr;
  std::string StreamPath;

  uint64_t ResolveSerialCounter = 0;
  std::map<std::pair<const void *, uint32_t>, uint32_t> SiteIds;
  std::vector<std::string> SiteNames;
};

/// Online consumer of the event stream. An observer sees *every* emitted
/// event, before sink buffering/dropping, so it stays complete even when a
/// ring sink is overwriting history (the race detector relies on this: a
/// bounded ring keeps memory flat while the online checker still sees the
/// full stream).
class TraceObserver {
public:
  virtual ~TraceObserver() = default;
  virtual void onTraceEvent(const TraceEvent &E) = 0;
};

/// A trace loaded back from a stream-sink file.
struct TraceFile {
  std::vector<TraceEvent> Events;
  uint64_t Emitted = 0;
  uint64_t Dropped = 0;
};

/// Loads a binary trace written by the stream sink. False (and \p Err
/// set) on open failure, a foreign/short header, or a truncated body.
bool readTraceFile(const std::string &Path, TraceFile &Out, std::string &Err);

} // namespace mult

#endif // MULT_OBS_TRACE_H
