//===----------------------------------------------------------------------===//
///
/// \file
/// Chrome trace-event JSON exporter implementation.
///
/// Duration slices are reconstructed per processor from the event stream:
/// a task-start opens a run slice which the next block/finish/stop on the
/// same processor closes; idle-begin/idle-end and gc-begin/gc-end pair up
/// directly. A GC pause interrupting a run or idle slice splits it — the
/// interrupted slice closes at gc-begin and reopens at gc-end — so slices
/// on one row never overlap except for proper nesting.
///
//===----------------------------------------------------------------------===//

#include "obs/TraceExport.h"

#include "core/Stats.h"
#include "core/Task.h"
#include "support/StrUtil.h"

#include <optional>

using namespace mult;

namespace {

double toMicros(uint64_t Cycles) {
  return static_cast<double>(Cycles) * EngineStats::MicrosecondsPerCycle;
}

/// Serializes one JSON event object, managing the separating commas.
class EventWriter {
public:
  explicit EventWriter(OutStream &OS) : OS(OS) {}

  void meta(const char *Name, unsigned Tid, const std::string &Value) {
    begin();
    OS << "{\"name\":\"" << Name << "\",\"ph\":\"M\",\"pid\":0,\"tid\":"
       << Tid << ",\"args\":{\"name\":\"" << Value << "\"}}";
  }

  void slice(const std::string &Name, unsigned Tid, uint64_t StartCycles,
             uint64_t EndCycles) {
    begin();
    OS << "{\"name\":\"" << Name << "\",\"ph\":\"X\",\"pid\":0,\"tid\":"
       << Tid << strFormat(",\"ts\":%.3f,\"dur\":%.3f",
                           toMicros(StartCycles),
                           toMicros(EndCycles - StartCycles))
       << "}";
  }

  void instant(const char *Name, unsigned Tid, uint64_t Cycles, uint64_t A,
               uint64_t B) {
    begin();
    OS << "{\"name\":\"" << Name << "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,"
       << "\"tid\":" << Tid << strFormat(",\"ts\":%.3f", toMicros(Cycles))
       << ",\"args\":{\"a\":" << A << ",\"b\":" << B << "}}";
  }

  void counter(unsigned Tid, uint64_t Cycles, uint64_t Busy, uint64_t Idle,
               uint64_t Gc) {
    begin();
    OS << "{\"name\":\"cycles\",\"ph\":\"C\",\"pid\":0,\"tid\":" << Tid
       << strFormat(",\"ts\":%.3f", toMicros(Cycles)) << ",\"args\":{\"busy\":"
       << Busy << ",\"idle\":" << Idle << ",\"gc\":" << Gc << "}}";
  }

private:
  void begin() {
    if (!First)
      OS << ",\n ";
    First = false;
  }

  OutStream &OS;
  bool First = true;
};

/// Rebuilds the duration slices of one processor's row.
class RowBuilder {
public:
  RowBuilder(EventWriter &W, unsigned Proc) : W(W), Proc(Proc) {}

  void feed(const TraceEvent &E) {
    switch (E.Kind) {
    case TraceEventKind::TaskStart:
      closeTask(E.Clock);
      OpenTask = Span{E.A, E.Clock};
      break;
    case TraceEventKind::TaskBlock:
    case TraceEventKind::TaskFinish:
    case TraceEventKind::TaskStopped:
      closeTask(E.Clock);
      break;
    case TraceEventKind::IdleBegin:
      OpenIdle = E.Clock;
      break;
    case TraceEventKind::IdleEnd:
      closeIdle(E.Clock);
      break;
    case TraceEventKind::GcBegin:
      // A pause interrupts whatever the processor was doing; split the
      // interrupted slice around the pause.
      if (OpenTask) {
        Interrupted = OpenTask;
        closeTask(E.Clock);
      } else if (OpenIdle) {
        IdleInterrupted = true;
        closeIdle(E.Clock);
      }
      GcStart = E.Clock;
      break;
    case TraceEventKind::GcEnd:
      if (GcStart) {
        W.slice("gc", Proc, *GcStart, E.Clock);
        GcStart.reset();
      }
      if (Interrupted) {
        OpenTask = Span{Interrupted->Task, E.Clock};
        Interrupted.reset();
      } else if (IdleInterrupted) {
        OpenIdle = E.Clock;
        IdleInterrupted = false;
      }
      break;
    case TraceEventKind::TaskCreate:
    case TraceEventKind::TaskResume:
    case TraceEventKind::TaskParked:
    case TraceEventKind::TaskDropped:
    case TraceEventKind::FutureCreate:
    case TraceEventKind::FutureResolve:
    case TraceEventKind::TouchHit:
    case TraceEventKind::TouchBlock:
    case TraceEventKind::StealAttempt:
    case TraceEventKind::InlineDecision:
    case TraceEventKind::SeamSteal:
    case TraceEventKind::CellRead:
    case TraceEventKind::CellWrite:
    case TraceEventKind::SemAcquire:
    case TraceEventKind::SemRelease:
      break; // Task, future, scheduling and memory points: no slice
             // boundary (a TouchBlock is followed by the TaskBlock that
             // closes the slice).
    case TraceEventKind::FaultInjected:
    case TraceEventKind::ProcKilled:
    case TraceEventKind::TaskRecovered:
    case TraceEventKind::TaskOrphaned:
    case TraceEventKind::CheckpointTaken:
    case TraceEventKind::TaskRestored:
    case TraceEventKind::ByzantineDetected:
      break; // Fault and recovery points: instants, no slice boundary.
    case TraceEventKind::ThresholdChange:
    case TraceEventKind::PolicyDecision:
      break; // Policy choices: instants, no slice boundary.
    case TraceEventKind::GroupQuotaStop:
    case TraceEventKind::GroupBudgetStop:
    case TraceEventKind::GroupShed:
    case TraceEventKind::GroupQueued:
    case TraceEventKind::GroupAdmitted:
    case TraceEventKind::SupervisorRestart:
    case TraceEventKind::SupervisorGaveUp:
      break; // Tenant control: a stopped task's own TaskStopped closes
             // its slice.
    }
  }

  void finish(uint64_t EndClock) {
    closeTask(EndClock);
    closeIdle(EndClock);
    if (GcStart) {
      W.slice("gc", Proc, *GcStart, EndClock);
      GcStart.reset();
    }
  }

private:
  struct Span {
    uint64_t Task;
    uint64_t Start;
  };

  void closeTask(uint64_t End) {
    if (!OpenTask)
      return;
    W.slice(strFormat("task %u", taskIndex(OpenTask->Task)), Proc,
            OpenTask->Start, End);
    OpenTask.reset();
  }

  void closeIdle(uint64_t End) {
    if (!OpenIdle)
      return;
    W.slice("idle", Proc, *OpenIdle, End);
    OpenIdle.reset();
  }

  EventWriter &W;
  unsigned Proc;
  std::optional<Span> OpenTask;
  std::optional<Span> Interrupted;
  std::optional<uint64_t> OpenIdle;
  std::optional<uint64_t> GcStart;
  bool IdleInterrupted = false;
};

/// True for kinds the exporter renders as instants (everything that is not
/// a slice boundary consumed by RowBuilder).
bool isInstantKind(TraceEventKind K) {
  switch (K) {
  case TraceEventKind::TaskStart:
  case TraceEventKind::IdleBegin:
  case TraceEventKind::IdleEnd:
  case TraceEventKind::GcBegin:
  case TraceEventKind::GcEnd:
    return false; // Slice openings and the idle/GC boundaries.
  case TraceEventKind::TaskBlock:
  case TraceEventKind::TaskFinish:
  case TraceEventKind::TaskStopped:
    return true; // Close a task slice and still mark why it ended.
  case TraceEventKind::TaskCreate:
  case TraceEventKind::TaskResume:
  case TraceEventKind::TaskParked:
  case TraceEventKind::TaskDropped:
  case TraceEventKind::FutureCreate:
  case TraceEventKind::FutureResolve:
  case TraceEventKind::TouchHit:
  case TraceEventKind::TouchBlock:
  case TraceEventKind::StealAttempt:
  case TraceEventKind::InlineDecision:
  case TraceEventKind::SeamSteal:
  case TraceEventKind::CellRead:
  case TraceEventKind::CellWrite:
  case TraceEventKind::SemAcquire:
  case TraceEventKind::SemRelease:
    return true; // Task, future, scheduling and memory points.
  case TraceEventKind::FaultInjected:
  case TraceEventKind::ProcKilled:
  case TraceEventKind::TaskRecovered:
  case TraceEventKind::TaskOrphaned:
  case TraceEventKind::CheckpointTaken:
  case TraceEventKind::TaskRestored:
  case TraceEventKind::ByzantineDetected:
  case TraceEventKind::ThresholdChange:
  case TraceEventKind::PolicyDecision:
    return true; // Fault, recovery and policy points.
  case TraceEventKind::GroupQuotaStop:
  case TraceEventKind::GroupBudgetStop:
  case TraceEventKind::GroupShed:
  case TraceEventKind::GroupQueued:
  case TraceEventKind::GroupAdmitted:
  case TraceEventKind::SupervisorRestart:
  case TraceEventKind::SupervisorGaveUp:
    return true; // Tenant control points.
  }
  return true;
}

} // namespace

void mult::writeChromeTrace(OutStream &OS, const Tracer &Tr,
                            const Machine &M) {
  unsigned N = M.numProcessors();
  OS << "{\"traceEvents\":[\n ";
  EventWriter W(OS);
  W.meta("process_name", 0, "mul-t virtual machine");
  for (unsigned P = 0; P < N; ++P)
    W.meta("thread_name", P, strFormat("vcpu %u", P));

  std::vector<RowBuilder> Rows;
  Rows.reserve(N);
  for (unsigned P = 0; P < N; ++P)
    Rows.emplace_back(W, P);

  for (const TraceEvent &E : Tr.events()) {
    if (E.Proc < N)
      Rows[E.Proc].feed(E);
    if (isInstantKind(E.Kind))
      W.instant(traceEventKindName(E.Kind), E.Proc, E.Clock, E.A, E.B);
  }
  for (unsigned P = 0; P < N; ++P) {
    const Processor &Proc = M.processor(P);
    Rows[P].finish(Proc.Clock);
    W.counter(P, Proc.Clock, Proc.BusyCycles, Proc.IdleCycles, Proc.GcCycles);
  }
  OS << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::string mult::chromeTraceJson(const Tracer &Tr, const Machine &M) {
  std::string Out;
  StringOutStream OS(Out);
  writeChromeTrace(OS, Tr, M);
  return Out;
}
