//===----------------------------------------------------------------------===//
///
/// \file
/// SP-relation vector-clock race checking (see RaceDetect.h).
///
//===----------------------------------------------------------------------===//

#include "analysis/RaceDetect.h"

#include "support/StrUtil.h"

using namespace mult;

namespace {
constexpr uint64_t NoTask = ~uint64_t(0); // core's InvalidTask
constexpr uint32_t NoIdx = ~0u;
} // namespace

uint32_t RaceDetector::taskIdx(uint64_t Id) {
  auto [It, Inserted] =
      TaskIdxMap.try_emplace(Id, static_cast<uint32_t>(Tasks.size()));
  if (Inserted)
    Tasks.emplace_back();
  return It->second;
}

RaceDetector::VClock RaceDetector::publish(uint32_t Idx) {
  TaskState &T = Tasks[Idx];
  VClock Pub = T.VC;
  if (T.Tick) {
    Pub[Idx] = T.Tick;
    ++T.Tick; // accesses after this fork/release point stay parallel
  }
  return Pub;
}

void RaceDetector::join(uint32_t Idx, const VClock &Pub) {
  if (Pub.empty())
    return;
  VClock &VC = Tasks[Idx].VC;
  for (const auto &[I, Tick] : Pub) {
    uint32_t &Cur = VC[I];
    if (Tick > Cur)
      Cur = Tick;
  }
}

bool RaceDetector::ordered(uint32_t PriorIdx, uint32_t PriorTick,
                           uint32_t CurIdx) const {
  if (PriorIdx == CurIdx)
    return true; // program order within one task
  const VClock &VC = Tasks[CurIdx].VC;
  auto It = VC.find(PriorIdx);
  return It != VC.end() && It->second >= PriorTick;
}

uint64_t RaceDetector::runningOn(uint8_t Proc) const {
  return Proc < Running.size() ? Running[Proc] : NoTask;
}

void RaceDetector::report(uint64_t Cell, const Access &Prior,
                          const Access &Cur) {
  if (!Reported.emplace(Cell, Cur.Slot, Prior.Task, Cur.Task).second)
    return; // same pair of tasks on the same slot already reported
  ++RaceN;
  if (Races.size() < kMaxStoredRaces)
    Races.push_back({Cell, Cur.Slot, Prior, Cur});
}

void RaceDetector::access(const TraceEvent &E, bool Write) {
  ++AccessN;
  CellsSeen.insert(E.A);
  uint32_t Idx = taskIdx(E.C);
  TaskState &T = Tasks[Idx];
  if (T.Tick == 0)
    T.Tick = 1; // materialize: this task now owns a clock component

  Access Cur;
  Cur.Task = E.C;
  Cur.Clock = E.Clock;
  Cur.Slot = E.B;
  Cur.SiteId = T.SiteId;
  Cur.Proc = E.Proc;
  Cur.Write = Write;

  SlotState &S = Slots[{E.A, E.B}];
  if (S.WIdx != NoIdx && !ordered(S.WIdx, S.WTick, Idx))
    report(E.A, S.WInfo, Cur);
  if (Write) {
    for (const ReadEpoch &R : S.Reads)
      if (!ordered(R.Idx, R.Tick, Idx))
        report(E.A, R.Info, Cur);
    S.WIdx = Idx;
    S.WTick = T.Tick;
    S.WInfo = Cur;
    S.Reads.clear();
    return;
  }
  for (ReadEpoch &R : S.Reads)
    if (R.Idx == Idx) {
      R.Tick = T.Tick;
      R.Info = Cur;
      return;
    }
  S.Reads.push_back({Idx, T.Tick, Cur});
}

void RaceDetector::onTraceEvent(const TraceEvent &E) {
  switch (E.Kind) {
  case TraceEventKind::TaskCreate: {
    uint32_t Child = taskIdx(E.A);
    if (E.C != NoTask) {
      join(Child, publish(taskIdx(E.C)));
    } else {
      // A parentless task is a run root: Machine::run starts from
      // quiescence, so everything already seen happens-before it. This
      // serializes successive top-level evals -- a REPL define does not
      // "race" with the program run after it.
      VClock &VC = Tasks[Child].VC;
      for (uint32_t I = 0; I < Tasks.size(); ++I)
        if (Tasks[I].Tick > VC[I])
          VC[I] = Tasks[I].Tick;
    }
    break;
  }
  case TraceEventKind::TaskStart:
    if (E.Proc >= Running.size())
      Running.resize(E.Proc + 1, NoTask);
    Running[E.Proc] = E.A;
    break;
  case TraceEventKind::FutureCreate:
    Tasks[taskIdx(E.A)].SiteId = static_cast<uint32_t>(E.B) + 1;
    break;
  case TraceEventKind::FutureResolve: {
    // The resolver is whatever task the emitting processor last started.
    if (E.C == 0)
      break;
    uint64_t Resolver = runningOn(E.Proc);
    ResolveVC[E.C] =
        Resolver != NoTask ? publish(taskIdx(Resolver)) : VClock();
    break;
  }
  case TraceEventKind::TouchHit: {
    if (E.C == 0)
      break; // resolved while tracing was off; no edge to join
    auto It = ResolveVC.find(E.C);
    if (It != ResolveVC.end())
      join(taskIdx(E.A), It->second);
    break;
  }
  case TraceEventKind::TaskResume:
    if (E.C != NoTask)
      join(taskIdx(E.A), publish(taskIdx(E.C)));
    break;
  case TraceEventKind::InlineDecision: {
    // A lazy seam (A == 2) is a fork point: snapshot the pusher so a
    // stolen continuation starts parallel to the child code the pusher
    // keeps running.
    if (E.A != 2)
      break;
    uint64_t Pusher = runningOn(E.Proc);
    if (Pusher != NoTask)
      SeamVC[E.C] = {publish(taskIdx(Pusher)),
                     static_cast<uint32_t>(E.B) + 1};
    break;
  }
  case TraceEventKind::SeamSteal: {
    uint32_t Idx = taskIdx(E.A);
    auto It = SeamVC.find(E.C);
    if (It != SeamVC.end()) {
      join(Idx, It->second.first);
      Tasks[Idx].SiteId = It->second.second;
      SeamVC.erase(It);
    }
    break;
  }
  case TraceEventKind::SemAcquire: {
    auto It = SemVC.find(E.A);
    if (It != SemVC.end())
      join(taskIdx(E.C), It->second);
    break;
  }
  case TraceEventKind::SemRelease: {
    // Accumulate rather than overwrite: transitive release knowledge
    // only adds happens-before edges (conservative, fewer false races).
    VClock Pub = publish(taskIdx(E.C));
    VClock &L = SemVC[E.A];
    for (const auto &[I, Tick] : Pub) {
      uint32_t &Cur = L[I];
      if (Tick > Cur)
        Cur = Tick;
    }
    break;
  }
  case TraceEventKind::CellRead:
    access(E, /*Write=*/false);
    break;
  case TraceEventKind::CellWrite:
    access(E, /*Write=*/true);
    break;
  case TraceEventKind::TaskBlock:
  case TraceEventKind::TaskFinish:
  case TraceEventKind::TaskStopped:
  case TraceEventKind::TaskParked:
  case TraceEventKind::TaskDropped:
  case TraceEventKind::TouchBlock:
    break; // The edge out of a block or finish is joined at the matching
           // TaskResume, FutureResolve or TouchHit.
  case TraceEventKind::StealAttempt:
  case TraceEventKind::IdleBegin:
  case TraceEventKind::IdleEnd:
    break; // A steal moves a task already ordered by its TaskCreate or
           // SeamSteal; an idle processor runs no task.
  case TraceEventKind::GcBegin:
  case TraceEventKind::GcEnd:
    break; // A pause moves objects, never a value a task reads.
  case TraceEventKind::FaultInjected:
  case TraceEventKind::ThresholdChange:
  case TraceEventKind::PolicyDecision:
    break; // Bookkeeping around a fork or resolve whose own event
           // carries the edge.
  case TraceEventKind::ProcKilled:
  case TraceEventKind::TaskRecovered:
  case TraceEventKind::TaskRestored:
  case TraceEventKind::TaskOrphaned:
  case TraceEventKind::CheckpointTaken:
    break; // A recovered or restored task keeps its id and vector clock,
           // and its next TaskStart names the survivor it runs on; a
           // checkpoint is a capture inside the running task.
  case TraceEventKind::GroupQuotaStop:
  case TraceEventKind::GroupBudgetStop:
  case TraceEventKind::GroupShed:
  case TraceEventKind::GroupQueued:
  case TraceEventKind::GroupAdmitted:
  case TraceEventKind::SupervisorRestart:
  case TraceEventKind::SupervisorGaveUp:
    break; // Tenant control parks, drops or re-queues whole tasks; their
           // TaskCreate already ordered them.
  }
}

void RaceDetector::clear() {
  TaskIdxMap.clear();
  Tasks.clear();
  ResolveVC.clear();
  SeamVC.clear();
  SemVC.clear();
  Slots.clear();
  CellsSeen.clear();
  Running.clear();
  Reported.clear();
  Races.clear();
  RaceN = 0;
  AccessN = 0;
}

std::string
RaceDetector::describe(const Race &R,
                       const std::vector<std::string> &SiteNames) const {
  auto Side = [&](const Access &A) {
    std::string Site =
        A.SiteId && A.SiteId <= SiteNames.size()
            ? "spawned at " + SiteNames[A.SiteId - 1]
            : std::string("top level");
    return strFormat("%s by task %llu (%s) at cycle %llu on proc %u",
                     A.Write ? "write" : "read ",
                     static_cast<unsigned long long>(A.Task & 0xffffffffu),
                     Site.c_str(), static_cast<unsigned long long>(A.Clock),
                     static_cast<unsigned>(A.Proc));
  };
  return strFormat("race on cell %llu slot %u:\n  %s\n  %s\n",
                   static_cast<unsigned long long>(R.Cell), R.Slot,
                   Side(R.Prior).c_str(), Side(R.Current).c_str());
}

bool mult::analyzeRaces(const std::vector<TraceEvent> &Events,
                        uint64_t Dropped, RaceDetector &D, std::string &Err) {
  D.clear();
  if (Dropped != 0) {
    Err = strFormat(
        "trace dropped %llu events (ring overflow or sink error); the "
        "series-parallel relation is incomplete and race verdicts would be "
        "unreliable -- rerun with an unbounded/larger sink or the online "
        "detector (MULT_RACE=1)",
        static_cast<unsigned long long>(Dropped));
    return false;
  }
  for (const TraceEvent &E : Events)
    D.onTraceEvent(E);
  return true;
}
