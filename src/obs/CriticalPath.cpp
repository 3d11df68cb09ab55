//===----------------------------------------------------------------------===//
///
/// \file
/// Critical-path analyzer implementation.
///
/// The algorithm is a single chronological sweep that maintains, per
/// processor, an *open run segment* (which task is on the processor,
/// since which clock, and the critical-path length accumulated at that
/// anchor) and, per task, the path length at which the task last became
/// ready. Busy cycles advance both the global work counter and the
/// current segment's path; dependence edges (spawn, resolve->touch,
/// resolve->resume, seam split) transfer path lengths between tasks with
/// a max. Span is the largest path length any task reaches. Every path
/// increment is also a work increment and joins only copy existing path
/// values, so span <= work holds by construction.
///
/// For the per-site on-path attribution each task keeps the short list of
/// joins that *raised* its path (strictly increasing path values). The
/// final backtrack walks from the span endpoint through dominating
/// predecessors; the cycles a task contributes on the path are the
/// difference between the target path and its last dominating join below
/// it. This attributes the span exactly; the only approximation in the
/// whole analysis is touch-hits whose future was resolved while tracing
/// was off (counted in UnknownJoins, which can only underestimate span).
///
//===----------------------------------------------------------------------===//

#include "obs/CriticalPath.h"

#include "core/Task.h"

#include <algorithm>
#include <map>
#include <numeric>

using namespace mult;

namespace {

constexpr uint32_t NoSite = ~uint32_t(0);

/// A join that raised a task's path: after it, the task's path grows only
/// by the task's own busy cycles until the next dominating join.
struct Join {
  TaskId Pred;         ///< InvalidTask: creation with no traced parent.
  uint64_t PathAtJoin; ///< Path length inherited from Pred.
};

struct TaskInfo {
  uint64_t ReadyPath = 0; ///< Path at which the task last became ready.
  uint64_t Work = 0;      ///< Busy cycles executed so far.
  uint64_t EndPath = 0;   ///< Path at finish (or last block when unfinished).
  uint32_t Site = NoSite; ///< Future site that spawned it, if any.
  bool Started = false;
  bool FirstStartStolen = false;
  std::vector<Join> Joins; ///< PathAtJoin strictly increasing.
};

struct ProcState {
  bool HasTask = false;
  bool InGc = false;
  TaskId Task = InvalidTask;
  uint64_t Anchor = 0; ///< Clock at which Path was last brought current.
  uint64_t Path = 0;   ///< Critical-path length of the running chain.
};

/// Events that publish a path other processors may consume at the same
/// clock sort before plain consumers (stable within a rank, so per-proc
/// emission order is preserved).
int sortRank(TraceEventKind K) {
  switch (K) {
  case TraceEventKind::TaskCreate:
  case TraceEventKind::FutureCreate:
  case TraceEventKind::FutureResolve:
  case TraceEventKind::TaskResume:
  case TraceEventKind::SeamSteal:
  case TraceEventKind::TaskFinish:
    return 0;
  case TraceEventKind::TaskStart:
  case TraceEventKind::TaskBlock:
  case TraceEventKind::TaskStopped:
  case TraceEventKind::TaskParked:
  case TraceEventKind::TaskDropped:
  case TraceEventKind::TouchHit:
  case TraceEventKind::TouchBlock:
  case TraceEventKind::StealAttempt:
  case TraceEventKind::InlineDecision:
  case TraceEventKind::GcBegin:
  case TraceEventKind::GcEnd:
  case TraceEventKind::IdleBegin:
  case TraceEventKind::IdleEnd:
  case TraceEventKind::FaultInjected:
  case TraceEventKind::ThresholdChange:
  case TraceEventKind::PolicyDecision:
  case TraceEventKind::ProcKilled:
  case TraceEventKind::TaskRecovered:
  case TraceEventKind::TaskOrphaned:
  case TraceEventKind::CellRead:
  case TraceEventKind::CellWrite:
  case TraceEventKind::SemAcquire:
  case TraceEventKind::SemRelease:
  case TraceEventKind::CheckpointTaken:
  case TraceEventKind::TaskRestored:
  case TraceEventKind::GroupQuotaStop:
  case TraceEventKind::GroupBudgetStop:
  case TraceEventKind::SupervisorRestart:
  case TraceEventKind::SupervisorGaveUp:
  case TraceEventKind::GroupShed:
  case TraceEventKind::GroupQueued:
  case TraceEventKind::GroupAdmitted:
    return 1;
  }
  return 1;
}

} // namespace

CriticalPathReport
mult::analyzeCriticalPath(const std::vector<TraceEvent> &Events,
                          uint64_t Dropped,
                          const std::vector<std::string> &SiteNames) {
  CriticalPathReport R;
  if (Dropped) {
    R.Error = "trace dropped " + std::to_string(Dropped) +
              " events (ring overflow or sink error); the DAG is "
              "incomplete — rerun with an unbounded or larger sink";
    return R;
  }
  if (Events.empty()) {
    R.Error = "trace is empty (was tracing enabled for the run?)";
    return R;
  }

  // Chronological sweep order: by clock, publishers first within a clock,
  // per-processor emission order preserved.
  std::vector<uint32_t> Order(Events.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&](uint32_t L, uint32_t Rr) {
    if (Events[L].Clock != Events[Rr].Clock)
      return Events[L].Clock < Events[Rr].Clock;
    return sortRank(Events[L].Kind) < sortRank(Events[Rr].Kind);
  });

  std::map<TaskId, TaskInfo> TaskMap;
  std::map<unsigned, ProcState> Procs;
  // Resolve serial -> (path, resolver) published by FutureResolve.
  std::map<uint64_t, Join> ResolveEdges;
  // Seam serial -> (path, pusher, site) published by InlineDecision(lazy).
  struct SeamPub {
    Join J;
    uint32_t Site;
  };
  std::map<uint64_t, SeamPub> SeamEdges;
  std::map<uint32_t, FutureSiteProfile> SiteMap;

  auto site = [&](uint32_t Id) -> FutureSiteProfile & {
    FutureSiteProfile &S = SiteMap[Id];
    if (S.Name.empty())
      S.Name = Id < SiteNames.size() ? SiteNames[Id]
                                     : "site#" + std::to_string(Id);
    return S;
  };

  // Accrues busy cycles up to \p Clock on \p PS's open segment.
  auto advance = [&](ProcState &PS, uint64_t Clock) {
    if (Clock > PS.Anchor) {
      if (PS.HasTask && !PS.InGc) {
        uint64_t Delta = Clock - PS.Anchor;
        PS.Path += Delta;
        R.Work += Delta;
        TaskMap[PS.Task].Work += Delta;
      }
      PS.Anchor = Clock;
    }
  };

  auto closeSegment = [&](ProcState &PS, uint64_t Clock, bool Finished) {
    advance(PS, Clock);
    if (!PS.HasTask)
      return;
    TaskInfo &T = TaskMap[PS.Task];
    if (Finished)
      T.EndPath = PS.Path;
    else
      T.ReadyPath = std::max(T.ReadyPath, PS.Path);
    PS.HasTask = false;
  };

  for (uint32_t Idx : Order) {
    const TraceEvent &E = Events[Idx];
    ProcState &PS = Procs[E.Proc];
    switch (E.Kind) {
    case TraceEventKind::TaskCreate: {
      advance(PS, E.Clock);
      TaskInfo &Child = TaskMap[E.A];
      // The creating processor's current path is the child's earliest
      // possible start. This also covers parentless root tasks: successive
      // top-level forms run by one engine are issued serially, so a root
      // created after earlier work on this processor depends on it even
      // though no task id links them.
      Child.ReadyPath = PS.Path;
      Child.Joins.push_back(Join{
          E.C != InvalidTask && PS.HasTask ? PS.Task : InvalidTask, PS.Path});
      break;
    }
    case TraceEventKind::TaskStart: {
      advance(PS, E.Clock);
      TaskInfo &T = TaskMap[E.A];
      if (!T.Started) {
        T.Started = true;
        T.FirstStartStolen = E.B == 1;
        ++R.Tasks;
      }
      PS.HasTask = true;
      PS.Task = E.A;
      PS.Anchor = E.Clock;
      PS.Path = T.ReadyPath;
      ++R.Segments;
      break;
    }
    case TraceEventKind::TaskBlock:
    case TraceEventKind::TaskStopped:
      closeSegment(PS, E.Clock, /*Finished=*/false);
      break;
    case TraceEventKind::TaskFinish:
      closeSegment(PS, E.Clock, /*Finished=*/true);
      break;
    case TraceEventKind::TaskResume: {
      // Emitted by the waker's processor: the waiter cannot run before
      // the waker's path at this point.
      advance(PS, E.Clock);
      TaskInfo &T = TaskMap[E.A];
      if (PS.Path > T.ReadyPath) {
        T.ReadyPath = PS.Path;
        T.Joins.push_back(Join{E.C, PS.Path});
        ++R.JoinEdges;
      }
      break;
    }
    case TraceEventKind::FutureResolve:
      advance(PS, E.Clock);
      if (E.C)
        ResolveEdges[E.C] =
            Join{PS.HasTask ? PS.Task : InvalidTask, PS.Path};
      break;
    case TraceEventKind::TouchHit: {
      advance(PS, E.Clock);
      if (!E.C) {
        ++R.UnknownJoins; // Resolved while tracing was off; edge unknowable.
        break;
      }
      auto It = ResolveEdges.find(E.C);
      if (It == ResolveEdges.end()) {
        ++R.UnknownJoins; // Stale stamp from before the last resetStats.
        break;
      }
      if (PS.HasTask && It->second.PathAtJoin > PS.Path) {
        PS.Path = It->second.PathAtJoin;
        TaskMap[PS.Task].Joins.push_back(It->second);
        ++R.JoinEdges;
      }
      break;
    }
    case TraceEventKind::InlineDecision: {
      FutureSiteProfile &S = site(static_cast<uint32_t>(E.B));
      if (E.A == 0) {
        ++S.Inlined;
      } else if (E.A == 1) {
        ++S.Queued;
      } else {
        ++S.LazySeams;
        advance(PS, E.Clock);
        SeamEdges[E.C] =
            SeamPub{Join{PS.HasTask ? PS.Task : InvalidTask, PS.Path},
                    static_cast<uint32_t>(E.B)};
      }
      break;
    }
    case TraceEventKind::FutureCreate:
      TaskMap[E.A].Site = static_cast<uint32_t>(E.B);
      break;
    case TraceEventKind::SeamSteal: {
      // The split-off parent continuation (task E.A) became runnable when
      // the seam was pushed, not when the thief arrived.
      TaskInfo &T = TaskMap[E.A];
      auto It = SeamEdges.find(E.C);
      if (It != SeamEdges.end()) {
        T.ReadyPath = It->second.J.PathAtJoin;
        T.Joins.push_back(It->second.J);
        T.Site = It->second.Site;
        ++site(It->second.Site).SeamSplits;
        ++R.JoinEdges;
      } else {
        T.Joins.push_back(Join{InvalidTask, 0});
      }
      break;
    }
    case TraceEventKind::GcBegin:
      advance(PS, E.Clock);
      PS.InGc = true;
      break;
    case TraceEventKind::GcEnd:
      PS.Anchor = std::max(PS.Anchor, E.Clock);
      PS.InGc = false;
      break;
    case TraceEventKind::TaskParked:
    case TraceEventKind::TaskDropped:
    case TraceEventKind::TouchBlock:
    case TraceEventKind::StealAttempt:
    case TraceEventKind::IdleBegin:
    case TraceEventKind::IdleEnd:
    case TraceEventKind::FaultInjected:
    case TraceEventKind::ThresholdChange:
    case TraceEventKind::PolicyDecision:
    case TraceEventKind::ProcKilled:
    case TraceEventKind::TaskRecovered:
    case TraceEventKind::TaskOrphaned:
    case TraceEventKind::CellRead:
    case TraceEventKind::CellWrite:
    case TraceEventKind::SemAcquire:
    case TraceEventKind::SemRelease:
      break; // No effect on the DAG.
    case TraceEventKind::CheckpointTaken:
      break; // A capture inside the running segment; its cost is busy time.
    case TraceEventKind::TaskRestored:
      break; // Like TaskRecovered: the task's next TaskStart opens its
             // segment from the ReadyPath it already has.
    case TraceEventKind::GroupQuotaStop:
    case TraceEventKind::GroupBudgetStop:
      break; // The stopped member's own TaskStopped closes its segment.
    case TraceEventKind::GroupShed:
      break; // The shed group's tasks end by TaskDropped; no edge.
    case TraceEventKind::GroupQueued:
    case TraceEventKind::GroupAdmitted:
      break; // Admission is a queue push of a root whose TaskCreate is
             // already in the stream; its TaskStart opens the segment.
    case TraceEventKind::SupervisorRestart:
      break; // Re-enqueues stopped tasks; their TaskStart resumes them.
    case TraceEventKind::SupervisorGaveUp:
      break; // Bookkeeping only: no task is created or woken.
    }
  }

  // Span: the longest path reached anywhere, including tasks still open
  // at the end of the trace (blocked forever, or cut off mid-run).
  TaskId SpanTask = InvalidTask;
  for (auto &[Id, T] : TaskMap) {
    uint64_t End = std::max(T.EndPath, T.ReadyPath);
    if (End > R.Span || SpanTask == InvalidTask) {
      R.Span = End;
      SpanTask = Id;
    }
  }
  for (auto &[Id, PS] : Procs) {
    if (PS.HasTask && PS.Path > R.Span) {
      R.Span = PS.Path;
      SpanTask = PS.Task;
    }
  }

  // Backtrack the critical path, attributing each task's on-path cycles
  // to its future site. Joins have strictly increasing PathAtJoin, so the
  // dominating join below a target is the last entry <= target.
  {
    TaskId Cur = SpanTask;
    uint64_t Target = R.Span;
    size_t Steps = 0, MaxSteps = TaskMap.size() + Events.size();
    while (Cur != InvalidTask && Steps++ < MaxSteps) {
      auto It = TaskMap.find(Cur);
      if (It == TaskMap.end())
        break;
      TaskInfo &T = It->second;
      const Join *Dom = nullptr;
      for (auto J = T.Joins.rbegin(); J != T.Joins.rend(); ++J)
        if (J->PathAtJoin <= Target) {
          Dom = &*J;
          break;
        }
      uint64_t From = Dom ? Dom->PathAtJoin : 0;
      if (T.Site != NoSite)
        site(T.Site).ChildOnPath += Target - From;
      if (!Dom)
        break;
      Cur = Dom->Pred;
      Target = From;
    }
  }

  for (auto &[Id, T] : TaskMap) {
    if (T.Site == NoSite)
      continue;
    FutureSiteProfile &S = site(T.Site);
    S.ChildWork += T.Work;
    if (T.FirstStartStolen)
      ++S.StolenStarts;
  }

  R.Sites.reserve(SiteMap.size());
  for (auto &[Id, S] : SiteMap)
    R.Sites.push_back(std::move(S));
  std::stable_sort(R.Sites.begin(), R.Sites.end(),
                   [](const FutureSiteProfile &L, const FutureSiteProfile &Rr) {
                     return L.ChildWork > Rr.ChildWork;
                   });

  R.Ok = true;
  return R;
}

CriticalPathReport mult::analyzeCriticalPath(const Tracer &Tr) {
  if (Tr.mode() == TraceSinkMode::Stream) {
    CriticalPathReport R;
    R.Error = "tracer is in stream mode; load the file '" + Tr.streamPath() +
              "' with readTraceFile and analyze that";
    return R;
  }
  return analyzeCriticalPath(Tr.events(), Tr.dropped(), Tr.siteNames());
}
