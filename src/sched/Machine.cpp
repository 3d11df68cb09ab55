//===----------------------------------------------------------------------===//
///
/// \file
/// Machine implementation: the virtual-time run loop.
///
//===----------------------------------------------------------------------===//

#include "sched/Machine.h"

#include "core/Engine.h"
#include "sched/Scheduler.h"
#include "support/StrUtil.h"
#include "vm/CostModel.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <cassert>

using namespace mult;

Machine::Machine(unsigned NumProcessors, uint64_t QuantumCycles,
                 uint64_t MaxRunCycles, StealOrder Order,
                 const AdaptiveTConfig &Adaptive)
    : Quantum(QuantumCycles), MaxRunCycles(MaxRunCycles), Order(Order),
      Adaptive(Adaptive) {
  assert(NumProcessors >= 1 && "need at least one processor");
  Procs.resize(NumProcessors);
  Sleep.resize(NumProcessors);
  for (unsigned I = 0; I < NumProcessors; ++I) {
    Procs[I].Id = I;
    Procs[I].Adapt.T = Adaptive.StartT;
    beginAdaptiveWindow(Procs[I]);
  }
}

void Machine::beginAdaptiveWindow(Processor &P) {
  AdaptiveTState &A = P.Adapt;
  A.WindowEnd = P.Clock + Adaptive.WindowCycles;
  A.AttemptsAtStart = P.StealAttempts;
  A.FailedAtStart = P.StealsFailed;
  A.StolenFromAtStart = P.StolenFrom;
  A.QueuedAtStart = P.Queues.newPushes();
  P.Queues.resetWindowHighWater();
}

void Machine::rebaselineAdaptiveWindows() {
  for (Processor &P : Procs)
    beginAdaptiveWindow(P);
}

void Machine::closeAdaptiveWindow(Engine &E, Processor &P) {
  AdaptiveTState &A = P.Adapt;
  uint64_t Ordinal = ++AdaptWindowOrdinal;
  ++A.WindowsClosed;
  ++E.stats().AdaptWindows;
  P.charge(cost::AdaptiveWindow);

  WindowSignals W;
  W.StealAttempts = P.StealAttempts - A.AttemptsAtStart;
  W.StealsFailed = P.StealsFailed - A.FailedAtStart;
  W.StolenFrom = P.StolenFrom - A.StolenFromAtStart;
  W.TasksQueued = P.Queues.newPushes() - A.QueuedAtStart;
  W.QueueHighWater = P.Queues.windowHighWater();
  W.Processors = numProcessors();

  if (E.faults().armed()) {
    if (E.faults().fires(FaultKind::AdaptReset, Ordinal)) {
      // Discard the window's samples and any pending votes.
      E.noteFault(P, FaultKind::AdaptReset, Ordinal);
      A.PendingDir = 0;
      A.PendingCount = 0;
      beginAdaptiveWindow(P);
      return;
    }
    uint64_t Forced = 0;
    if (E.faults().fires(FaultKind::AdaptClamp, Ordinal, &Forced)) {
      unsigned Old = A.T;
      A.T = std::clamp(uint32_t(Forced), Adaptive.MinT, Adaptive.MaxT);
      A.PendingDir = 0;
      A.PendingCount = 0;
      E.noteFault(P, FaultKind::AdaptClamp, A.T);
      if (A.T != Old)
        E.tracer().record(TraceEventKind::ThresholdChange, P.Id, P.Clock,
                          A.T, Old, Ordinal);
      beginAdaptiveWindow(P);
      return;
    }
  }

  unsigned Old = A.T;
  int Dir = adaptive::decideStep(Adaptive, A.T, W);
  if (adaptive::applyStep(Adaptive, A, Dir)) {
    if (Dir > 0)
      ++E.stats().ThresholdRaises;
    else
      ++E.stats().ThresholdLowers;
    E.tracer().record(TraceEventKind::ThresholdChange, P.Id, P.Clock, A.T,
                      Old, Ordinal);
  }
  beginAdaptiveWindow(P);
}

std::vector<uint64_t> Machine::clocks() const {
  std::vector<uint64_t> Out;
  Out.reserve(Procs.size());
  for (const Processor &P : Procs)
    Out.push_back(P.Clock);
  return Out;
}

void Machine::setClocks(const std::vector<uint64_t> &C) {
  assert(C.size() == Procs.size());
  for (size_t I = 0; I < Procs.size(); ++I)
    Procs[I].Clock = C[I];
}

unsigned Machine::minClockProcessor() const {
  unsigned Best = ~0u;
  for (unsigned I = 0; I < Procs.size(); ++I) {
    if (Procs[I].Dead || (NumAsleep && Sleep[I].Asleep))
      continue;
    if (Best == ~0u || Procs[I].Clock < Procs[Best].Clock)
      Best = I;
  }
  return Best; // the last live processor is never killed
}

bool Machine::quiescent(const Engine &E) const {
  for (const Processor &P : Procs)
    if (!P.Dead && (P.Current != InvalidTask || P.Queues.depth() > 0))
      return false;
  return const_cast<Engine &>(E).seams().empty();
}

bool Machine::idleRoundsFail(Engine &E) const {
  bool AnyCurrent = false;
  for (const Processor &P : Procs) {
    if (P.Dead)
      continue;
    if (P.Queues.depth() > 0)
      return false;
    AnyCurrent |= P.Current != InvalidTask;
  }
  return AnyCurrent && E.seams().empty();
}

void Machine::wakeAll(uint64_t H, unsigned B) {
  for (unsigned I = 0; I < Procs.size(); ++I) {
    Sleeper &Z = Sleep[I];
    if (!Z.Asleep)
      continue;
    Processor &Q = Procs[I];
    uint64_t K = idleRoundsBefore(Q.Clock, I, Z.RoundBusy + cost::IdleTick,
                                  H, B);
    Q.Clock += K * (Z.RoundBusy + cost::IdleTick);
    Q.BusyCycles += K * Z.RoundBusy;
    Q.IdleCycles += K * cost::IdleTick;
    Q.StealAttempts += K * Z.RoundProbes;
    Q.StealsFailed += K * Z.RoundProbes;
    SleepStats.RoundsReplayed += K;
    Z.Asleep = false;
  }
  NumAsleep = 0;
}

unsigned Machine::liveProcessors() const {
  unsigned N = 0;
  for (const Processor &P : Procs)
    N += !P.Dead;
  return N;
}

Processor &Machine::homeFor(unsigned Preferred) {
  for (unsigned K = 0; K < Procs.size(); ++K) {
    Processor &P = Procs[(Preferred + K) % Procs.size()];
    if (!P.Dead)
      return P;
  }
  return Procs[Preferred]; // unreachable: at least one processor lives
}

RunResult Machine::run(Engine &E) {
  // Host wall-clock for the whole run loop (RAII covers every return).
  // Nested collections also accrue to the Gc phase; subtract Gc from Run
  // to isolate the mutator. Host time never feeds virtual time.
  HostPhaseTimer HostRun(E.telemetry(), Telemetry::Phase::Run);
  // Synchronize the processors at the start of the run (they idled while
  // the "user" typed the expression); the skew counts as idle time so
  // busy + idle + GC cycles always tile the clock.
  uint64_t Start = 0;
  for (Processor &P : Procs)
    Start = std::max(Start, P.Clock);
  // Published so fault marks can be made run-relative outside this loop
  // (the GC-phase kill poll fires from inside a collection); cleared by
  // the run's exit.
  RunStart = Start;
  InRun = true;
  for (Processor &P : Procs) {
    uint64_t Skew = Start - P.Clock;
    P.Clock = Start;
    P.IdleCycles += Skew;
  }

  // Idle sleep. While every queue and the seam deque are empty and some
  // processor still runs a task, an idle processor's round fails at a
  // fixed cost and changes nothing shared, so after one such round the
  // processor sleeps: it leaves min-clock selection, and wakeAll later
  // credits it in closed form with the rounds it would have run before
  // the step that ends that state. Only runs nothing observes round by
  // round may sleep: the tracer logs every probe, and faults, the tenant
  // layer and adaptive T all poll at the loop top.
  const bool MaySleep = !E.tracer().enabled() && !E.faults().armed() &&
                        !E.tenantArmed() && !Adaptive.Enabled;
  auto WakeBefore = [&](const Processor &B) {
    if (NumAsleep)
      wakeAll(B.Clock, B.Id);
  };

  RunResult R;
  unsigned FruitlessGcs = 0;
  // Detects an instruction that keeps re-triggering collections: a
  // monolithic allocation larger than the post-collection headroom can
  // never complete (its partial garbage is reclaimed each time, so the
  // used-words heuristic alone never fires).
  TaskId SameSpotTask = InvalidTask;
  uint32_t SameSpotPc = 0;
  unsigned SameSpotGcs = 0;

  // Names the group holding the most heap words in heap-exhausted
  // conditions. Empty unless the tenant quota layer is armed (attribution
  // needs its per-group accounting), so dormant output is unchanged.
  auto OffenderSuffix = [&E]() -> std::string {
    uint64_t Words = 0;
    GroupId Off = E.largestHeapGroup(Words);
    if (Off == InvalidGroup || Words == 0)
      return std::string();
    uint64_t Used = E.heap().usedWords();
    unsigned Share = Used ? unsigned(Words * 100 / Used) : 0;
    return strFormat("; largest holder: group %u (\"%s\") ~%llu live words "
                     "(%u%% of used heap)",
                     Off, E.group(Off).Banner.c_str(),
                     static_cast<unsigned long long>(Words), Share);
  };
  // The run's one exit. It fills in the outcome and publishes the run's
  // engine-side totals: the elapsed time, and the sums of the run counters
  // (the processors hold their only copy while the run is on). Every
  // sleeper has been credited by now, so the sums are exact.
  auto Exit = [&](RunStatus Status, uint64_t EndClock) {
    assert(NumAsleep == 0 && "a processor slept past the end of a run");
    InRun = false;
    R.Status = Status;
    R.ElapsedCycles = EndClock - Start;
    EngineStats &S = E.stats();
    S.ElapsedCycles = R.ElapsedCycles;
    S.Instructions = S.IdleCycles = S.Dispatches = S.Steals = 0;
    S.StealAttempts = S.StealsFailed = S.CheckpointsTaken = 0;
    for (const Processor &Q : Procs) {
      S.Instructions += Q.Instructions;
      S.IdleCycles += Q.IdleCycles;
      S.Dispatches += Q.Dispatches;
      S.Steals += Q.Steals;
      S.StealAttempts += Q.StealAttempts;
      S.StealsFailed += Q.StealsFailed;
      S.CheckpointsTaken += Q.CheckpointsTaken;
    }
    return std::move(R);
  };
  auto HeapExhaustedExit = [&](uint64_t EndClock, const char *Why) {
    R.Error = "heap exhausted: " +
              (E.heap().wedged() ? E.heap().wedgedReason()
                                 : std::string(Why)) +
              OffenderSuffix();
    R.Heap = E.heapFacts();
    return Exit(RunStatus::HeapExhausted, EndClock);
  };

  // A launch ends at the clock of the processor whose step ended it, read
  // once the step is over; the run ends, at the latest of those clocks,
  // when no launch is open or a policy escalated.
  unsigned Open = E.openLaunches();
  uint64_t End = Start;
  Processor *Stepped = &Procs[0];
  for (;;) {
    if (E.openLaunches() != Open) {
      Open = E.openLaunches();
      End = std::max(End, Stepped->Clock);
    }
    if (Open == 0 || E.runEscalated())
      return Exit(RunStatus::Completed, End);

    Processor &P = Procs[minClockProcessor()];
    Stepped = &P;
    if (P.Clock - Start > MaxRunCycles) {
      if (NumAsleep) {
        // The sleepers' rounds that start within the limit still run
        // first; the minimum over every processor is then reported.
        wakeAll(Start + MaxRunCycles + 1, 0);
        continue;
      }
      R.Error = "virtual cycle limit exceeded";
      return Exit(RunStatus::CycleLimit, P.Clock);
    }

    // Adaptive inlining threshold: this processor's adaptation window may
    // have elapsed (its clock moves only in this loop, so checking here
    // catches every crossing exactly once).
    if (Adaptive.Enabled && P.Clock >= P.Adapt.WindowEnd)
      closeAdaptiveWindow(E, P);

    // Supervisor restart events due at or before the min clock fire here,
    // so a restart never lands mid-quantum and the schedule around it is
    // deterministic. Dormant runs pay one predicted-false branch.
    if (E.tenantArmed())
      E.supervisorTick(P);

    if (E.faults().armed()) {
      // Clock marks are polled at quantum granularity on the min-clock
      // processor, so none lands mid-instruction or mid-GC and the
      // schedule around it stays deterministic. At most one fires per
      // poll, the first due in this order.
      static constexpr FaultKind MarkOrder[] = {
          FaultKind::ProcKill, FaultKind::Stall, FaultKind::QuotaSqueeze,
          FaultKind::AdmitBurst, FaultKind::SpuriousGc};
      FaultEntry M;
      const FaultKind *Due =
          std::find_if(std::begin(MarkOrder), std::end(MarkOrder),
                       [&](FaultKind K) {
                         return E.faults().takeMark(K, P.Clock - Start, M,
                                                    P.Id);
                       });
      if (Due != std::end(MarkOrder)) {
        switch (*Due) {
        case FaultKind::ProcKill:
          // Fail-stop processor kill. A target that cannot die (see
          // Engine::canFailStop) is consumed with no effect.
          if (E.canFailStop(unsigned(M.Arg))) {
            Processor &Dead = Procs[M.Arg];
            Dead.Dead = true;
            if (Dead.Current == InvalidTask && Dead.TraceIdling) {
              Dead.TraceIdling = false;
              E.tracer().record(TraceEventKind::IdleEnd, Dead.Id,
                                Dead.Clock);
            }
            // The survivor that observes the kill pays for the recovery
            // scan; an orphaned future stops its group there.
            Processor &Obs = Procs[minClockProcessor()];
            Stepped = &Obs;
            E.noteFault(Obs, FaultKind::ProcKill, M.Arg);
            E.recoverProcessor(Obs, Dead, Start + M.Key);
          }
          break;
        case FaultKind::Stall: {
          // Processor stall window: the board drops off the bus for a
          // while. The skipped cycles are idle time, so the clock still
          // tiles.
          uint64_t Jump = Start + M.Key + M.Len - P.Clock;
          E.noteFault(P, FaultKind::Stall, Jump);
          P.Clock += Jump;
          P.IdleCycles += Jump;
          break;
        }
        case FaultKind::QuotaSqueeze:
          // Clamp a group's heap quota to half its current account, as if
          // an operator tightened a tenant's envelope mid-run.
          E.noteFault(P, FaultKind::QuotaSqueeze, M.Arg);
          E.applyQuotaSqueeze(P, unsigned(M.Arg));
          break;
        case FaultKind::AdmitBurst:
          // N probe launches hit the gate at once, exercising the
          // admit/queue/reject partition deterministically.
          E.noteFault(P, FaultKind::AdmitBurst, M.Arg);
          E.admitSyntheticBurst(P, unsigned(M.Arg));
          break;
        case FaultKind::SpuriousGc:
          E.noteFault(P, FaultKind::SpuriousGc, M.Key);
          if (!E.collectGarbage())
            return HeapExhaustedExit(P.Clock, "cannot start a collection");
          break;
        default: // MarkOrder names every clock-mark kind
          break;
        }
        continue;
      }
    }

    if (P.Current != InvalidTask) {
      Task &T = E.task(P.Current);
      Group &G = E.group(T.Group);
      if (G.State != GroupState::Running && G.State != GroupState::Done) {
        // The group stopped while this task was current on another
        // processor's signal: suspend it (paper: "no other tasks in the
        // group will run").
        WakeBefore(P);
        P.Current = InvalidTask;
        if (G.State == GroupState::Stopped &&
            T.State == TaskState::Running) {
          T.State = TaskState::Stopped;
          G.Parked.push_back(T.Id);
          E.tracer().record(TraceEventKind::TaskStopped, P.Id, P.Clock, T.Id);
        } else if (G.State == GroupState::Killed) {
          E.tracer().record(TraceEventKind::TaskDropped, P.Id, P.Clock, T.Id);
          E.finishTask(T);
        }
        P.charge(4);
        continue;
      }
      if (T.State != TaskState::Running) {
        // Stopped by its own raise, or finished: detach.
        WakeBefore(P);
        P.Current = InvalidTask;
        continue;
      }

      // Cycle-budget watchdog: unlike MaxRunCycles (which abandons the
      // whole run), exceeding MaxCycles stops the runaway group so the
      // breakloop can inspect, kill, or resume it with a fresh budget.
      if (P.Clock - Start > E.config().MaxCycles) {
        WakeBefore(P);
        E.stopGroupRestartable(
            P, T,
            strFormat("cycle-budget-exhausted: group %u exceeded %llu "
                      "virtual cycles",
                      T.Group,
                      static_cast<unsigned long long>(E.config().MaxCycles)));
        P.Current = InvalidTask;
        continue;
      }

      // Tenant quotas and budgets, polled at quantum granularity like the
      // watchdog above: only the offending group stops (restartable — the
      // next instruction never executed); every other group keeps running.
      if (E.tenantArmed() && E.pollTenant(P, T)) {
        P.Current = InvalidTask;
        continue;
      }

      // Re-executed cycles of a recovered task are tallied separately:
      // busy cycles a survivor spends redoing work the dead processor
      // already paid for. A checkpoint-restored task charges only up to
      // its finite budget (the capture-to-kill delta); a lineage
      // re-spawn (budget ~0) charges its whole re-run, as before.
      bool ChargeRecovery = T.Recovered;
      uint64_t StepClock = P.Clock;
      uint64_t BusyBefore = P.BusyCycles;
      StepOutcome Step = interpretTask(E, P, T, P.Clock + Quantum);
      uint64_t BusyDelta = P.BusyCycles - BusyBefore;
      T.SinceCheckpoint += BusyDelta;
      if (E.tenantArmed())
        E.chargeGroupCycles(T, BusyDelta);
      if (ChargeRecovery) {
        uint64_t Charge = std::min(BusyDelta, T.RecoveryBudget);
        E.stats().RecoveryCycles += Charge;
        T.RecoveryCharged += Charge;
        if (T.RecoveryBudget != ~uint64_t(0)) {
          T.RecoveryBudget -= Charge;
          E.stats().MaxTaskRecoveryCycles = std::max(
              E.stats().MaxTaskRecoveryCycles, T.RecoveryCharged);
          if (T.RecoveryBudget == 0)
            T.Recovered = false; // caught up with the lost delta
        }
      }
      // Sleepers wake up to this step's key once it ends anything but a
      // time slice (done, blocked, stopped, or a collection that needs
      // caught-up clocks), ends a launch, or leaves work visible.
      if (NumAsleep && (Step != StepOutcome::TimeSlice ||
                        E.openLaunches() != Open || !idleRoundsFail(E)))
        wakeAll(StepClock, P.Id);
      switch (Step) {
      case StepOutcome::TimeSlice:
        FruitlessGcs = 0;
        SameSpotTask = InvalidTask;
        if (E.config().CheckpointEvery &&
            T.SinceCheckpoint >= E.config().CheckpointEvery)
          E.maybeCheckpoint(P, T);
        break;
      case StepOutcome::Blocked:
      case StepOutcome::TaskDone:
      case StepOutcome::GroupStopped:
        P.Current = InvalidTask;
        break;
      case StepOutcome::NeedsGc: {
        // Heap exhaustion degrades gracefully: the task's group stops
        // with a heap-exhausted condition (breakloop-inspectable and
        // killable, with the heap's facts kept for its launch) instead of
        // abandoning the run. The instruction never executed, so the stop
        // is restartable.
        auto StopHeapExhausted = [&](const std::string &Condition) {
          ++E.stats().HeapExhaustedStops;
          E.stopGroupRestartable(P, T, Condition);
          P.Current = InvalidTask;
          SameSpotTask = InvalidTask;
          FruitlessGcs = 0;
        };
        // An injected allocation failure is not evidence of a full heap;
        // run the collection but keep the exhaustion heuristics quiet.
        bool Injected =
            E.faults().armed() && E.faults().consumeInjectedAllocFail();
        if (!Injected) {
          if (T.Id == SameSpotTask && T.Pc == SameSpotPc) {
            if (++SameSpotGcs >= 8) {
              // Memory pressure: before declaring exhaustion, shed the
              // lowest-priority quota violator among the gated launches —
              // its heap frees at the next collection.
              if (E.shedForPressure(P) != InvalidGroup) {
                SameSpotTask = InvalidTask;
                FruitlessGcs = 0;
                break;
              }
              StopHeapExhausted(std::string("heap-exhausted: a single "
                                            "operation allocates more than "
                                            "the collected heap can hold") +
                                OffenderSuffix());
              break;
            }
          } else {
            SameSpotTask = T.Id;
            SameSpotPc = T.Pc;
            SameSpotGcs = 1;
          }
        }
        size_t UsedBefore = E.heap().usedWords();
        // Nothing recoverable remains (to-space overflow wedges the heap
        // mid-copy): report a structured fatal result.
        if (!E.collectGarbage())
          return HeapExhaustedExit(P.Clock,
                                   "semispace too small for live data");
        // A collection that frees (almost) nothing cannot unblock the
        // failing allocation; stop the group instead of thrashing.
        if (!Injected && E.heap().usedWords() + 64 >= UsedBefore) {
          if (++FruitlessGcs >= 2) {
            if (E.shedForPressure(P) != InvalidGroup) {
              SameSpotTask = InvalidTask;
              FruitlessGcs = 0;
              break;
            }
            StopHeapExhausted(
                std::string("heap-exhausted: collection reclaimed no space") +
                OffenderSuffix());
            break;
          }
        } else if (!Injected) {
          FruitlessGcs = 0;
        }
        break;
      }
      }
      continue;
    }

    // Idle processor: find work. While anyone sleeps, idleRoundsFail
    // holds (every step that could break it wakes them), so the scan is
    // skipped.
    bool WillFail = MaySleep && (NumAsleep || idleRoundsFail(E));
    uint64_t BusyBefore = P.BusyCycles;
    uint64_t ProbesBefore = P.StealAttempts;
    TaskId Next = dispatchNextTask(E, *this, P);
    if (Next != InvalidTask) {
      if (P.TraceIdling) {
        P.TraceIdling = false;
        E.tracer().record(TraceEventKind::IdleEnd, P.Id, P.Clock);
      }
      P.Current = Next;
      continue;
    }
    if (!P.TraceIdling) {
      P.TraceIdling = true;
      E.tracer().record(TraceEventKind::IdleBegin, P.Id, P.Clock);
    }
    P.Clock += cost::IdleTick;
    P.IdleCycles += cost::IdleTick;
    ++SleepStats.RoundsRun;

    if (WillFail) {
      // Some processor runs a task, so the machine is not quiescent.
      Sleeper &Z = Sleep[P.Id];
      Z.Asleep = true;
      Z.RoundBusy = P.BusyCycles - BusyBefore;
      Z.RoundProbes = P.StealAttempts - ProbesBefore;
      ++NumAsleep;
      continue;
    }

    if (quiescent(E)) {
      // A quiescent machine with a supervisor restart pending is not
      // deadlocked: fast-forward to the earliest due event (the jump is
      // idle time, so busy + idle + GC cycles keep tiling every clock)
      // and let the restart re-populate the queues.
      uint64_t Due;
      if (E.nextSupervisorEvent(Due)) {
        for (Processor &Q : Procs) {
          if (Q.Dead || Due <= Q.Clock)
            continue;
          uint64_t Jump = Due - Q.Clock;
          Q.Clock = Due;
          Q.IdleCycles += Jump;
        }
        Stepped = &Procs[minClockProcessor()];
        E.supervisorTick(*Stepped);
        continue;
      }
      // Nothing runnable anywhere while a launch is open: the
      // computation deadlocked (e.g. the paper's semaphore example under
      // inlining). Reconstruct the task -> future wait-for graph so the
      // report names the cycle, not just the symptom.
      ++E.stats().DeadlocksDetected;
      R.Error = "deadlock: all processors idle, root future unresolved";
      if (std::string Graph = E.describeWaitGraph(); !Graph.empty())
        R.Error += "\n" + Graph;
      return Exit(RunStatus::Deadlock, P.Clock);
    }
  }
}
