//===----------------------------------------------------------------------===//
///
/// \file
/// The virtual-time multiprocessor.
///
/// Substitute for the Encore Multimax (see DESIGN.md): N virtual
/// processors, each with a cycle clock; the machine always steps the
/// processor with the smallest clock, for a quantum of cycles at a time.
/// One host thread plays all processors, so every runtime operation is
/// atomic and the schedule is deterministic; contention is modelled by
/// VirtualLock busy-intervals. Speedup numbers come out in virtual time,
/// which reproduces the *shape* of the paper's tables exactly and is
/// immune to host-machine noise (the paper's UMAX runs varied by ~5%; ours
/// are bit-stable).
///
//===----------------------------------------------------------------------===//

#ifndef MULT_SCHED_MACHINE_H
#define MULT_SCHED_MACHINE_H

#include "sched/Adaptive.h"
#include "sched/TaskQueues.h"

#include <string>
#include <vector>

namespace mult {

class Engine;

/// One virtual processor.
struct Processor {
  unsigned Id = 0;
  uint64_t Clock = 0;
  TaskId Current = InvalidTask;
  TaskQueues Queues;

  // Statistics. Every cycle the clock advances lands in exactly one of
  // BusyCycles (charge), IdleCycles (idle ticks + waiting for a run to
  // start) or GcCycles (collection pauses), so
  //   Clock == ClockAtReset + BusyCycles + IdleCycles + GcCycles
  // holds from any resetStats (TraceTest asserts it). IdleCycles,
  // Instructions, Dispatches, the steal counters and CheckpointsTaken are
  // the only copy of those run totals: Machine::run sums them into
  // EngineStats when it returns.
  uint64_t BusyCycles = 0;
  uint64_t IdleCycles = 0;
  uint64_t GcCycles = 0;           ///< collection pauses (rendezvous to resume)
  uint64_t ClockAtReset = 0;       ///< Clock at the last resetStats
  uint64_t Instructions = 0;
  uint64_t Dispatches = 0;
  uint64_t Steals = 0;
  uint64_t StealAttempts = 0; ///< probes this processor made as a thief
  uint64_t StealsFailed = 0;  ///< of those, probes that found nothing
  uint64_t StolenFrom = 0;    ///< tasks thieves took from this processor
  uint64_t TasksStarted = 0;
  uint64_t HandlerActivations = 0; ///< exception-handler server task runs

  /// Adaptive inlining-threshold controller state (sched/Adaptive.h);
  /// consulted only when EngineConfig::AdaptiveInline is set.
  AdaptiveTState Adapt;

  /// Fail-stopped by a proc-kill fault: never stepped again, skipped as a
  /// steal victim and as a wake-up home. Its queues are drained by
  /// Engine::recoverProcessor the moment it dies, and it still follows GC
  /// rendezvous clock jumps so busy + idle + GC cycles keep tiling its
  /// (now frozen) clock.
  bool Dead = false;

  /// Checkpoint records captured on this processor (zero unless
  /// EngineConfig::CheckpointEvery is armed; reset by resetStats).
  uint64_t CheckpointsTaken = 0;
  /// This processor's clock at its newest capture (0 = none yet).
  uint64_t LastCheckpointClock = 0;

  /// True between the first fruitless dispatch and the next successful
  /// one; lets the run loop emit one idle-begin/idle-end trace pair per
  /// idle interval instead of one per idle tick.
  bool TraceIdling = false;

  void charge(uint64_t Cycles) {
    Clock += Cycles;
    BusyCycles += Cycles;
  }
};

/// Why Machine::run returned.
enum class RunStatus : uint8_t {
  Completed,    ///< Every launch ended (or a supervised policy escalated).
  Deadlock,     ///< Quiescent with a launch still open.
  HeapExhausted,///< GC could not reclaim enough space.
  CycleLimit,   ///< Config.MaxRunCycles exceeded.
};

/// Snapshot of heap occupancy taken when a run or a launch ends on a heap
/// condition, so callers (and the breakloop user) can see *why* without
/// poking the engine.
struct HeapFacts {
  size_t UsedWords = 0;
  size_t CapacityWords = 0; ///< semispace size
  uint64_t Collections = 0;
  bool CollectorWedged = false; ///< to-space overflow left the heap unusable
  /// The group holding the most heap words when the condition was raised
  /// (InvalidGroup unless the tenant quota layer is armed — attribution
  /// needs the per-group accounting it maintains).
  GroupId OffenderGroup = InvalidGroup;
  uint64_t OffenderLiveWords = 0;
};

/// How a run ended. Each launch's own outcome is its group's state
/// (Engine::launchResult reads both).
struct RunResult {
  RunStatus Status = RunStatus::Completed;
  std::string Error;
  uint64_t ElapsedCycles = 0;
  HeapFacts Heap; ///< meaningful for HeapExhausted
};

/// Counters of the idle-sleep path (see Machine::run). Machine-lifetime,
/// never reset, and kept out of the metrics report: they describe how the
/// host played the run, not the virtual machine.
struct IdleSleepStats {
  uint64_t RoundsRun = 0;      ///< failed idle rounds stepped one at a time
  uint64_t RoundsReplayed = 0; ///< failed idle rounds credited in closed form
};

/// How many failed idle rounds a sleeping processor \p S runs before the
/// machine steps the processor keyed (\p H, \p B). Its rounds start at
/// clocks C, C+R, C+2R, ...; the machine steps processors in (clock,
/// index) order, so a round starting at H runs first only when S < B.
inline uint64_t idleRoundsBefore(uint64_t C, unsigned S, uint64_t R,
                                 uint64_t H, unsigned B) {
  if (S < B)
    return C <= H ? (H - C) / R + 1 : 0;
  return C < H ? (H - C - 1) / R + 1 : 0;
}

/// The machine.
class Machine {
public:
  Machine(unsigned NumProcessors, uint64_t QuantumCycles,
          uint64_t MaxRunCycles, StealOrder Order,
          const AdaptiveTConfig &Adaptive = AdaptiveTConfig());

  /// Runs the engine's launch set until no launch is open, a supervised
  /// policy escalates, or the run ends early (deadlock, the cycle limit,
  /// a wedged heap). A launch ends when its group is done, stopped for
  /// good or killed, at the clock of the processor whose step ended it;
  /// the run's elapsed time runs to the latest such clock. Runnable tasks
  /// must already be enqueued. Unless an observer is armed (tracer,
  /// faults, tenant layer, adaptive T), idle processors sleep through
  /// stretches of failed steal rounds and are credited with them in
  /// closed form, with the same virtual result.
  RunResult run(Engine &E);

  unsigned numProcessors() const {
    return static_cast<unsigned>(Procs.size());
  }
  Processor &processor(unsigned I) { return Procs[I]; }
  const Processor &processor(unsigned I) const { return Procs[I]; }

  /// Collects all processor clocks (GC rendezvous).
  std::vector<uint64_t> clocks() const;
  void setClocks(const std::vector<uint64_t> &C);

  StealOrder stealOrder() const { return Order; }

  const AdaptiveTConfig &adaptiveConfig() const { return Adaptive; }
  bool adaptiveEnabled() const { return Adaptive.Enabled; }

  /// Machine-lifetime count of closed adaptation windows (never reset —
  /// the ordinal that fault-plan adapt-clamp/adapt-reset clauses key on).
  /// Lets callers aim a clause at upcoming windows: the prelude and any
  /// earlier evals already consumed the low ordinals.
  uint64_t adaptWindowsClosed() const { return AdaptWindowOrdinal; }

  /// Re-baselines every processor's open adaptation window against the
  /// current counters (Engine::resetStats calls this after zeroing them,
  /// so window deltas never straddle a reset). Learned thresholds persist.
  void rebaselineAdaptiveWindows();

  /// True when nothing can make progress: no current tasks, all queues
  /// empty, and no stealable lazy seams.
  bool quiescent(const Engine &E) const;

  /// Processors not fail-stopped by a proc-kill fault.
  unsigned liveProcessors() const;

  /// The quantum this machine steps processors by.
  uint64_t quantum() const { return Quantum; }

  /// True while run() is executing (fault clocks are run-relative; the
  /// GC kill poll must not fire from an allocation outside a run).
  bool inRun() const { return InRun; }

  /// The machine-wide clock run() started from (max processor clock at
  /// entry); converts absolute clocks to run-relative fault marks.
  uint64_t runStartClock() const { return RunStart; }

  /// \p Preferred if it is alive, else the next live processor in id
  /// order. Wake-ups (future resolve, semaphore V, group resume) route
  /// through this so a task whose home processor died is re-homed instead
  /// of sitting on a dead queue forever.
  Processor &homeFor(unsigned Preferred);

  const IdleSleepStats &idleSleepStats() const { return SleepStats; }

private:
  /// The live, awake processor with the smallest (clock, index) key.
  unsigned minClockProcessor() const;

  /// True when every queue and the seam deque are empty and some live
  /// processor still has a current task: the state in which an idle
  /// round is a fixed-cost failure that changes nothing shared.
  bool idleRoundsFail(Engine &E) const;

  /// Credits every sleeping processor with the failed rounds it would
  /// have run before the step keyed (\p H, \p B), then wakes it.
  void wakeAll(uint64_t H, unsigned B);

  /// A sleeping processor and the cost of one of its failed rounds (the
  /// round also pays cost::IdleTick; every probe fails).
  struct Sleeper {
    bool Asleep = false;
    uint64_t RoundBusy = 0;
    uint64_t RoundProbes = 0;
  };

  /// Closes \p P's adaptation window: reads the window's signals, feeds
  /// them through decideStep/applyStep (or an injected adapt-clamp /
  /// adapt-reset fault), charges cost::AdaptiveWindow, and opens the next
  /// window.
  void closeAdaptiveWindow(Engine &E, Processor &P);
  void beginAdaptiveWindow(Processor &P);

  std::vector<Processor> Procs;
  std::vector<Sleeper> Sleep; ///< parallel to Procs
  unsigned NumAsleep = 0;
  IdleSleepStats SleepStats;
  uint64_t Quantum;
  uint64_t MaxRunCycles;
  StealOrder Order;
  AdaptiveTConfig Adaptive;
  /// Machine-wide count of closed windows; the deterministic ordinal
  /// fault-plan adapt-* clauses key on.
  uint64_t AdaptWindowOrdinal = 0;
  /// See inRun()/runStartClock().
  bool InRun = false;
  uint64_t RunStart = 0;
};

} // namespace mult

#endif // MULT_SCHED_MACHINE_H
