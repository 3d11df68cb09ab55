//===----------------------------------------------------------------------===//
///
/// \file
/// Tasks: the lightweight threads of Mul-T.
///
/// A task owns a growable value stack (checked for overflow at every
/// procedure entry, as the paper requires under Unix), a C++-side frame
/// stack, VM registers, the deep-binding chain of its process-specific
/// variables, and the future it will resolve when it finishes. The paper's
/// future components (section 2.2) map as: "a stack" -> Task::Stack,
/// "a slot for the eventual value" -> the Future heap object,
/// "process specific variables" -> Task::DynEnv, "a queue of waiters" ->
/// the Future's waiter list.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_CORE_TASK_H
#define MULT_CORE_TASK_H

#include "compiler/Bytecode.h"
#include "runtime/Value.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mult {

/// Task ids carry a generation in the high 32 bits so registry slots can be
/// recycled without stale references (e.g. in a group's member list)
/// resolving to the wrong task.
using TaskId = uint64_t;
using GroupId = uint32_t;
inline constexpr TaskId InvalidTask = ~TaskId(0);
inline constexpr GroupId InvalidGroup = ~GroupId(0);

inline uint32_t taskIndex(TaskId Id) { return static_cast<uint32_t>(Id); }
inline uint32_t taskGeneration(TaskId Id) {
  return static_cast<uint32_t>(Id >> 32);
}
inline TaskId makeTaskId(uint32_t Index, uint32_t Gen) {
  return (static_cast<uint64_t>(Gen) << 32) | Index;
}

enum class TaskState : uint8_t {
  Ready,            ///< On some queue, runnable.
  Running,          ///< Current on some processor.
  BlockedFuture,    ///< Waiting for a future to resolve.
  BlockedSemaphore, ///< Waiting in a semaphore's queue.
  Stopped,          ///< Suspended by a group stop (exception).
  Done,             ///< Finished; recyclable.
};

/// One call frame. Stores the *caller's* resume state; the running
/// function's own base is Frames.back().Base.
struct Frame {
  const Code *CallerCode = nullptr;
  uint32_t RetPc = 0;
  uint32_t Base = 0; ///< Stack index of the callee closure (args follow).

  // Lazy-future seam bookkeeping (paper section 3, "lazy futures").
  bool IsSeam = false;
  bool SeamStolen = false;
  uint64_t SeamSerial = 0;         ///< Matches the engine's seam registry.
  Value SeamFuture = Value::nil(); ///< Created when the seam is stolen.
};

/// An entry in the engine's oldest-first seam registry. Entries become
/// stale when the seam returns normally or its task dies; the serial
/// number detects that lazily.
struct SeamRef {
  TaskId Task = InvalidTask;
  uint32_t FrameIdx = 0;
  uint64_t Serial = 0;
};

/// A Mul-T task.
class Task {
public:
  TaskId Id = InvalidTask;
  GroupId Group = InvalidGroup;
  TaskState State = TaskState::Done;
  unsigned LastProc = 0; ///< Processor it last ran on (locality).

  std::vector<Value> Stack;
  std::vector<Frame> Frames;
  const Code *CurCode = nullptr;
  uint32_t Pc = 0;

  Value BlockedOn = Value::nil();    ///< Future or semaphore object.
  Value DynEnv = Value::nil();       ///< Deep-binding chain.
  Value ResultFuture = Value::nil(); ///< Resolved when the task finishes.

  /// Deferred completion of a blocking/erring instruction: on next
  /// schedule, pop WakePop slots, push WakeValue, advance Pc.
  bool HasWakeAction = false;
  uint32_t WakePop = 0;
  Value WakeValue = Value::nil();

  /// When State == Stopped: the condition and how to resume (see
  /// Engine::resumeGroup).
  std::string StopCondition;
  uint32_t StopPop = 0;
  /// Stopped *before* the faulting instruction executed: resume re-runs
  /// the instruction instead of performing a wake action.
  bool StopRestartable = false;

  /// Number of unstolen lazy-future seams on this task's frame stack.
  uint32_t UnstolenSeams = 0;

  /// Index of the lowest frame that still belongs to this task. Advances
  /// when a seam below is stolen: the frames beneath were packaged into
  /// the thief's parent-continuation task and must never be copied again.
  uint32_t BaseFrame = 0;

  /// Spawn lineage: the closure this task was spawned with (its code and
  /// captured arguments), kept so a task lost to a fail-stopped processor
  /// can be re-executed from scratch on a survivor. Nil for tasks that
  /// were not born from a closure (seam-split parent continuations own a
  /// mid-flight stack segment that cannot be reconstructed).
  Value SpawnClosure = Value::nil();

  /// The deep-binding chain inherited at spawn time; a lineage re-spawn
  /// restarts with this, not the mid-flight DynEnv.
  Value SpawnDynEnv = Value::nil();

  /// Observed side effects that make re-execution unsafe (see DESIGN.md,
  /// "Processor fail-stop and recovery").
  uint32_t SemaphoresHeld = 0; ///< semaphore-p acquisitions not yet V'd
  bool DidIo = false;          ///< wrote to the output stream

  /// True while this task is re-executing lost work after a proc-kill
  /// (lineage re-spawn or checkpoint restore); its busy cycles are
  /// charged to EngineStats::RecoveryCycles, up to RecoveryBudget.
  bool Recovered = false;

  /// Side-effect epoch: bumped at every externally observable effect
  /// (semaphore P-acquire, V-release, V-handoff receipt, console I/O,
  /// a seam steal from this task's stack). A checkpoint record is
  /// restorable only while the task's epoch still equals the epoch it
  /// recorded at capture — restoring across an effect would replay it.
  uint32_t SideEffectEpoch = 0;

  /// Busy cycles executed since the newest checkpoint capture (or since
  /// spawn). Drives the CheckpointEvery capture policy and sizes the
  /// re-execution budget of a restore.
  uint64_t SinceCheckpoint = 0;

  /// Re-execution budget of a recovered task: busy cycles still
  /// chargeable to EngineStats::RecoveryCycles before the task is
  /// considered caught up. ~0 for lineage re-spawns (the whole re-run is
  /// re-executed work); finite for checkpoint restores (only the
  /// capture-to-kill delta was lost).
  uint64_t RecoveryBudget = ~uint64_t(0);

  /// Recovery cycles charged for this task's current recovery episode.
  uint64_t RecoveryCharged = 0;

  /// \name Always-on telemetry stamps (src/obs/Telemetry.h)
  ///
  /// Written on the hot paths at zero virtual cost; read when the
  /// matching latency sample completes (task finish, future resolve,
  /// semaphore V). Per-processor clocks are not totally ordered, so
  /// consumers subtract with saturation.
  /// @{
  uint64_t CreateClock = 0; ///< virtual clock at newTask (lifetime base)
  uint64_t BlockClock = 0;  ///< virtual clock at the last block
  /// Future site (Tracer::futureSiteId) of the future this task last
  /// blocked on; ~0 when unknown (root futures, recycled creators).
  uint32_t BlockSite = ~uint32_t(0);
  /// Future site that spawned this task; ~0 for roots and server tasks.
  uint32_t FutureSite = ~uint32_t(0);
  /// @}

  /// Prepares this (possibly recycled) task to run \p Closure as a fresh
  /// nullary activation.
  void initForThunk(TaskId NewId, GroupId G, Value Closure, Value Result,
                    Value InheritedDynEnv, unsigned Proc);

  /// Clears heap references so a Done task pins no garbage.
  void clearForRecycle();

  /// The closure currently executing.
  Value currentClosure() const { return Stack[Frames.back().Base]; }

  bool runnable() const { return State == TaskState::Ready; }
};

/// A resumable snapshot of a task, captured at a quantum boundary when
/// the checkpoint policy (EngineConfig::CheckpointEvery) is armed and the
/// task owns its whole stack (no live seams, BaseFrame == 0). Owned by
/// the task's group (newest capture only) and scanned as a GC root so
/// the snapshot's values survive collections. See DESIGN.md,
/// "Checkpointed recovery".
struct CheckpointRecord {
  std::vector<Value> Stack;
  std::vector<Frame> Frames;
  const Code *CurCode = nullptr;
  uint32_t Pc = 0;
  Value DynEnv = Value::nil();
  uint32_t SemaphoresHeld = 0; ///< holdings baked into the snapshot
  bool DidIo = false;
  uint32_t Epoch = 0;        ///< Task::SideEffectEpoch at capture
  uint64_t CaptureClock = 0; ///< capturing processor's virtual clock
};

} // namespace mult

#endif // MULT_CORE_TASK_H
