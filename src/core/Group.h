//===----------------------------------------------------------------------===//
///
/// \file
/// Groups: Mul-T's unit of user-level task management (paper section 2.3).
///
/// All tasks created during evaluation of one expression typed by the user
/// belong to one group. When any task of the group signals an exception the
/// *whole group* stops — no other task of the group runs afterwards — and
/// the user regains control with a single stopped computation to inspect,
/// resume (in any order) or kill.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_CORE_GROUP_H
#define MULT_CORE_GROUP_H

#include "core/Task.h"

#include <map>
#include <string>
#include <vector>

namespace mult {

enum class GroupState : uint8_t {
  Running,
  Stopped, ///< Exception signalled; tasks suspended.
  Done,    ///< Root value produced.
  Killed,
};

/// Returns "running"/"stopped"/... for \p S.
const char *groupStateName(GroupState S);

/// One group.
struct Group {
  GroupId Id = InvalidGroup;
  GroupState State = GroupState::Running;
  /// The expression's text, for the UI's group listing.
  std::string Banner;
  /// Future resolved by the group's root task.
  Value RootFuture = Value::nil();
  /// The root future has resolved. A stop after that comes from a future
  /// that outlived the root, and resuming the group leaves it Done.
  bool RootResolved = false;
  /// All member tasks ever created (ids; tasks may be recycled after Done).
  std::vector<TaskId> Members;
  /// Runnable members that a processor popped while the group was stopped;
  /// re-enqueued on resume.
  std::vector<TaskId> Parked;
  /// When Stopped: the task that signalled, and the condition.
  TaskId CurrentTask = InvalidTask;
  std::string Condition;
  /// Newest checkpoint record per member task (keyed by task index;
  /// empty unless EngineConfig::CheckpointEvery is armed). Group-owned so
  /// the records die with the group and are scanned as GC roots while
  /// any member might still be restored from them.
  std::map<uint32_t, CheckpointRecord> Checkpoints;
  /// Statistics surfaced in the UI.
  uint64_t TasksCreated = 0;
  /// Created during engine bootstrap (prelude); hidden from the UI.
  bool Internal = false;

  /// \name Tenant fault domain (all dormant unless MULT_QUOTA/:quota arms
  /// the layer; see DESIGN.md "Tenant fault domains").
  /// @{
  /// Live-words heap quota; 0 = unlimited. The account charged against it
  /// is LiveWords (exact, from the last GC tally) + AllocWords (allocated
  /// since, an upper bound on live) + unflushed per-processor shards.
  uint64_t HeapQuotaWords = 0;
  /// Busy-cycle budget for the whole group; 0 = unlimited.
  uint64_t CycleBudget = 0;
  /// Busy cycles charged to member tasks since launch (or last restart).
  uint64_t CyclesUsed = 0;
  /// Exact live words attributed to this group at the last collection.
  uint64_t LiveWords = 0;
  /// Words allocated since the last collection (flushed shard deltas).
  uint64_t AllocWords = 0;
  /// Load-shedding priority: lower sheds first. Default 0.
  int Priority = 0;
  /// One free collection is granted when the (over-approximate) account
  /// first exceeds the quota, so garbage never trips a quota. Cleared when
  /// the exact post-GC account is back under.
  bool QuotaGraceUsed = false;
  /// @}
};

} // namespace mult

#endif // MULT_CORE_GROUP_H
