//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault plans (the chaos-engineering layer).
///
/// A FaultPlan describes *when* the engine should misbehave, in terms of
/// deterministic counters and virtual-time offsets, so the same plan + the
/// same program + the same seed reproduce the same adversity bit-for-bit.
/// The paper's engine survives real adversity (queue overflow, heap
/// exhaustion, errors in parallel tasks) by design; the plan lets us
/// subject the reproduction to each of those on demand and replay any
/// failure from its spec string.
///
/// Spec grammar (clauses separated by ';', lists by ','):
///
///   seed=U64                 PRNG seed for probabilistic clauses
///   alloc-fail=N[,N...]      fail the Nth mutator allocation (1-based,
///                            counted after arming; a real GC then runs
///                            and the retry succeeds)
///   alloc-fail-every=K       additionally fail every Kth allocation
///   gc-at=C[,C...]           force a spurious collection once the run
///                            clock reaches C (run-start-relative;
///                            consumed once)
///   spawn-error=N[,N...]     raise `injected-fault` at the Nth future
///                            spawn (group stops; resume retries)
///   touch-error=N[,N...]     raise `injected-fault` at the Nth executed
///                            touch instruction
///   steal-fail=P             each steal probe fails with probability P
///   steal-fail-at=N[,N...]   fail the Nth steal probe exactly
///   queue-cap=Q              clamp task-queue capacity: futures inline
///                            when the spawning processor already holds
///                            >= Q queued tasks (the paper's
///                            queue-overflow degradation)
///   stall=P@B+L[,P@B+L...]   processor P goes offline for L cycles once
///                            the run clock reaches B (run-start-relative;
///                            models a slow or failed board on the bus)
///   adapt-clamp=N@V[,...]    when the Nth adaptation window closes
///                            (machine-wide 1-based ordinal), clamp the
///                            closing processor's adaptive inlining
///                            threshold to V and discard its pending
///                            hysteresis votes
///   adapt-reset=N[,N...]     when the Nth adaptation window closes,
///                            discard its samples and pending votes (the
///                            threshold keeps its value)
///   proc-kill=P@C[,P@C...]   fail-stop processor P once the run clock
///                            reaches C (run-start-relative; consumed
///                            once). The engine drains the dead
///                            processor's queues onto survivors and
///                            re-spawns lost futures from their spawn
///                            lineage (see DESIGN.md, "Processor
///                            fail-stop and recovery"); killing the last
///                            live processor is ignored. A mark landing
///                            inside a collection fires mid-GC: the
///                            victim dies between its root-scan and copy
///                            phases and survivors inherit its copy work
///   seam-split-fail=N[,N...] fail the Nth lazy-future seam-split
///                            attempt (1-based): the thief backs off and
///                            the seam stays with its owner, who later
///                            evaluates it inline
///   quota-squeeze=G@C[,...]  once the run clock reaches C, clamp group
///                            G's heap quota to half its current account
///                            (arming the tenant layer if dormant), as if
///                            an operator tightened a tenant's envelope
///                            mid-run; the group trips group-heap-quota
///                            on its next poll unless it frees memory
///   admit-burst=N@C[,...]    once the run clock reaches C, push N
///                            synthetic launch probes through the
///                            admission gate, exercising the
///                            admitted/queued/rejected partition without
///                            creating tasks
///
//===----------------------------------------------------------------------===//

#ifndef MULT_FAULT_FAULTPLAN_H
#define MULT_FAULT_FAULTPLAN_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mult {

/// What kind of fault an injection site fired. Recorded as payload A of
/// every FaultInjected trace event.
enum class FaultKind : uint8_t {
  AllocFail,  ///< forced mutator-allocation failure
  SpuriousGc, ///< forced collection at a virtual-time mark
  SpawnError, ///< injected exception at a future spawn
  TouchError, ///< injected exception at a touch instruction
  StealFail,  ///< forced steal-probe failure
  QueueClamp, ///< queue-capacity clamp forced an inline evaluation
  Stall,      ///< processor offline window
  AdaptClamp, ///< adaptive inlining threshold forced to a value
  AdaptReset, ///< adaptive controller window samples discarded
  ProcKill,   ///< fail-stop processor crash at a virtual-time mark
  SeamSplitFail, ///< forced lazy-future seam-split failure
  QuotaSqueeze, ///< group heap quota clamped at a virtual-time mark
  AdmitBurst,   ///< synthetic launch burst through the admission gate
};

/// Human-readable name of \p K ("alloc-fail", "stall", ...).
const char *faultKindName(FaultKind K);

/// A parsed, deterministic fault schedule.
struct FaultPlan {
  uint64_t Seed = 0x4d756c54;

  std::vector<uint64_t> AllocFailAt; ///< sorted 1-based allocation ordinals
  uint64_t AllocFailEvery = 0;       ///< 0 = off

  std::vector<uint64_t> GcAtCycles; ///< sorted run-relative cycle marks

  std::vector<uint64_t> SpawnErrorAt; ///< sorted 1-based spawn ordinals
  std::vector<uint64_t> TouchErrorAt; ///< sorted 1-based touch ordinals

  double StealFailProb = 0.0;
  std::vector<uint64_t> StealFailAt; ///< sorted 1-based probe ordinals

  std::optional<uint32_t> QueueCap;

  struct StallWindow {
    unsigned Proc = 0;
    uint64_t Begin = 0;  ///< run-relative cycle the window opens
    uint64_t Length = 0; ///< cycles the processor stays offline
  };
  std::vector<StallWindow> Stalls;

  struct AdaptClampAt {
    uint64_t Window = 0; ///< machine-wide 1-based window ordinal
    uint32_t Value = 0;  ///< threshold to force (clamped to the T bounds)
  };
  std::vector<AdaptClampAt> AdaptClamps; ///< sorted by Window
  std::vector<uint64_t> AdaptResetAt;    ///< sorted window ordinals

  struct ProcKillAt {
    unsigned Proc = 0;
    uint64_t AtCycles = 0; ///< run-relative cycle the fail-stop fires
  };
  std::vector<ProcKillAt> ProcKills; ///< sorted by AtCycles

  std::vector<uint64_t> SeamSplitFailAt; ///< sorted 1-based split ordinals

  /// Tenant-layer marks (ProcKillAt shape: first field names the target
  /// group / the burst size, AtCycles the run-relative mark).
  std::vector<ProcKillAt> QuotaSqueezes; ///< sorted by AtCycles
  std::vector<ProcKillAt> AdmitBursts;   ///< sorted by AtCycles

  /// True when no clause can ever fire.
  bool empty() const;

  /// Canonical spec string (parse(format()) round-trips).
  std::string format() const;

  /// Parses \p Spec into \p Out. False (and \p Err set) on a malformed
  /// spec; \p Out is unspecified then.
  static bool parse(std::string_view Spec, FaultPlan &Out, std::string &Err);
};

} // namespace mult

#endif // MULT_FAULT_FAULTPLAN_H
