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
/// A spec is clauses KEY=VALUE separated by ';'. The clause set is one
/// table, faultClauses(): each row names its key, the FaultKind it fires
/// and the shape of its value. Parsing, the canonical format(), the
/// sort/dedup rule and the REPL's `:help` grammar all read the rows, and
/// the rows' docs are the authoritative grammar.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_FAULT_FAULTPLAN_H
#define MULT_FAULT_FAULTPLAN_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
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
constexpr size_t NumFaultKinds = size_t(FaultKind::AdmitBurst) + 1;

/// The shape of a clause's value. List shapes are ','-separated entries:
/// ordinals (1-based, counted after arming) on the row's site, or marks on
/// the run-relative clock (cycles since the current run started).
/// The scalars come last.
enum class ClauseShape : uint8_t {
  Ordinals, ///< N[,N...]: the Nth event at the site
  Clamps,   ///< N@V[,...]: the Nth event forces value V (32-bit)
  Marks,    ///< C[,C...]: once the run clock reaches C
  Targets,  ///< A@C[,...]: target A (a processor or group, <= 0xffff) at C
  Bursts,   ///< N@C[,...]: N >= 1 (<= 0xffff) at C
  Windows,  ///< P@B+L[,...]: processor P (<= 0xffff) offline from B for
            ///< L >= 1 cycles
  Seed,        ///< U64 scalar (FaultPlan::Seed)
  Every,       ///< K >= 1 scalar (FaultPlan::AllocFailEvery)
  Probability, ///< P in [0,1] scalar (FaultPlan::StealFailProb)
  Cap,         ///< 32-bit Q scalar (FaultPlan::QueueCap)
};

/// One row of the clause table.
struct FaultClause {
  const char *Key;
  /// The kind the clause fires; a list row's entries live in
  /// FaultPlan::Lists under it (no two list rows share a kind).
  FaultKind Kind;
  ClauseShape Shape;
  const char *Doc; ///< one line for `:help`
};

/// The clause table, in canonical format() order.
std::span<const FaultClause> faultClauses();

/// `KEY=` plus the shape's value syntax, e.g. "stall=P@B+L[,...]".
std::string clauseSyntax(const FaultClause &C);

/// One entry of a list clause.
struct FaultEntry {
  uint64_t Key = 0; ///< the ordinal or run-relative mark it fires at
  uint64_t Arg = 0; ///< the target, count or value (0 for N and C shapes)
  uint64_t Len = 0; ///< a window's length in cycles
};

/// A parsed, deterministic fault schedule.
struct FaultPlan {
  uint64_t Seed = 0x4d756c54;
  uint64_t AllocFailEvery = 0; ///< 0 = off
  double StealFailProb = 0.0;
  std::optional<uint32_t> QueueCap;
  /// The list clauses' entries by FaultKind, sorted by Key: N and C lists
  /// deduplicated, the rest stable-sorted.
  std::array<std::vector<FaultEntry>, NumFaultKinds> Lists;

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
