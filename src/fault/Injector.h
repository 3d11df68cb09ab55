//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injector.
///
/// The injector owns a FaultPlan plus the run-time counters that decide
/// when each clause fires. All decisions are pure functions of the plan,
/// the plan's seed, and the order in which the engine consults the
/// injector — which is itself deterministic in virtual time — so a fault
/// schedule replays exactly. The injector stays disarmed during engine
/// bootstrap (the prelude must load unmolested) and is armed right after.
///
/// Every site asks one of two queries: the ordinal query (the Nth event at
/// a counted site) or the clock-mark query (a mark on the run-relative
/// clock). Each list row keeps its unconsumed entries, and each counted
/// site one counter.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_FAULT_INJECTOR_H
#define MULT_FAULT_INJECTOR_H

#include "fault/FaultPlan.h"
#include "support/Prng.h"

#include <cstdint>

namespace mult {

class FaultInjector {
public:
  FaultInjector() : Rng(FaultPlan().Seed) {}

  /// Installs \p P and resets every counter. Does not arm.
  void configure(const FaultPlan &P);

  void arm() { Armed = !Plan.empty(); }
  void disarm() { Armed = false; }
  bool armed() const { return Armed; }
  const FaultPlan &plan() const { return Plan; }

  /// The ordinal query: one more event happened at the site of \p K (a
  /// mutator allocation, future spawn, touch, steal probe, seam-split
  /// attempt, or closing adaptation window). The injector numbers it with
  /// its counter of that site, unless the caller numbers the site itself
  /// and passes the 1-based \p Ordinal (the machine-wide adaptation
  /// windows). Consumes row \p K's entries up to that ordinal and returns
  /// true when one is listed there (\p ArgOut = its value, for
  /// adapt-clamp) or the site's scalar fires: every Kth allocation, or the
  /// steal-fail draw, taken once per probe whatever the list says. A
  /// failed allocation is marked pending for consumeInjectedAllocFail().
  bool fires(FaultKind K, uint64_t Ordinal = 0, uint64_t *ArgOut = nullptr);

  /// Consumes the pending-injected-allocation flag, so the scheduler's
  /// heap-exhaustion heuristics can tell an injected failure from a
  /// genuinely full heap. The machine calls this once per NeedsGc round.
  bool consumeInjectedAllocFail();

  /// Queue-capacity clamp, if any.
  const std::optional<uint32_t> &queueCap() const { return Plan.QueueCap; }

  /// The clock-mark query: consumes the first entry of row \p K due at or
  /// before run-relative cycle \p RelClock and returns true with \p Out =
  /// that entry (Key is its mark, which a quantum-granular poll may
  /// observe late). A stall fires only for its own processor, the poller
  /// \p Proc, and a window that has already ended is used up without
  /// firing. At most one mark fires per call; the machine polls every
  /// quantum, so stacked marks fire on consecutive polls.
  bool takeMark(FaultKind K, uint64_t RelClock, FaultEntry &Out,
                unsigned Proc = 0);

private:
  FaultPlan Plan;
  bool Armed = false;
  Prng Rng;
  /// Per list row, by kind: its entries not yet consumed, in plan order.
  std::array<std::vector<FaultEntry>, NumFaultKinds> Pending;
  /// Per counted site, by kind: events seen since arming.
  std::array<uint64_t, NumFaultKinds> Count{};
  bool PendingInjectedAllocFail = false;
};

} // namespace mult

#endif // MULT_FAULT_INJECTOR_H
