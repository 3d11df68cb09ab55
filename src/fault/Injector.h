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

  /// True when the current mutator allocation must fail. Marks the
  /// failure as pending so the scheduler's heap-exhaustion heuristics
  /// can tell an injected failure from a genuinely full heap.
  bool shouldFailAlloc();

  /// Consumes the pending-injected-allocation flag set by
  /// shouldFailAlloc(). The machine calls this once per NeedsGc round.
  bool consumeInjectedAllocFail();

  /// If a forced collection is due at run-relative cycle \p RelClock,
  /// consumes its mark and returns true (\p MarkOut = the mark).
  bool takeForcedGc(uint64_t RelClock, uint64_t &MarkOut);

  /// True when the current future spawn must raise an injected error.
  bool shouldErrorSpawn();

  /// True when the current touch instruction must raise an injected
  /// error.
  bool shouldErrorTouch();

  /// True when the current steal probe must fail.
  bool shouldFailSteal();

  /// Queue-capacity clamp, if any.
  const std::optional<uint32_t> &queueCap() const { return Plan.QueueCap; }

  /// If processor \p Proc has a stall window opening at or before
  /// run-relative cycle \p RelClock, consumes it and returns true with
  /// \p EndRelOut = the run-relative cycle the window closes.
  bool takeStall(unsigned Proc, uint64_t RelClock, uint64_t &EndRelOut);

  /// If the closing adaptation window \p Ordinal (machine-wide, 1-based)
  /// has an adapt-clamp clause, consumes it and returns true with
  /// \p ValueOut = the forced threshold.
  bool takeAdaptClamp(uint64_t Ordinal, uint32_t &ValueOut);

  /// If the closing adaptation window \p Ordinal has an adapt-reset
  /// clause, consumes it and returns true.
  bool takeAdaptReset(uint64_t Ordinal);

  /// If a proc-kill clause is due at or before run-relative cycle
  /// \p RelClock, consumes it and returns true with \p ProcOut = the
  /// processor to fail-stop and \p AtOut = the clause's run-relative
  /// mark (the cycle the processor is deemed dead *from*, which the
  /// quantum-granular poll may observe late). At most one kill per
  /// call; the machine polls every quantum, so stacked kills fire on
  /// consecutive polls.
  bool takeProcKill(uint64_t RelClock, unsigned &ProcOut, uint64_t &AtOut);

  /// True when the current lazy-future seam-split attempt must fail.
  bool shouldFailSeamSplit();

  /// If a quota-squeeze clause is due at or before run-relative cycle
  /// \p RelClock, consumes it and returns true with \p GroupOut = the
  /// group whose heap quota to clamp. At most one per call, like
  /// takeProcKill.
  bool takeQuotaSqueeze(uint64_t RelClock, unsigned &GroupOut,
                        uint64_t &AtOut);

  /// If an admit-burst clause is due at or before run-relative cycle
  /// \p RelClock, consumes it and returns true with \p CountOut = the
  /// number of synthetic launch probes to push through the gate.
  bool takeAdmitBurst(uint64_t RelClock, unsigned &CountOut, uint64_t &AtOut);

private:
  FaultPlan Plan;
  bool Armed = false;
  Prng Rng;

  uint64_t AllocN = 0;
  uint64_t SpawnN = 0;
  uint64_t TouchN = 0;
  uint64_t StealN = 0;
  uint64_t SeamSplitN = 0;
  size_t AllocIdx = 0; ///< next unconsumed entry of Plan.AllocFailAt
  size_t GcIdx = 0;    ///< next unconsumed entry of Plan.GcAtCycles
  size_t SpawnIdx = 0;
  size_t TouchIdx = 0;
  size_t StealIdx = 0;
  size_t SeamSplitIdx = 0;
  size_t ProcKillIdx = 0; ///< next unconsumed entry of Plan.ProcKills
  size_t AdaptClampIdx = 0; ///< next unconsumed entry of Plan.AdaptClamps
  size_t AdaptResetIdx = 0; ///< next unconsumed entry of Plan.AdaptResetAt
  size_t QuotaSqueezeIdx = 0; ///< next unconsumed entry of Plan.QuotaSqueezes
  size_t AdmitBurstIdx = 0;   ///< next unconsumed entry of Plan.AdmitBursts
  std::vector<bool> StallDone; ///< parallel to Plan.Stalls
  bool PendingInjectedAllocFail = false;
};

} // namespace mult

#endif // MULT_FAULT_INJECTOR_H
