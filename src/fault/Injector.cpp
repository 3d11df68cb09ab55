//===----------------------------------------------------------------------===//
///
/// \file
/// Fault-injector counter machinery.
///
//===----------------------------------------------------------------------===//

#include "fault/Injector.h"

namespace mult {

void FaultInjector::configure(const FaultPlan &P) {
  Plan = P;
  Armed = false;
  Rng = Prng(Plan.Seed);
  AllocN = SpawnN = TouchN = StealN = SeamSplitN = 0;
  AllocIdx = GcIdx = SpawnIdx = TouchIdx = StealIdx = SeamSplitIdx = 0;
  AdaptClampIdx = AdaptResetIdx = ProcKillIdx = 0;
  QuotaSqueezeIdx = AdmitBurstIdx = 0;
  StallDone.assign(Plan.Stalls.size(), false);
  PendingInjectedAllocFail = false;
}

namespace {

/// Advances \p Idx past every entry of \p Sorted that is <= \p N and
/// reports whether \p N itself was listed.
bool hitOrdinal(const std::vector<uint64_t> &Sorted, size_t &Idx, uint64_t N) {
  bool Hit = false;
  while (Idx < Sorted.size() && Sorted[Idx] <= N) {
    if (Sorted[Idx] == N)
      Hit = true;
    ++Idx;
  }
  return Hit;
}

} // namespace

bool FaultInjector::shouldFailAlloc() {
  if (!Armed)
    return false;
  ++AllocN;
  bool Fail = hitOrdinal(Plan.AllocFailAt, AllocIdx, AllocN);
  if (Plan.AllocFailEvery && AllocN % Plan.AllocFailEvery == 0)
    Fail = true;
  if (Fail)
    PendingInjectedAllocFail = true;
  return Fail;
}

bool FaultInjector::consumeInjectedAllocFail() {
  bool Was = PendingInjectedAllocFail;
  PendingInjectedAllocFail = false;
  return Was;
}

bool FaultInjector::takeForcedGc(uint64_t RelClock, uint64_t &MarkOut) {
  if (!Armed || GcIdx >= Plan.GcAtCycles.size() ||
      Plan.GcAtCycles[GcIdx] > RelClock)
    return false;
  MarkOut = Plan.GcAtCycles[GcIdx];
  ++GcIdx;
  return true;
}

bool FaultInjector::shouldErrorSpawn() {
  if (!Armed)
    return false;
  ++SpawnN;
  return hitOrdinal(Plan.SpawnErrorAt, SpawnIdx, SpawnN);
}

bool FaultInjector::shouldErrorTouch() {
  if (!Armed)
    return false;
  ++TouchN;
  return hitOrdinal(Plan.TouchErrorAt, TouchIdx, TouchN);
}

bool FaultInjector::shouldFailSteal() {
  if (!Armed)
    return false;
  ++StealN;
  bool Fail = hitOrdinal(Plan.StealFailAt, StealIdx, StealN);
  if (Plan.StealFailProb > 0.0) {
    // One PRNG draw per probe keeps the stream aligned with the probe
    // ordinal regardless of which probes the ordinal list already fails.
    double Draw = double(Rng.next() >> 11) * 0x1.0p-53;
    if (Draw < Plan.StealFailProb)
      Fail = true;
  }
  return Fail;
}

bool FaultInjector::takeStall(unsigned Proc, uint64_t RelClock,
                              uint64_t &EndRelOut) {
  if (!Armed)
    return false;
  for (size_t I = 0; I < Plan.Stalls.size(); ++I) {
    const FaultPlan::StallWindow &W = Plan.Stalls[I];
    if (StallDone[I] || W.Proc != Proc || W.Begin > RelClock)
      continue;
    StallDone[I] = true;
    EndRelOut = W.Begin + W.Length;
    if (EndRelOut <= RelClock)
      continue; // window already elapsed entirely; nothing to stall
    return true;
  }
  return false;
}

bool FaultInjector::takeAdaptClamp(uint64_t Ordinal, uint32_t &ValueOut) {
  if (!Armed)
    return false;
  bool Hit = false;
  while (AdaptClampIdx < Plan.AdaptClamps.size() &&
         Plan.AdaptClamps[AdaptClampIdx].Window <= Ordinal) {
    if (Plan.AdaptClamps[AdaptClampIdx].Window == Ordinal) {
      Hit = true;
      ValueOut = Plan.AdaptClamps[AdaptClampIdx].Value;
    }
    ++AdaptClampIdx;
  }
  return Hit;
}

bool FaultInjector::takeAdaptReset(uint64_t Ordinal) {
  if (!Armed)
    return false;
  return hitOrdinal(Plan.AdaptResetAt, AdaptResetIdx, Ordinal);
}

bool FaultInjector::takeProcKill(uint64_t RelClock, unsigned &ProcOut,
                                 uint64_t &AtOut) {
  if (!Armed || ProcKillIdx >= Plan.ProcKills.size() ||
      Plan.ProcKills[ProcKillIdx].AtCycles > RelClock)
    return false;
  ProcOut = Plan.ProcKills[ProcKillIdx].Proc;
  AtOut = Plan.ProcKills[ProcKillIdx].AtCycles;
  ++ProcKillIdx;
  return true;
}

bool FaultInjector::shouldFailSeamSplit() {
  if (!Armed)
    return false;
  ++SeamSplitN;
  return hitOrdinal(Plan.SeamSplitFailAt, SeamSplitIdx, SeamSplitN);
}

bool FaultInjector::takeQuotaSqueeze(uint64_t RelClock, unsigned &GroupOut,
                                     uint64_t &AtOut) {
  if (!Armed || QuotaSqueezeIdx >= Plan.QuotaSqueezes.size() ||
      Plan.QuotaSqueezes[QuotaSqueezeIdx].AtCycles > RelClock)
    return false;
  GroupOut = Plan.QuotaSqueezes[QuotaSqueezeIdx].Proc;
  AtOut = Plan.QuotaSqueezes[QuotaSqueezeIdx].AtCycles;
  ++QuotaSqueezeIdx;
  return true;
}

bool FaultInjector::takeAdmitBurst(uint64_t RelClock, unsigned &CountOut,
                                   uint64_t &AtOut) {
  if (!Armed || AdmitBurstIdx >= Plan.AdmitBursts.size() ||
      Plan.AdmitBursts[AdmitBurstIdx].AtCycles > RelClock)
    return false;
  CountOut = Plan.AdmitBursts[AdmitBurstIdx].Proc;
  AtOut = Plan.AdmitBursts[AdmitBurstIdx].AtCycles;
  ++AdmitBurstIdx;
  return true;
}

} // namespace mult
