//===----------------------------------------------------------------------===//
///
/// \file
/// Fault-injector counter machinery.
///
//===----------------------------------------------------------------------===//

#include "fault/Injector.h"

#include <algorithm>

namespace mult {

void FaultInjector::configure(const FaultPlan &P) {
  Plan = P;
  Armed = false;
  Rng = Prng(Plan.Seed);
  Pending = Plan.Lists;
  Count.fill(0);
  PendingInjectedAllocFail = false;
}

bool FaultInjector::fires(FaultKind K, uint64_t Ordinal, uint64_t *ArgOut) {
  if (!Armed)
    return false;
  uint64_t N = Ordinal ? Ordinal : ++Count[size_t(K)];
  std::vector<FaultEntry> &L = Pending[size_t(K)];
  auto Past = std::find_if(L.begin(), L.end(),
                           [N](const FaultEntry &E) { return E.Key > N; });
  bool Fire = false;
  for (auto It = L.begin(); It != Past; ++It) {
    if (It->Key != N)
      continue;
    Fire = true;
    if (ArgOut)
      *ArgOut = It->Arg;
  }
  L.erase(L.begin(), Past);
  if (K == FaultKind::AllocFail) {
    if (Plan.AllocFailEvery && N % Plan.AllocFailEvery == 0)
      Fire = true;
    PendingInjectedAllocFail |= Fire;
  } else if (K == FaultKind::StealFail && Plan.StealFailProb > 0.0) {
    // One PRNG draw per probe keeps the stream aligned with the probe
    // ordinal regardless of which probes the ordinal list already fails.
    double Draw = double(Rng.next() >> 11) * 0x1.0p-53;
    if (Draw < Plan.StealFailProb)
      Fire = true;
  }
  return Fire;
}

bool FaultInjector::consumeInjectedAllocFail() {
  bool Was = PendingInjectedAllocFail;
  PendingInjectedAllocFail = false;
  return Was;
}

bool FaultInjector::takeMark(FaultKind K, uint64_t RelClock, FaultEntry &Out,
                             unsigned Proc) {
  if (!Armed)
    return false;
  bool Window = K == FaultKind::Stall;
  std::vector<FaultEntry> &L = Pending[size_t(K)];
  for (auto It = L.begin(); It != L.end() && It->Key <= RelClock;) {
    if (Window && It->Arg != Proc) {
      ++It;
      continue;
    }
    Out = *It;
    It = L.erase(It);
    if (!Window || Out.Key + Out.Len > RelClock)
      return true;
  }
  return false;
}

} // namespace mult
