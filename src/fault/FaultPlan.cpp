//===----------------------------------------------------------------------===//
///
/// \file
/// Fault-plan spec parsing and formatting.
///
//===----------------------------------------------------------------------===//

#include "fault/FaultPlan.h"

#include "support/StrUtil.h"

#include <algorithm>
#include <cstdlib>

namespace mult {

const char *faultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::AllocFail:
    return "alloc-fail";
  case FaultKind::SpuriousGc:
    return "spurious-gc";
  case FaultKind::SpawnError:
    return "spawn-error";
  case FaultKind::TouchError:
    return "touch-error";
  case FaultKind::StealFail:
    return "steal-fail";
  case FaultKind::QueueClamp:
    return "queue-clamp";
  case FaultKind::Stall:
    return "stall";
  case FaultKind::AdaptClamp:
    return "adapt-clamp";
  case FaultKind::AdaptReset:
    return "adapt-reset";
  case FaultKind::ProcKill:
    return "proc-kill";
  case FaultKind::SeamSplitFail:
    return "seam-split-fail";
  case FaultKind::QuotaSqueeze:
    return "quota-squeeze";
  case FaultKind::AdmitBurst:
    return "admit-burst";
  }
  return "unknown-fault";
}

bool FaultPlan::empty() const {
  return AllocFailAt.empty() && AllocFailEvery == 0 && GcAtCycles.empty() &&
         SpawnErrorAt.empty() && TouchErrorAt.empty() && StealFailProb == 0.0 &&
         StealFailAt.empty() && !QueueCap && Stalls.empty() &&
         AdaptClamps.empty() && AdaptResetAt.empty() && ProcKills.empty() &&
         SeamSplitFailAt.empty() && QuotaSqueezes.empty() &&
         AdmitBursts.empty();
}

namespace {

void sortUnique(std::vector<uint64_t> &V) {
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
}

std::string joinList(const std::vector<uint64_t> &V) {
  std::string S;
  for (size_t I = 0; I < V.size(); ++I) {
    if (I)
      S += ",";
    S += std::to_string(V[I]);
  }
  return S;
}

std::vector<std::string_view> splitOn(std::string_view S, char Sep) {
  std::vector<std::string_view> Parts;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Next = S.find(Sep, Pos);
    if (Next == std::string_view::npos) {
      Parts.push_back(S.substr(Pos));
      break;
    }
    Parts.push_back(S.substr(Pos, Next - Pos));
    Pos = Next + 1;
  }
  return Parts;
}

std::string_view trim(std::string_view S) {
  while (!S.empty() && (S.front() == ' ' || S.front() == '\t'))
    S.remove_prefix(1);
  while (!S.empty() && (S.back() == ' ' || S.back() == '\t'))
    S.remove_suffix(1);
  return S;
}

bool parseU64(std::string_view S, uint64_t &Out) {
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    uint64_t Digit = uint64_t(C - '0');
    if (V > (~0ull - Digit) / 10)
      return false;
    V = V * 10 + Digit;
  }
  Out = V;
  return true;
}

bool parseU64List(std::string_view S, std::vector<uint64_t> &Out) {
  for (std::string_view Part : splitOn(S, ',')) {
    uint64_t V;
    if (!parseU64(trim(Part), V))
      return false;
    Out.push_back(V);
  }
  return !Out.empty();
}

bool parseProb(std::string_view S, double &Out) {
  std::string Buf(S);
  char *End = nullptr;
  double V = std::strtod(Buf.c_str(), &End);
  if (End != Buf.c_str() + Buf.size() || V < 0.0 || V > 1.0)
    return false;
  Out = V;
  return true;
}

/// One stall window: PROC@BEGIN+LENGTH.
bool parseStall(std::string_view S, FaultPlan::StallWindow &Out) {
  size_t At = S.find('@');
  if (At == std::string_view::npos)
    return false;
  size_t Plus = S.find('+', At + 1);
  if (Plus == std::string_view::npos)
    return false;
  uint64_t Proc, Begin, Length;
  if (!parseU64(trim(S.substr(0, At)), Proc) ||
      !parseU64(trim(S.substr(At + 1, Plus - At - 1)), Begin) ||
      !parseU64(trim(S.substr(Plus + 1)), Length))
    return false;
  if (Proc > 0xffff || Length == 0)
    return false;
  Out.Proc = unsigned(Proc);
  Out.Begin = Begin;
  Out.Length = Length;
  return true;
}

std::string formatProb(double P) {
  std::string S = strFormat("%g", P);
  return S;
}

/// One processor kill: PROC@CYCLES.
bool parseProcKill(std::string_view S, FaultPlan::ProcKillAt &Out) {
  size_t At = S.find('@');
  if (At == std::string_view::npos)
    return false;
  uint64_t Proc, Cycles;
  if (!parseU64(trim(S.substr(0, At)), Proc) ||
      !parseU64(trim(S.substr(At + 1)), Cycles))
    return false;
  if (Proc > 0xffff)
    return false;
  Out.Proc = unsigned(Proc);
  Out.AtCycles = Cycles;
  return true;
}

/// One adapt clamp: WINDOW@VALUE.
bool parseAdaptClamp(std::string_view S, FaultPlan::AdaptClampAt &Out) {
  size_t At = S.find('@');
  if (At == std::string_view::npos)
    return false;
  uint64_t Window, Value;
  if (!parseU64(trim(S.substr(0, At)), Window) ||
      !parseU64(trim(S.substr(At + 1)), Value))
    return false;
  if (Window == 0 || Value > 0xffffffffull)
    return false;
  Out.Window = Window;
  Out.Value = uint32_t(Value);
  return true;
}

} // namespace

std::string FaultPlan::format() const {
  std::string S;
  auto Clause = [&](const std::string &C) {
    if (!S.empty())
      S += ";";
    S += C;
  };
  if (Seed != FaultPlan().Seed)
    Clause("seed=" + std::to_string(Seed));
  if (!AllocFailAt.empty())
    Clause("alloc-fail=" + joinList(AllocFailAt));
  if (AllocFailEvery)
    Clause("alloc-fail-every=" + std::to_string(AllocFailEvery));
  if (!GcAtCycles.empty())
    Clause("gc-at=" + joinList(GcAtCycles));
  if (!SpawnErrorAt.empty())
    Clause("spawn-error=" + joinList(SpawnErrorAt));
  if (!TouchErrorAt.empty())
    Clause("touch-error=" + joinList(TouchErrorAt));
  if (StealFailProb != 0.0)
    Clause("steal-fail=" + formatProb(StealFailProb));
  if (!StealFailAt.empty())
    Clause("steal-fail-at=" + joinList(StealFailAt));
  if (QueueCap)
    Clause("queue-cap=" + std::to_string(*QueueCap));
  if (!Stalls.empty()) {
    std::string L;
    for (size_t I = 0; I < Stalls.size(); ++I) {
      if (I)
        L += ",";
      L += strFormat("%u@%llu+%llu", Stalls[I].Proc,
                     (unsigned long long)Stalls[I].Begin,
                     (unsigned long long)Stalls[I].Length);
    }
    Clause("stall=" + L);
  }
  if (!AdaptClamps.empty()) {
    std::string L;
    for (size_t I = 0; I < AdaptClamps.size(); ++I) {
      if (I)
        L += ",";
      L += strFormat("%llu@%u", (unsigned long long)AdaptClamps[I].Window,
                     AdaptClamps[I].Value);
    }
    Clause("adapt-clamp=" + L);
  }
  if (!AdaptResetAt.empty())
    Clause("adapt-reset=" + joinList(AdaptResetAt));
  if (!ProcKills.empty()) {
    std::string L;
    for (size_t I = 0; I < ProcKills.size(); ++I) {
      if (I)
        L += ",";
      L += strFormat("%u@%llu", ProcKills[I].Proc,
                     (unsigned long long)ProcKills[I].AtCycles);
    }
    Clause("proc-kill=" + L);
  }
  if (!SeamSplitFailAt.empty())
    Clause("seam-split-fail=" + joinList(SeamSplitFailAt));
  if (!QuotaSqueezes.empty()) {
    std::string L;
    for (size_t I = 0; I < QuotaSqueezes.size(); ++I) {
      if (I)
        L += ",";
      L += strFormat("%u@%llu", QuotaSqueezes[I].Proc,
                     (unsigned long long)QuotaSqueezes[I].AtCycles);
    }
    Clause("quota-squeeze=" + L);
  }
  if (!AdmitBursts.empty()) {
    std::string L;
    for (size_t I = 0; I < AdmitBursts.size(); ++I) {
      if (I)
        L += ",";
      L += strFormat("%u@%llu", AdmitBursts[I].Proc,
                     (unsigned long long)AdmitBursts[I].AtCycles);
    }
    Clause("admit-burst=" + L);
  }
  return S;
}

bool FaultPlan::parse(std::string_view Spec, FaultPlan &Out, std::string &Err) {
  Out = FaultPlan();
  for (std::string_view RawClause : splitOn(Spec, ';')) {
    std::string_view C = trim(RawClause);
    if (C.empty())
      continue;
    size_t Eq = C.find('=');
    if (Eq == std::string_view::npos) {
      Err = strFormat("clause '%.*s' has no '='", int(C.size()), C.data());
      return false;
    }
    std::string_view Key = trim(C.substr(0, Eq));
    std::string_view Val = trim(C.substr(Eq + 1));
    bool Ok;
    if (Key == "seed") {
      Ok = parseU64(Val, Out.Seed);
    } else if (Key == "alloc-fail") {
      Ok = parseU64List(Val, Out.AllocFailAt);
      Ok = Ok && std::find(Out.AllocFailAt.begin(), Out.AllocFailAt.end(),
                           0ull) == Out.AllocFailAt.end();
    } else if (Key == "alloc-fail-every") {
      Ok = parseU64(Val, Out.AllocFailEvery) && Out.AllocFailEvery != 0;
    } else if (Key == "gc-at") {
      Ok = parseU64List(Val, Out.GcAtCycles);
    } else if (Key == "spawn-error") {
      Ok = parseU64List(Val, Out.SpawnErrorAt);
      Ok = Ok && std::find(Out.SpawnErrorAt.begin(), Out.SpawnErrorAt.end(),
                           0ull) == Out.SpawnErrorAt.end();
    } else if (Key == "touch-error") {
      Ok = parseU64List(Val, Out.TouchErrorAt);
      Ok = Ok && std::find(Out.TouchErrorAt.begin(), Out.TouchErrorAt.end(),
                           0ull) == Out.TouchErrorAt.end();
    } else if (Key == "steal-fail") {
      Ok = parseProb(Val, Out.StealFailProb);
    } else if (Key == "steal-fail-at") {
      Ok = parseU64List(Val, Out.StealFailAt);
      Ok = Ok && std::find(Out.StealFailAt.begin(), Out.StealFailAt.end(),
                           0ull) == Out.StealFailAt.end();
    } else if (Key == "queue-cap") {
      uint64_t Cap;
      Ok = parseU64(Val, Cap) && Cap <= 0xffffffffull;
      if (Ok)
        Out.QueueCap = uint32_t(Cap);
    } else if (Key == "stall") {
      Ok = !Val.empty();
      for (std::string_view Part : splitOn(Val, ',')) {
        StallWindow W;
        if (!parseStall(trim(Part), W)) {
          Ok = false;
          break;
        }
        Out.Stalls.push_back(W);
      }
    } else if (Key == "adapt-clamp") {
      Ok = !Val.empty();
      for (std::string_view Part : splitOn(Val, ',')) {
        AdaptClampAt A;
        if (!parseAdaptClamp(trim(Part), A)) {
          Ok = false;
          break;
        }
        Out.AdaptClamps.push_back(A);
      }
    } else if (Key == "adapt-reset") {
      Ok = parseU64List(Val, Out.AdaptResetAt);
      Ok = Ok && std::find(Out.AdaptResetAt.begin(), Out.AdaptResetAt.end(),
                           0ull) == Out.AdaptResetAt.end();
    } else if (Key == "proc-kill") {
      Ok = !Val.empty();
      for (std::string_view Part : splitOn(Val, ',')) {
        ProcKillAt K;
        if (!parseProcKill(trim(Part), K)) {
          Ok = false;
          break;
        }
        Out.ProcKills.push_back(K);
      }
    } else if (Key == "quota-squeeze") {
      Ok = !Val.empty();
      for (std::string_view Part : splitOn(Val, ',')) {
        ProcKillAt Q; // G@C: the Proc field carries the group id
        if (!parseProcKill(trim(Part), Q)) {
          Ok = false;
          break;
        }
        Out.QuotaSqueezes.push_back(Q);
      }
    } else if (Key == "admit-burst") {
      Ok = !Val.empty();
      for (std::string_view Part : splitOn(Val, ',')) {
        ProcKillAt B; // N@C: the Proc field carries the burst size
        if (!parseProcKill(trim(Part), B) || B.Proc == 0) {
          Ok = false;
          break;
        }
        Out.AdmitBursts.push_back(B);
      }
    } else if (Key == "seam-split-fail") {
      Ok = parseU64List(Val, Out.SeamSplitFailAt);
      Ok = Ok && std::find(Out.SeamSplitFailAt.begin(),
                           Out.SeamSplitFailAt.end(),
                           0ull) == Out.SeamSplitFailAt.end();
    } else {
      Err = strFormat("unknown fault clause '%.*s'", int(Key.size()),
                      Key.data());
      return false;
    }
    if (!Ok) {
      Err = strFormat("bad value in clause '%.*s'", int(C.size()), C.data());
      return false;
    }
  }
  sortUnique(Out.AllocFailAt);
  sortUnique(Out.GcAtCycles);
  sortUnique(Out.SpawnErrorAt);
  sortUnique(Out.TouchErrorAt);
  sortUnique(Out.StealFailAt);
  sortUnique(Out.AdaptResetAt);
  sortUnique(Out.SeamSplitFailAt);
  std::stable_sort(Out.Stalls.begin(), Out.Stalls.end(),
                   [](const StallWindow &A, const StallWindow &B) {
                     return A.Begin < B.Begin;
                   });
  std::stable_sort(Out.AdaptClamps.begin(), Out.AdaptClamps.end(),
                   [](const AdaptClampAt &A, const AdaptClampAt &B) {
                     return A.Window < B.Window;
                   });
  std::stable_sort(Out.ProcKills.begin(), Out.ProcKills.end(),
                   [](const ProcKillAt &A, const ProcKillAt &B) {
                     return A.AtCycles < B.AtCycles;
                   });
  std::stable_sort(Out.QuotaSqueezes.begin(), Out.QuotaSqueezes.end(),
                   [](const ProcKillAt &A, const ProcKillAt &B) {
                     return A.AtCycles < B.AtCycles;
                   });
  std::stable_sort(Out.AdmitBursts.begin(), Out.AdmitBursts.end(),
                   [](const ProcKillAt &A, const ProcKillAt &B) {
                     return A.AtCycles < B.AtCycles;
                   });
  return true;
}

} // namespace mult
