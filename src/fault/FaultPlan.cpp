//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-clause table, and spec parsing and formatting over it.
///
//===----------------------------------------------------------------------===//

#include "fault/FaultPlan.h"

#include "support/StrUtil.h"

#include <algorithm>
#include <cstdlib>

namespace mult {

namespace {

using S = ClauseShape;
using K = FaultKind;

const FaultClause Clauses[] = {
    {"seed", K::StealFail, S::Seed,
     "PRNG seed of steal-fail (default 0x4d756c54)"},
    {"alloc-fail", K::AllocFail, S::Ordinals,
     "fail the Nth mutator allocation (GC, then retry)"},
    {"alloc-fail-every", K::AllocFail, S::Every,
     "also fail every Kth allocation (same count)"},
    {"gc-at", K::SpuriousGc, S::Marks, "force a spurious collection at C"},
    {"spawn-error", K::SpawnError, S::Ordinals,
     "raise injected-fault at the Nth future spawn"},
    {"touch-error", K::TouchError, S::Ordinals,
     "raise injected-fault at the Nth touch"},
    {"steal-fail", K::StealFail, S::Probability,
     "fail each steal probe with probability P"},
    {"steal-fail-at", K::StealFail, S::Ordinals,
     "also fail the Nth steal probe (same count)"},
    {"queue-cap", K::QueueClamp, S::Cap,
     "inline futures once Q tasks are queued locally"},
    {"stall", K::Stall, S::Windows,
     "take processor P offline for L cycles from B"},
    {"adapt-clamp", K::AdaptClamp, S::Clamps,
     "clamp T to V as the Nth adaptation window closes"},
    {"adapt-reset", K::AdaptReset, S::Ordinals,
     "discard the Nth adaptation window's samples"},
    {"proc-kill", K::ProcKill, S::Targets,
     "fail-stop processor A at C (never the last)"},
    {"seam-split-fail", K::SeamSplitFail, S::Ordinals,
     "fail the Nth lazy-future seam-split attempt"},
    {"quota-squeeze", K::QuotaSqueeze, S::Targets,
     "clamp group A's heap quota to half at C"},
    {"admit-burst", K::AdmitBurst, S::Bursts,
     "push N synthetic launches through the gate at C"},
};

bool isScalar(ClauseShape Shape) { return Shape >= S::Seed; }

/// Shapes whose entries carry no Arg: sorted and deduplicated.
bool isPlainList(ClauseShape Shape) {
  return Shape == S::Ordinals || Shape == S::Marks;
}

const FaultClause *findClause(std::string_view Key) {
  for (const FaultClause &C : Clauses)
    if (Key == C.Key)
      return &C;
  return nullptr;
}

bool parseProb(std::string_view Text, double &Out) {
  std::string Buf(Text);
  char *End = nullptr;
  double V = std::strtod(Buf.c_str(), &End);
  if (End != Buf.c_str() + Buf.size() || V < 0.0 || V > 1.0)
    return false;
  Out = V;
  return true;
}

/// One list entry of \p Shape; each number may carry blanks around it.
bool parseEntry(ClauseShape Shape, std::string_view Text, FaultEntry &E) {
  Text = trim(Text);
  if (isPlainList(Shape))
    return parseU64(Text, E.Key) && (Shape == S::Marks || E.Key != 0);
  size_t At = Text.find('@');
  if (At == std::string_view::npos)
    return false;
  std::string_view Lhs = trim(Text.substr(0, At));
  std::string_view Rhs = Text.substr(At + 1);
  switch (Shape) {
  case S::Clamps:
    return parseU64(Lhs, E.Key) && parseU64(trim(Rhs), E.Arg) && E.Key != 0 &&
           E.Arg <= 0xffffffffull;
  case S::Targets:
  case S::Bursts:
    return parseU64(Lhs, E.Arg) && parseU64(trim(Rhs), E.Key) &&
           E.Arg <= 0xffff && (Shape == S::Targets || E.Arg != 0);
  case S::Windows: {
    size_t Plus = Rhs.find('+');
    return Plus != std::string_view::npos && parseU64(Lhs, E.Arg) &&
           parseU64(trim(Rhs.substr(0, Plus)), E.Key) &&
           parseU64(trim(Rhs.substr(Plus + 1)), E.Len) && E.Arg <= 0xffff &&
           E.Len != 0;
  }
  default:
    return false;
  }
}

bool parseValue(const FaultClause &C, std::string_view Val, FaultPlan &Out) {
  switch (C.Shape) {
  case S::Seed:
    return parseU64(Val, Out.Seed);
  case S::Every:
    return parseU64(Val, Out.AllocFailEvery) && Out.AllocFailEvery != 0;
  case S::Probability:
    return parseProb(Val, Out.StealFailProb);
  case S::Cap: {
    uint64_t Cap;
    if (!parseU64(Val, Cap) || Cap > 0xffffffffull)
      return false;
    Out.QueueCap = uint32_t(Cap);
    return true;
  }
  default:
    break;
  }
  for (std::string_view Part : splitOn(Val, ",")) {
    FaultEntry E;
    if (!parseEntry(C.Shape, Part, E))
      return false;
    Out.Lists[size_t(C.Kind)].push_back(E);
  }
  return true;
}

std::string formatEntry(ClauseShape Shape, const FaultEntry &E) {
  auto U = [](uint64_t V) { return (unsigned long long)V; };
  switch (Shape) {
  case S::Clamps:
    return strFormat("%llu@%llu", U(E.Key), U(E.Arg));
  case S::Targets:
  case S::Bursts:
    return strFormat("%llu@%llu", U(E.Arg), U(E.Key));
  case S::Windows:
    return strFormat("%llu@%llu+%llu", U(E.Arg), U(E.Key), U(E.Len));
  default:
    return std::to_string(E.Key);
  }
}

/// The value format() prints for \p C; empty when the clause is unset.
std::string formatValue(const FaultPlan &P, const FaultClause &C) {
  switch (C.Shape) {
  case S::Seed:
    return P.Seed != FaultPlan().Seed ? std::to_string(P.Seed) : "";
  case S::Every:
    return P.AllocFailEvery ? std::to_string(P.AllocFailEvery) : "";
  case S::Probability:
    return P.StealFailProb != 0.0 ? strFormat("%g", P.StealFailProb) : "";
  case S::Cap:
    return P.QueueCap ? std::to_string(*P.QueueCap) : "";
  default:
    break;
  }
  std::string Out;
  for (const FaultEntry &E : P.Lists[size_t(C.Kind)]) {
    if (!Out.empty())
      Out += ",";
    Out += formatEntry(C.Shape, E);
  }
  return Out;
}

} // namespace

std::span<const FaultClause> faultClauses() { return Clauses; }

std::string clauseSyntax(const FaultClause &C) {
  static const char *const Syntax[] = {
      "N[,N...]", "N@V[,...]", "C[,C...]", "A@C[,...]", "N@C[,...]",
      "P@B+L[,...]", "U64", "K", "P", "Q"};
  return std::string(C.Key) + "=" + Syntax[size_t(C.Shape)];
}

bool FaultPlan::empty() const {
  // The seed alone never fires anything.
  return std::all_of(std::begin(Clauses), std::end(Clauses),
                     [&](const FaultClause &C) {
                       return C.Shape == S::Seed ||
                              formatValue(*this, C).empty();
                     });
}

std::string FaultPlan::format() const {
  std::string Out;
  for (const FaultClause &C : Clauses) {
    std::string V = formatValue(*this, C);
    if (V.empty())
      continue;
    if (!Out.empty())
      Out += ";";
    Out += C.Key;
    Out += "=" + V;
  }
  return Out;
}

bool FaultPlan::parse(std::string_view Spec, FaultPlan &Out, std::string &Err) {
  Out = FaultPlan();
  for (std::string_view RawClause : splitOn(Spec, ";")) {
    std::string_view C = trim(RawClause);
    if (C.empty())
      continue;
    size_t Eq = C.find('=');
    if (Eq == std::string_view::npos) {
      Err = strFormat("clause '%.*s' has no '='", int(C.size()), C.data());
      return false;
    }
    std::string_view Key = trim(C.substr(0, Eq));
    const FaultClause *Row = findClause(Key);
    if (!Row) {
      Err = strFormat("unknown fault clause '%.*s'", int(Key.size()),
                      Key.data());
      return false;
    }
    if (!parseValue(*Row, trim(C.substr(Eq + 1)), Out)) {
      Err = strFormat("bad value in clause '%.*s'", int(C.size()), C.data());
      return false;
    }
  }
  for (const FaultClause &Row : Clauses) {
    if (isScalar(Row.Shape))
      continue;
    std::vector<FaultEntry> &L = Out.Lists[size_t(Row.Kind)];
    std::stable_sort(L.begin(), L.end(),
                     [](const FaultEntry &A, const FaultEntry &B) {
                       return A.Key < B.Key;
                     });
    if (isPlainList(Row.Shape))
      L.erase(std::unique(L.begin(), L.end(),
                          [](const FaultEntry &A, const FaultEntry &B) {
                            return A.Key == B.Key;
                          }),
              L.end());
  }
  return true;
}

} // namespace mult
