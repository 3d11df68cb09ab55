//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the Mul-T test suite.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_TESTS_TESTUTIL_H
#define MULT_TESTS_TESTUTIL_H

#include "core/Engine.h"
#include "runtime/Printer.h"

#include <gtest/gtest.h>

namespace mult {
namespace testutil {

inline EngineConfig config(unsigned Procs = 1) {
  EngineConfig C;
  C.NumProcessors = Procs;
  // Keep tests fast to diagnose if something spins.
  C.MaxRunCycles = 500'000'000;
  return C;
}

/// Evaluates \p Src expecting success.
inline Value evalOk(Engine &E, std::string_view Src) {
  EvalResult R = E.eval(Src);
  EXPECT_TRUE(R.ok()) << "error `" << R.Error << "` evaluating: " << Src;
  return R.Val;
}

/// Evaluates \p Src expecting a fixnum result.
inline int64_t evalFixnum(Engine &E, std::string_view Src) {
  Value V = evalOk(E, Src);
  EXPECT_TRUE(V.isFixnum()) << "non-fixnum result " << valueToString(V)
                            << " for: " << Src;
  return V.isFixnum() ? V.asFixnum() : 0;
}

/// Evaluates \p Src and renders the result with `write`.
inline std::string evalPrint(Engine &E, std::string_view Src) {
  return valueToString(evalOk(E, Src));
}

/// Evaluates \p Src expecting a specific failure kind; returns the message.
inline std::string evalErr(Engine &E, std::string_view Src,
                           EvalResult::Kind Kind) {
  EvalResult R = E.eval(Src);
  EXPECT_EQ(static_cast<int>(R.K), static_cast<int>(Kind))
      << "for: " << Src << " (got `" << R.Error << "`)";
  return R.Error;
}

/// Busy cycles charged since the last reset, summed over processors.
inline uint64_t busyCycles(Engine &E) {
  uint64_t Busy = 0;
  for (unsigned I = 0; I < E.machine().numProcessors(); ++I)
    Busy += E.machine().processor(I).BusyCycles;
  return Busy;
}

} // namespace testutil
} // namespace mult

#endif // MULT_TESTS_TESTUTIL_H
