//===----------------------------------------------------------------------===//
///
/// \file
/// Interpreter implementation: one set of handler bodies (InterpBody.inc),
/// two dispatchers.
///
///  - interpretSwitch: the portable seed dispatcher — fetch at the top of a
///    while loop, one big switch.
///  - interpretThreaded: direct-threaded dispatch over the pre-decoded
///    DInsn stream (vm/Threaded.h) — computed goto, pre-folded base costs,
///    global/call inline caches, fused superinstructions. Gated on
///    MULT_COMPUTED_GOTO; builds without labels-as-values fall back to the
///    switch path (Engine::dispatchThreaded is then always false).
///
/// Both expand the same InterpPrelude.inc/InterpBody.inc text, so they are
/// bit-identical in virtual cycles, events and outcomes by construction —
/// the "virtual cycles are sacred" invariant DispatchParityTest pins.
///
//===----------------------------------------------------------------------===//

#include "vm/Interpreter.h"

#include "core/Engine.h"
#include "core/FutureOps.h"
#include "core/LazyFutures.h"
#include "runtime/Printer.h"
#include "support/StrUtil.h"
#include "vm/CostModel.h"
#include "vm/Primitives.h"
#include "vm/Threaded.h"

#include <cassert>

using namespace mult;

namespace {

/// True for fixnum or flonum.
bool isNumber(Value V) {
  return V.isFixnum() ||
         (V.isObject() && V.asObject()->tag() == TypeTag::Flonum);
}

double numAsDouble(Value V) {
  return V.isFixnum() ? static_cast<double>(V.asFixnum())
                      : V.asObject()->flonumValue();
}

bool isPairV(Value V) {
  return V.isObject() && V.asObject()->tag() == TypeTag::Pair;
}
bool isVectorV(Value V) {
  return V.isObject() && V.asObject()->tag() == TypeTag::Vector;
}
bool isClosureV(Value V) {
  return V.isObject() && V.asObject()->tag() == TypeTag::Closure;
}

/// The threaded label table is written against this exact opcode count;
/// adding an opcode must extend both the table and the body include.
static_assert(NumOpcodes == 51, "update the threaded handler table");
static_assert(NumFusedOps == 52, "update the fused handler table");

//===----------------------------------------------------------------------===//
// Switch dispatcher (the seed interpreter, unchanged semantics).
//===----------------------------------------------------------------------===//

StepOutcome interpretSwitch(Engine &E, Processor &P, Task &T,
                            uint64_t TargetClock) {
#include "vm/InterpPrelude.inc"

  while (P.Clock < TargetClock) {
    assert(T.Pc < T.CurCode->Insns.size() && "pc ran off the template");
    const Insn &I = T.CurCode->Insns[T.Pc];
    P.charge(opBaseCost(I.Opcode));
    ++P.Instructions;
    uint32_t Base = T.Frames.back().Base;

    switch (I.Opcode) {
#define VM_THREADED 0
#include "vm/InterpBody.inc"
#undef VM_THREADED
    }
  }
  return StepOutcome::TimeSlice;
}

//===----------------------------------------------------------------------===//
// Direct-threaded dispatcher.
//===----------------------------------------------------------------------===//

#if MULT_COMPUTED_GOTO

/// The threaded interpreter proper. Doubles as the label exporter: when
/// \p LabelsOut is non-null the function only publishes its handler table
/// (computed-goto labels are addressable solely from inside the function
/// that declares them) and returns without touching the other arguments.
///
/// Cross-jumping and GCSE are disabled for this one function: the point
/// of replicating `goto *handler` at the end of every handler is one
/// branch-predictor entry per dispatch site, and those passes would merge
/// the replicas back into a single indirect jump (one BTB entry for every
/// opcode transition — a misprediction storm). The switch dispatcher
/// above keeps the stock optimization pipeline; it IS the baseline.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-gcse", "no-crossjumping")))
#endif
StepOutcome interpretThreaded(Engine *EP, Processor *PP, Task *TP,
                              uint64_t TargetClock,
                              const ThreadedLabels **LabelsOut) {
  // Handler addresses, indexed by Op (order must match the enum) and by
  // FusedOp. Fused[None] stays null.
  static const ThreadedLabels Labels = {
      {{
          &&L_Const,        &&L_PushFixnum,  &&L_PushNil,
          &&L_PushTrue,     &&L_PushFalse,   &&L_PushUnspecified,
          &&L_Local,        &&L_SetLocal,    &&L_Slide,
          &&L_Free,         &&L_Pop,         &&L_MakeBox,
          &&L_BoxRef,       &&L_BoxSet,      &&L_GlobalRef,
          &&L_GlobalSet,    &&L_GlobalDefine, &&L_Closure,
          &&L_Jump,         &&L_JumpIfFalse, &&L_Call,
          &&L_TailCall,     &&L_Return,      &&L_TouchStack,
          &&L_TouchLocal,   &&L_TouchBack,   &&L_FutureOp,
          &&L_Add,          &&L_Sub,         &&L_Mul,
          &&L_Quotient,     &&L_Remainder,   &&L_NumLt,
          &&L_NumLe,        &&L_NumGt,       &&L_NumGe,
          &&L_NumEq,        &&L_Eq,          &&L_Cons,
          &&L_Car,          &&L_Cdr,         &&L_SetCar,
          &&L_SetCdr,       &&L_NullP,       &&L_PairP,
          &&L_Not,          &&L_VectorRef,   &&L_VectorSet,
          &&L_VectorLength, &&L_CallPrim,    &&L_PrimApplyVar,
      }},
      {{
          nullptr, // FusedOp::None
          &&L_F_Const_Return,
          &&L_F_Const_Call,
          &&L_F_Const_CallPrim,
          &&L_F_Local_Local,
          &&L_F_Local_PushFixnum,
          &&L_F_Local_TouchLocal,
          &&L_F_Local_TouchStack,
          &&L_F_Local_Return,
          &&L_F_Local_Call,
          &&L_F_Local_CallPrim,
          &&L_F_PushFixnum_Return,
          &&L_F_PushFixnum_Call,
          &&L_F_PushFixnum_CallPrim,
          &&L_F_PushFixnum_Add,
          &&L_F_PushFixnum_Sub,
          &&L_F_PushFixnum_Mul,
          &&L_F_PushFixnum_NumLt,
          &&L_F_PushFixnum_NumLe,
          &&L_F_PushFixnum_NumGt,
          &&L_F_PushFixnum_NumGe,
          &&L_F_PushFixnum_NumEq,
          &&L_F_Local_Add,
          &&L_F_Local_Sub,
          &&L_F_Local_Mul,
          &&L_F_Local_NumLt,
          &&L_F_Local_NumLe,
          &&L_F_Local_NumGt,
          &&L_F_Local_NumGe,
          &&L_F_Local_NumEq,
          &&L_F_PushFixnum_Local,
          &&L_F_TouchBack_NumEq,
          &&L_F_TouchBack_NumLt,
          &&L_F_TouchBack_Add,
          &&L_F_TouchBack_Call,
          &&L_F_TouchStack_Call,
          &&L_F_TouchStack_TouchStack,
          &&L_F_Free_BoxRef,
          &&L_F_NumLt_JumpIfFalse,
          &&L_F_NumLe_JumpIfFalse,
          &&L_F_NumGt_JumpIfFalse,
          &&L_F_NumGe_JumpIfFalse,
          &&L_F_NumEq_JumpIfFalse,
          &&L_F_Eq_JumpIfFalse,
          &&L_F_NullP_JumpIfFalse,
          &&L_F_PairP_JumpIfFalse,
          &&L_F_Local_Free,
          &&L_F_TouchBack_TouchStack,
          &&L_F_TouchStack_Add,
          &&L_F_Add_Return,
          &&L_F_TouchBack_NumEq_JumpIfFalse,
          &&L_F_TouchBack_NumLt_JumpIfFalse,
      }},
  };
  if (LabelsOut) {
    *LabelsOut = &Labels;
    return StepOutcome::TimeSlice;
  }

  Engine &E = *EP;
  Processor &P = *PP;
  Task &T = *TP;
#include "vm/InterpPrelude.inc"

  DecodedCode *DC = T.CurCode->Decoded;
  if (!DC)
    DC = E.ensureDecoded(T.CurCode);
  DInsn *DI = nullptr;
  uint32_t Base = 0;
  (void)Base;

  // First dispatch: the quantum check happens before every instruction,
  // including the first — exactly the switch loop's `while` condition.
  {
    if (P.Clock >= TargetClock)
      return StepOutcome::TimeSlice;
    assert(T.Pc < T.CurCode->Insns.size() && "pc ran off the template");
    DI = &DC->Stream[T.Pc];
    P.charge(DI->Cost);
    ++P.Instructions;
    Base = T.Frames.back().Base;
    goto *const_cast<void *>(DI->Handler);
  }

#define VM_THREADED 1
#include "vm/InterpBody.inc"
#undef VM_THREADED

  __builtin_unreachable();
}

#endif // MULT_COMPUTED_GOTO

} // namespace

const ThreadedLabels *mult::threadedLabels() {
#if MULT_COMPUTED_GOTO
  static const ThreadedLabels *L = [] {
    const ThreadedLabels *Out = nullptr;
    interpretThreaded(nullptr, nullptr, nullptr, 0, &Out);
    return Out;
  }();
  return L;
#else
  return nullptr;
#endif
}

StepOutcome mult::interpretTask(Engine &E, Processor &P, Task &T,
                                uint64_t TargetClock) {
  // Complete a deferred blocking/erring instruction (semaphore wake,
  // breakloop resume).
  if (T.HasWakeAction) {
    assert(T.Stack.size() >= T.WakePop && "wake action pops too much");
    T.Stack.resize(T.Stack.size() - T.WakePop);
    T.Stack.push_back(T.WakeValue);
    ++T.Pc;
    T.HasWakeAction = false;
    T.WakeValue = Value::nil();
  }

#if MULT_COMPUTED_GOTO
  if (E.dispatchThreaded())
    return interpretThreaded(&E, &P, &T, TargetClock, nullptr);
#endif
  return interpretSwitch(E, P, T, TargetClock);
}
