//===- jit/Codegen.h - LIR to C++ translation -------------------*- C++ -*-===//
//
// Translates lowered process units (sim/Lir.h) into self-contained C++
// source for host compilation (jit/HostCompiler.h). A process that
// survives planning becomes one extern "C" function over a flat
// uint64_t lane array: every live int slot (width <= 64) owns one lane,
// flat arrays of such ints own one lane per element, and `var` cells
// get static lanes appended after the slots. Side effects — probes,
// drives, waits, intrinsic calls — go through the function-pointer
// table in jit/Runtime.h, so the generated translation unit needs no
// headers and no symbols from the engine.
//
// Real functions a process calls are planned on the same lane model
// (FunctionPlans, once per translation unit) and emitted as static C
// functions taking and returning lanes by value; their frames are local
// lane arrays on the C stack, so calls and recursion allocate nothing.
//
// Planning is conservative: any op the emitter cannot prove two-state
// width <= 64 (wide ints, logic, structs, nested arrays, dynamic drive
// delays, callees outside the lane model, signal-producing computation,
// pointer escapes) rejects that process with a recorded reason naming
// the op, and the engine keeps interpreting it. Correctness never
// depends on planning succeeding; the emitted semantics are
// bit-identical to RtOps.cpp/IntValue.cpp by construction and are
// cross-checked by the designs-suite digest sweep in tests/jit.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_JIT_CODEGEN_H
#define LLHD_JIT_CODEGEN_H

#include "sim/Lir.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace llhd {

class Type;
class Unit;

namespace jit {

/// The ABI version the engine expects; embedded in every generated
/// translation unit and checked after dlopen.
constexpr int AbiVersion = 2;

/// One probe site: the generated code calls back with this index, the
/// engine reads the signal referenced by frame slot \p SigSlot.
struct PrbPlan {
  uint32_t Pc;
  int32_t SigSlot;
};

/// One drive site. The delay is required to be a compile-time constant
/// (a ConstSlots entry); the signal reference and driver identity are
/// resolved per instance at bind time.
struct DrvPlan {
  uint32_t Pc;
  int32_t SigSlot;
  int32_t DelaySlot;
  unsigned Width;     ///< Scalar value width, or element width for arrays.
  uint32_t NumElems;  ///< 0: scalar drive; else array element count.
  const Instruction *Origin;
};

/// The intrinsics native code runs: the `kind` argument of
/// LlhdJitApi::call. Passing the kind rather than a per-process site
/// index lets a callee shared by many processes call back with any
/// caller's context.
enum class Intrinsic : unsigned { Assert, Finish };

/// One wait site. The generated function returns the site's index when
/// suspending there; the engine registers sensitivity/timeout from this
/// plan and re-enters at \p ResumeEntry on the next wake.
struct WaitPlan {
  uint32_t Pc;
  std::vector<int32_t> Observed; ///< Signal slots (static bindings).
  int32_t TimeoutSlot = -1;      ///< Const time slot, -1 when absent.
  int32_t ResumeEntry = 0;       ///< Entry value: wait index + 1.
};

class FunctionPlans;

/// The translation plan of one process or function unit: either a full
/// lane layout plus the side-effect site tables, or the reason
/// translation was declined.
struct UnitPlan {
  const LirUnit *L = nullptr;
  bool Native = false;
  std::string DeoptReason; ///< Set when !Native.

  /// uint64_t lane layout: slots first, `var` cells appended.
  uint32_t NumLanes = 0;
  std::vector<int32_t> LaneOf;    ///< Slot -> first lane, -1 unassigned.
  std::vector<uint32_t> LanesOf;  ///< Slot -> lane count.
  std::vector<int32_t> CellLane;  ///< Per Var op (pc order) -> first lane.
  /// Constant preloads: (lane, masked value), from ConstSlots.
  std::vector<std::pair<uint32_t, uint64_t>> ConstLanes;

  std::vector<PrbPlan> Prbs;
  std::vector<DrvPlan> Drvs;
  std::vector<WaitPlan> Waits;

  /// Real functions the unit calls, in first-call order; their plans
  /// live in Fns (set on process plans only).
  std::vector<Unit *> Callees;
  std::shared_ptr<FunctionPlans> Fns;

  /// Recovered static slot types (IR Type per slot, null when unknown).
  std::vector<Type *> SlotType;

  /// Function symbol in the generated TU: set by emitUnit for a
  /// process, by FunctionPlans for a function.
  std::string Symbol;
};

/// The plans of the real functions native processes call, memoised over
/// one translation unit. A function is native when its own ops fit the
/// lane model (arguments and result included) and every function it
/// calls is native — a greatest fixpoint, so recursion plans like any
/// other call.
class FunctionPlans {
public:
  /// \p Cache supplies the callees' lowerings; without one (a plan made
  /// outside a program build) the table lowers them itself.
  explicit FunctionPlans(const LirCache *Cache = nullptr) : Cache(Cache) {}

  /// The plan of \p F, planning it and everything it reaches on first
  /// use.
  const UnitPlan &get(Unit *F);

  /// The plan of \p F if get() has seen it, else null.
  const UnitPlan *find(const Unit *F) const;

private:
  const LirUnit &lowering(Unit *F);

  const LirCache *Cache;
  std::vector<std::unique_ptr<UnitPlan>> Plans; ///< Discovery order.
  std::map<const Unit *, UnitPlan *> ByUnit;
  std::map<const Unit *, LirUnit> Lowered; ///< Used without a Cache.
};

/// Decides whether the process \p L can run natively and computes the
/// lane layout and site tables. Callees are planned in \p Fns, or in a
/// table of the plan's own when none is given. Never fails hard: an
/// unsupported shape returns a plan with Native == false and a
/// DeoptReason naming the op.
UnitPlan planUnit(const LirUnit &L,
                  std::shared_ptr<FunctionPlans> Fns = nullptr);

/// The translation unit's shared prologue: the uint64_t helpers
/// (masking, shifts, division — bit-identical to RtOps.cpp's fast
/// path), the LlhdJitApi function-pointer table type, and the ABI
/// version symbol.
std::string emitPrelude();

/// Emits the function for one planned process (Native must be true),
/// preceded by the static functions it calls, and records its symbol
/// (derived from \p Index) in the plan. Each callee definition sits in
/// a preprocessor guard named after the function, so units sharing a
/// callee concatenate into one translation unit that defines it once.
std::string emitUnit(UnitPlan &P, unsigned Index);

} // namespace jit
} // namespace llhd

#endif // LLHD_JIT_CODEGEN_H
