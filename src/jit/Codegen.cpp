//===- jit/Codegen.cpp - LIR to C++ translation ---------------------------===//
//
// Planning decides, per process and per function it calls, whether
// every op fits the two-state width <= 64 lane model; emission then
// prints one C++ function per surviving unit. The numeric semantics of
// the emitted expressions mirror RtOps.cpp's evalIntFast / IntValue.cpp
// bit for bit (masking discipline, shift clamping, division-by-zero
// values, signed magnitude division); any divergence shows up as a
// trace-digest mismatch in the cross-engine tests.
//
//===----------------------------------------------------------------------===//

#include "jit/Codegen.h"
#include "ir/BasicBlock.h"
#include "ir/Type.h"
#include "ir/Unit.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <set>

using namespace llhd;
using namespace llhd::jit;

namespace {

/// printf-append into a std::string, of any length: a function symbol
/// spells out its unit's name, which may be long.
void f(std::string &S, const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  int N = vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  if (N < (int)sizeof(Buf)) {
    S += Buf;
    return;
  }
  size_t Old = S.size();
  S.resize(Old + N + 1);
  va_start(Ap, Fmt);
  vsnprintf(&S[Old], N + 1, Fmt, Ap);
  va_end(Ap);
  S.resize(Old + N);
}

/// The storage classes the lane model distinguishes.
enum class SlotCls : uint8_t {
  Int,      ///< Two-state integer/enum, width <= 64: one lane.
  IntArray, ///< Flat array of such ints: one lane per element.
  Sig,      ///< Signal reference: no lanes, bound per instance.
  TimeTy,   ///< Time: no lanes, must be a constant consumed by a site.
  Other,    ///< Everything the lane model cannot hold.
};

SlotCls classify(Type *T, unsigned &W, uint32_t &N) {
  W = 0;
  N = 0;
  if (!T)
    return SlotCls::Other;
  if (T->isInt() || T->isEnum()) {
    W = T->bitWidth();
    return W <= 64 ? SlotCls::Int : SlotCls::Other;
  }
  if (T->isArray()) {
    auto *AT = cast<ArrayType>(T);
    Type *E = AT->element();
    if (!(E->isInt() || E->isEnum()) || E->bitWidth() > 64)
      return SlotCls::Other;
    W = E->bitWidth();
    N = AT->length();
    return SlotCls::IntArray;
  }
  if (T->isSignal())
    return SlotCls::Sig;
  if (T->isTime())
    return SlotCls::TimeTy;
  return SlotCls::Other;
}

/// Recovers the static IR type of every frame slot: arguments and
/// instructions carry their value numbers; phi-staging scratch slots
/// take their type from the Copy that writes them.
std::vector<Type *> slotTypes(const LirUnit &L) {
  std::vector<Type *> T(L.NumSlots, nullptr);
  Unit *U = L.U;
  auto note = [&](const Value *V) {
    uint32_t S = V->valueNumber();
    if (S < L.NumSlots)
      T[S] = V->type();
  };
  for (Argument *A : U->inputs())
    note(A);
  for (Argument *A : U->outputs())
    note(A);
  for (BasicBlock *B : U->blocks())
    for (Instruction *I : B->insts())
      note(I);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const LirOp &Op : L.Ops)
      if (Op.C == LirOpc::Copy && Op.Dst >= 0 && !T[Op.Dst] && T[Op.A]) {
        T[Op.Dst] = T[Op.A];
        Changed = true;
      }
  }
  return T;
}

/// The intrinsic an admitted intrinsic call runs, if any.
std::optional<Intrinsic> intrinsicOf(const LirOp &Op) {
  const std::string &N = Op.Callee->name();
  if (N == "llhd.assert" && Op.OpsCount == 1)
    return Intrinsic::Assert;
  if (N == "llhd.finish" && Op.OpsCount == 0)
    return Intrinsic::Finish;
  return std::nullopt;
}

/// A call of a function with a body (not an intrinsic or declaration).
bool callsRealFunction(const LirOp &Op) {
  return Op.C == LirOpc::Call && Op.Callee && !Op.Callee->isIntrinsic() &&
         !Op.Callee->isDeclaration();
}

std::string opName(const LirOp &Op) {
  return Op.C == LirOpc::Pure ? opcodeName(Op.IrOp) : lirOpcName(Op.C);
}

/// The reason a call's callee keeps its caller interpreted.
std::string calleeReason(const Unit *F, const std::string &Why) {
  return "call to function '@" + F->name() + "': " + Why;
}

/// A function's C symbol, injective over unit names: alphanumerics
/// stay, every other byte becomes _XX.
std::string functionSymbol(const std::string &Name) {
  std::string S = "llhd_jit_f_";
  for (unsigned char C : Name)
    if (isalnum(C))
      S += (char)C;
    else
      f(S, "_%02x", C);
  return S;
}

struct Planner {
  const LirUnit &L;
  UnitPlan &P;
  /// Planning a process: the table its callees must plan native in.
  /// Null while planning a function, whose callees FunctionPlans
  /// settles in its fixpoint.
  FunctionPlans *Fns;
  std::vector<uint8_t> Written;      ///< Slot is some op's Dst.
  std::vector<int32_t> VarIdxOfSlot; ///< Pointer slot -> var index.
  std::vector<uint32_t> VarLanes;    ///< Var index -> lane count.

  bool deopt(const std::string &R) {
    if (P.DeoptReason.empty())
      P.DeoptReason = R;
    return false;
  }

  SlotCls cls(int32_t Slot, unsigned &W, uint32_t &N) const {
    return classify(P.SlotType[Slot], W, N);
  }

  /// Assigns lanes to a slot that must hold lane-representable data.
  bool laneify(int32_t Slot) {
    if (P.LaneOf[Slot] >= 0)
      return true;
    unsigned W;
    uint32_t N;
    switch (cls(Slot, W, N)) {
    case SlotCls::Int:
      P.LaneOf[Slot] = P.NumLanes;
      P.LanesOf[Slot] = 1;
      P.NumLanes += 1;
      return true;
    case SlotCls::IntArray:
      P.LaneOf[Slot] = P.NumLanes;
      P.LanesOf[Slot] = N;
      P.NumLanes += N;
      return true;
    default:
      return deopt("slot v" + std::to_string(Slot) +
                   " has a type outside the two-state <=64-bit model");
    }
  }

  bool scalar(int32_t Slot, unsigned &W) {
    uint32_t N;
    if (cls(Slot, W, N) != SlotCls::Int)
      return deopt("slot v" + std::to_string(Slot) +
                   " is not a two-state <=64-bit integer");
    return laneify(Slot);
  }

  bool array(int32_t Slot, unsigned &W, uint32_t &N) {
    if (cls(Slot, W, N) != SlotCls::IntArray)
      return deopt("slot v" + std::to_string(Slot) +
                   " is not a flat array of <=64-bit integers");
    return laneify(Slot);
  }

  /// A signal slot usable by a bind-time site: its reference must be
  /// the preloaded binding, i.e. nothing in the unit may overwrite it.
  bool staticSignal(int32_t Slot) {
    unsigned W;
    uint32_t N;
    if (cls(Slot, W, N) != SlotCls::Sig)
      return deopt("operand v" + std::to_string(Slot) + " is not a signal");
    if (Written[Slot])
      return deopt("signal slot v" + std::to_string(Slot) +
                   " is computed at runtime");
    return true;
  }

  /// A time slot consumed by a site: must be in the constant preloads.
  bool constTime(int32_t Slot) {
    for (const auto &[CS, V] : L.ConstSlots)
      if ((int32_t)CS == Slot && V.isTime())
        return true;
    return deopt("non-constant time in slot v" + std::to_string(Slot));
  }

  bool planPure(const LirOp &Op);
  bool planCall(const LirOp &Op);
  bool planOp(uint32_t Pc, const LirOp &Op);
  bool planSignature();
  bool run();
};

bool Planner::planPure(const LirOp &Op) {
  const int32_t *Ops = L.OperandPool.data() + Op.OpsBase;
  unsigned Wa, Wb, Wd;
  uint32_t Na, Nb, Nd;
  switch (Op.IrOp) {
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Udiv:
  case Opcode::Sdiv:
  case Opcode::Umod:
  case Opcode::Smod:
  case Opcode::Urem:
  case Opcode::Srem:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
    if (!scalar(Ops[0], Wa) || !scalar(Ops[1], Wb) || !scalar(Op.Dst, Wd))
      return false;
    if (Wa != Wb || Wa != Wd)
      return deopt("mixed operand widths in arithmetic");
    return true;
  case Opcode::Eq:
  case Opcode::Neq:
  case Opcode::Ult:
  case Opcode::Ugt:
  case Opcode::Ule:
  case Opcode::Uge:
  case Opcode::Slt:
  case Opcode::Sgt:
  case Opcode::Sle:
  case Opcode::Sge:
    if (!scalar(Ops[0], Wa) || !scalar(Ops[1], Wb) || !scalar(Op.Dst, Wd))
      return false;
    if (Wa != Wb)
      return deopt("mixed operand widths in comparison");
    return true;
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Ashr:
    // The amount has its own width; <=64 keeps zextToU64 exact.
    return scalar(Ops[0], Wa) && scalar(Ops[1], Wb) && scalar(Op.Dst, Wd);
  case Opcode::Neg:
  case Opcode::Not:
  case Opcode::Zext:
  case Opcode::Sext:
  case Opcode::Trunc:
    return scalar(Ops[0], Wa) && scalar(Op.Dst, Wd);
  case Opcode::Mux:
    return array(Ops[0], Wa, Na) && scalar(Ops[1], Wb) &&
           scalar(Op.Dst, Wd);
  case Opcode::ArrayCreate: {
    if (!array(Op.Dst, Wd, Nd))
      return false;
    if (Nd != Op.OpsCount)
      return deopt("array create arity mismatch");
    for (uint32_t J = 0; J != Op.OpsCount; ++J)
      if (!scalar(Ops[J], Wa))
        return false;
    return true;
  }
  case Opcode::Extf:
    if (cls(Ops[0], Wa, Na) != SlotCls::IntArray)
      return deopt("extf on a non-array value");
    return array(Ops[0], Wa, Na) && scalar(Op.Dst, Wd);
  case Opcode::Exts:
    switch (cls(Ops[0], Wa, Na)) {
    case SlotCls::Int:
      return scalar(Ops[0], Wa) && scalar(Op.Dst, Wd);
    case SlotCls::IntArray:
      return array(Ops[0], Wa, Na) && array(Op.Dst, Wd, Nd);
    default:
      return deopt("exts on an unsupported value");
    }
  case Opcode::Insf:
    if (cls(Ops[0], Wa, Na) != SlotCls::IntArray)
      return deopt("insf on a non-array value");
    return array(Ops[0], Wa, Na) && scalar(Ops[1], Wb) &&
           array(Op.Dst, Wd, Nd);
  case Opcode::Inss:
    switch (cls(Ops[0], Wa, Na)) {
    case SlotCls::Int:
      return scalar(Ops[0], Wa) && scalar(Ops[1], Wb) &&
             scalar(Op.Dst, Wd);
    case SlotCls::IntArray:
      return array(Ops[0], Wa, Na) && array(Ops[1], Wb, Nb) &&
             array(Op.Dst, Wd, Nd);
    default:
      return deopt("inss on an unsupported value");
    }
  default:
    return deopt(std::string("unsupported pure op '") +
                 opcodeName(Op.IrOp) + "'");
  }
}

/// A call of a real function: its arguments and result cross as single
/// lanes, and the callee itself must plan native.
bool Planner::planCall(const LirOp &Op) {
  Unit *G = Op.Callee;
  if (Fns) {
    const UnitPlan &GP = Fns->get(G);
    if (!GP.Native)
      return deopt(calleeReason(G, GP.DeoptReason));
  }
  const int32_t *Ops = L.OperandPool.data() + Op.OpsBase;
  unsigned W;
  uint32_t N;
  for (uint32_t J = 0; J != Op.OpsCount; ++J)
    if (cls(Ops[J], W, N) != SlotCls::Int || !laneify(Ops[J]))
      return deopt(calleeReason(G, "argument " + std::to_string(J) +
                                       " is outside the two-state "
                                       "<=64-bit model"));
  if (Op.Dst >= 0 && (cls(Op.Dst, W, N) != SlotCls::Int || !laneify(Op.Dst)))
    return deopt(calleeReason(G, "the result is outside the two-state "
                                 "<=64-bit model"));
  if (std::find(P.Callees.begin(), P.Callees.end(), G) == P.Callees.end())
    P.Callees.push_back(G);
  return true;
}

bool Planner::planOp(uint32_t Pc, const LirOp &Op) {
  const int32_t *Ops = L.OperandPool.data() + Op.OpsBase;
  unsigned W;
  uint32_t N;
  bool IsFn = !L.U->isProcess();
  if (IsFn && (Op.C == LirOpc::Prb || Op.C == LirOpc::Drv ||
               Op.C == LirOpc::Wait || Op.C == LirOpc::Halt))
    return deopt("not allowed in a function");
  switch (Op.C) {
  case LirOpc::Pure:
    return planPure(Op);
  case LirOpc::Ret:
    if (!IsFn)
      return deopt("not allowed in a process");
    return Op.A < 0 || scalar(Op.A, W);
  case LirOpc::Prb:
    if (!staticSignal(Op.A) || !laneify(Op.Dst))
      return false;
    P.Prbs.push_back({Pc, Op.A});
    return true;
  case LirOpc::Drv: {
    if (!staticSignal(Op.A) || !constTime(Op.Cc))
      return false;
    if (Op.Dd >= 0 && !scalar(Op.Dd, W))
      return false;
    DrvPlan D;
    D.Pc = Pc;
    D.SigSlot = Op.A;
    D.DelaySlot = Op.Cc;
    D.Origin = Op.Origin;
    switch (cls(Op.B, W, N)) {
    case SlotCls::Int:
      D.Width = W;
      D.NumElems = 0;
      break;
    case SlotCls::IntArray:
      D.Width = W;
      D.NumElems = N;
      break;
    default:
      return deopt("drive value v" + std::to_string(Op.B) +
                   " outside the lane model");
    }
    if (!laneify(Op.B))
      return false;
    P.Drvs.push_back(D);
    return true;
  }
  case LirOpc::Wait: {
    WaitPlan Wp;
    Wp.Pc = Pc;
    for (uint32_t J = 0; J != Op.OpsCount; ++J) {
      if (!staticSignal(Ops[J]))
        return false;
      Wp.Observed.push_back(Ops[J]);
    }
    if (Op.A >= 0) {
      if (!constTime(Op.A))
        return false;
      Wp.TimeoutSlot = Op.A;
    }
    Wp.ResumeEntry = (int32_t)P.Waits.size() + 1;
    P.Waits.push_back(std::move(Wp));
    return true;
  }
  case LirOpc::Halt:
  case LirOpc::Jmp:
    return true;
  case LirOpc::CondJmp:
    return scalar(Op.A, W);
  case LirOpc::Copy: {
    unsigned Wa, Wd;
    uint32_t Na, Nd;
    SlotCls Ca = cls(Op.A, Wa, Na), Cd = cls(Op.Dst, Wd, Nd);
    if (Ca != Cd || Wa != Wd || Na != Nd ||
        (Ca != SlotCls::Int && Ca != SlotCls::IntArray))
      return deopt("copy of a value outside the lane model");
    return laneify(Op.A) && laneify(Op.Dst);
  }
  case LirOpc::Var: {
    int32_t VI = VarIdxOfSlot[Op.Dst];
    if (!laneify(Op.A))
      return false;
    if (P.CellLane[VI] < 0) {
      P.CellLane[VI] = P.NumLanes;
      VarLanes[VI] = P.LanesOf[Op.A];
      P.NumLanes += P.LanesOf[Op.A];
    }
    return true;
  }
  case LirOpc::Ld: {
    int32_t VI = Op.A < (int32_t)L.NumSlots ? VarIdxOfSlot[Op.A] : -1;
    if (VI < 0 || P.CellLane[VI] < 0)
      return deopt("load through a pointer with no unique var cell");
    if (!laneify(Op.Dst))
      return false;
    if (P.LanesOf[Op.Dst] != VarLanes[VI])
      return deopt("load width differs from its var cell");
    return true;
  }
  case LirOpc::St: {
    int32_t VI = Op.A < (int32_t)L.NumSlots ? VarIdxOfSlot[Op.A] : -1;
    if (VI < 0 || P.CellLane[VI] < 0)
      return deopt("store through a pointer with no unique var cell");
    if (!laneify(Op.B))
      return false;
    if (P.LanesOf[Op.B] != VarLanes[VI])
      return deopt("store width differs from its var cell");
    return true;
  }
  case LirOpc::Call: {
    if (!Op.Callee)
      return deopt("call without a callee");
    if (callsRealFunction(Op))
      return planCall(Op);
    std::optional<Intrinsic> K = intrinsicOf(Op);
    if (!K && !Op.Callee->isIntrinsic())
      return deopt(calleeReason(Op.Callee, "declared without a body"));
    if (!K)
      return deopt("unsupported intrinsic '@" + Op.Callee->name() + "'");
    return *K != Intrinsic::Assert || scalar(Ops[0], W);
  }
  default:
    return deopt("unsupported op");
  }
}

/// A function's arguments and result must each fit one lane.
bool Planner::planSignature() {
  Unit *U = L.U;
  unsigned W;
  uint32_t N;
  for (unsigned I = 0; I != U->inputs().size(); ++I) {
    Argument *A = U->input(I);
    if (classify(A->type(), W, N) != SlotCls::Int)
      return deopt("argument " + std::to_string(I) + " is " +
                   A->type()->toString() +
                   ", outside the two-state <=64-bit model");
    laneify(A->valueNumber());
  }
  Type *R = U->returnType();
  if (R && !R->isVoid() && classify(R, W, N) != SlotCls::Int)
    return deopt("the result is " + R->toString() +
                 ", outside the two-state <=64-bit model");
  return true;
}

bool Planner::run() {
  Written.assign(L.NumSlots, 0);
  VarIdxOfSlot.assign(L.NumSlots, -1);
  uint32_t NumVars = 0;
  for (const LirOp &Op : L.Ops) {
    if (Op.Dst >= 0)
      Written[Op.Dst] = 1;
    if (Op.C == LirOpc::Var)
      VarIdxOfSlot[Op.Dst] = NumVars++;
  }
  P.CellLane.assign(NumVars, -1);
  VarLanes.assign(NumVars, 0);

  if (!L.U->isProcess() && !planSignature())
    return false;
  for (uint32_t Pc = 0; Pc != L.Ops.size(); ++Pc)
    if (!planOp(Pc, L.Ops[Pc])) {
      P.DeoptReason = "op '" + opName(L.Ops[Pc]) + "' at pc " +
                      std::to_string(Pc) + ": " + P.DeoptReason;
      return false;
    }

  for (const auto &[Slot, V] : L.ConstSlots)
    if (Slot < L.NumSlots && P.LaneOf[Slot] >= 0 && V.isInt())
      P.ConstLanes.push_back({(uint32_t)P.LaneOf[Slot],
                              V.intValue().zextToU64()});
  return true;
}

/// Plans one process (\p Fns non-null) or function unit.
UnitPlan plan(const LirUnit &L, FunctionPlans *Fns) {
  UnitPlan P;
  P.L = &L;
  P.SlotType = slotTypes(L);
  P.LaneOf.assign(L.NumSlots, -1);
  P.LanesOf.assign(L.NumSlots, 0);
  Planner Pl{L, P, Fns, {}, {}, {}};
  P.Native = Pl.run();
  if (!P.Native && P.DeoptReason.empty())
    P.DeoptReason = "unsupported shape";
  return P;
}

} // namespace

UnitPlan jit::planUnit(const LirUnit &L, std::shared_ptr<FunctionPlans> Fns) {
  if (!L.U->isProcess()) {
    UnitPlan P;
    P.L = &L;
    P.DeoptReason = "not a process";
    return P;
  }
  if (!Fns)
    Fns = std::make_shared<FunctionPlans>();
  UnitPlan P = plan(L, Fns.get());
  if (!P.Callees.empty())
    P.Fns = std::move(Fns);
  return P;
}

const LirUnit &FunctionPlans::lowering(Unit *F) {
  if (Cache)
    if (const LirUnit *L = Cache->lookup(F))
      return *L;
  auto It = Lowered.find(F);
  if (It == Lowered.end())
    It = Lowered.emplace(F, lowerUnit(*F)).first;
  return It->second;
}

const UnitPlan *FunctionPlans::find(const Unit *F) const {
  auto It = ByUnit.find(F);
  return It == ByUnit.end() ? nullptr : It->second;
}

const UnitPlan &FunctionPlans::get(Unit *F) {
  if (const UnitPlan *Known = find(F))
    return *Known;
  // Plan F and every function it reaches on their own ops...
  size_t First = Plans.size();
  std::vector<Unit *> Work{F};
  while (!Work.empty()) {
    Unit *G = Work.back();
    Work.pop_back();
    if (ByUnit.count(G))
      continue;
    const LirUnit &L = lowering(G);
    auto P = std::make_unique<UnitPlan>(plan(L, nullptr));
    P->Symbol = functionSymbol(G->name());
    Work.insert(Work.end(), P->Callees.rbegin(), P->Callees.rend());
    ByUnit[G] = P.get();
    Plans.push_back(std::move(P));
  }
  // ...then demote every function that calls a non-native one, to a
  // fixpoint. Earlier plans are final and call no new function.
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t I = First; I != Plans.size(); ++I) {
      UnitPlan &P = *Plans[I];
      if (!P.Native)
        continue;
      for (Unit *G : P.Callees) {
        const UnitPlan &GP = *ByUnit[G];
        if (GP.Native)
          continue;
        uint32_t Pc = 0;
        while (P.L->Ops[Pc].C != LirOpc::Call || P.L->Ops[Pc].Callee != G)
          ++Pc;
        P.Native = false;
        P.DeoptReason = "op 'call' at pc " + std::to_string(Pc) + ": " +
                        calleeReason(G, GP.DeoptReason);
        Changed = true;
        break;
      }
    }
  }
  return *ByUnit[F];
}

//===----------------------------------------------------------------------===//
// Emission
//===----------------------------------------------------------------------===//

std::string jit::emitPrelude() {
  // Must stay in sync with jit/Runtime.h (LlhdJitApi, the entry/return
  // protocol) and RtOps.cpp (numeric semantics). The generated TU is
  // deliberately freestanding: no includes, no engine symbols.
  return R"(// Generated by llhd Blaze JIT codegen. Do not edit.
typedef unsigned long long u64;
typedef long long s64;
typedef struct LlhdJitApi {
  u64 (*prb)(void *ctx, unsigned site);
  void (*prb_arr)(void *ctx, unsigned site, u64 *dst, unsigned n);
  void (*drv)(void *ctx, unsigned site, u64 val);
  void (*drv_arr)(void *ctx, unsigned site, const u64 *val, unsigned n);
  void (*call)(void *ctx, unsigned kind, const u64 *args, unsigned n);
} LlhdJitApi;
extern "C" { int llhd_jit_abi_version = )" +
         std::to_string(AbiVersion) + R"(; }

// Semantics below mirror sim/RtOps.cpp's evalIntFast bit for bit.
static inline u64 jm(u64 v, unsigned w) {
  return w >= 64 ? v : (w == 0 ? 0 : (v & ((((u64)1) << w) - 1)));
}
static inline s64 jsx(u64 v, unsigned w) {
  if (w == 0 || w >= 64)
    return (s64)v;
  u64 m = ((u64)1) << (w - 1);
  return (s64)((v ^ m) - m);
}
static inline u64 jshl(u64 a, u64 amt, unsigned w) {
  unsigned s = amt > (u64)w ? w : (unsigned)amt;
  return s >= w ? 0 : jm(a << s, w);
}
static inline u64 jshr(u64 a, u64 amt, unsigned w) {
  unsigned s = amt > (u64)w ? w : (unsigned)amt;
  return s >= w ? 0 : a >> s;
}
static inline u64 jashr(u64 a, u64 amt, unsigned w) {
  unsigned s = amt > (u64)w ? w : (unsigned)amt;
  int neg = w != 0 && ((a >> (w - 1)) & 1);
  if (s >= w)
    return neg ? jm(~(u64)0, w) : 0;
  u64 v = a >> s;
  if (neg && s != 0)
    v |= jm(~(u64)0, w) << (w - s);
  return jm(v, w);
}
static inline u64 judiv(u64 a, u64 b, unsigned w) {
  return b == 0 ? jm(~(u64)0, w) : a / b;
}
static inline u64 jurem(u64 a, u64 b) { return b == 0 ? a : a % b; }
static inline u64 jsdiv(u64 a, u64 b, unsigned w) {
  if (b == 0)
    return jm(~(u64)0, w);
  int an = w != 0 && ((a >> (w - 1)) & 1), bn = w != 0 && ((b >> (w - 1)) & 1);
  u64 ma = an ? jm(0 - a, w) : a, mb = bn ? jm(0 - b, w) : b;
  u64 q = ma / mb;
  return jm(an != bn ? 0 - q : q, w);
}
static inline u64 jsrem(u64 a, u64 b, unsigned w) {
  if (b == 0)
    return a;
  int an = w != 0 && ((a >> (w - 1)) & 1), bn = w != 0 && ((b >> (w - 1)) & 1);
  u64 ma = an ? jm(0 - a, w) : a, mb = bn ? jm(0 - b, w) : b;
  u64 r = ma % mb;
  (void)bn;
  return an ? jm(0 - r, w) : r;
}
static inline u64 jsmod(u64 a, u64 b, unsigned w) {
  if (b == 0)
    return a;
  int an = w != 0 && ((a >> (w - 1)) & 1), bn = w != 0 && ((b >> (w - 1)) & 1);
  u64 ma = an ? jm(0 - a, w) : a, mb = bn ? jm(0 - b, w) : b;
  u64 r = ma % mb;
  if (an)
    r = jm(0 - r, w);
  if (r != 0 && an != bn)
    r = jm(r + b, w);
  return r;
}
)";
}

namespace {

/// Per-function emission state: the plan plus site counters advancing
/// in pc order (sites were recorded in pc order by the planner).
struct Emitter {
  const UnitPlan &P;
  const LirUnit &L;
  std::string S;
  /// What a unit returns when its fuel runs out: a process reports -2
  /// (hung); a function returns 0 where LirEngine::callFunction gives
  /// up and returns an empty value.
  const char *OutOfFuel;
  std::vector<int32_t> VarIdx; ///< Pointer slot -> var index.
  /// Slot -> the C++ expression reading it: `s[k]`, or a `0x…ull`
  /// literal for a constant no op writes, so the host compiler folds it.
  /// Its lane is still preloaded (ConstLanes) for checkpoint/deopt sync.
  std::vector<std::string> Read;
  size_t PrbI = 0, DrvI = 0, WaitI = 0;

  void index() {
    VarIdx.assign(L.NumSlots, -1);
    std::vector<uint8_t> Written(L.NumSlots, 0);
    int32_t N = 0;
    for (const LirOp &Op : L.Ops) {
      if (Op.C == LirOpc::Var)
        VarIdx[Op.Dst] = N++;
      if (Op.Dst >= 0)
        Written[Op.Dst] = 1;
    }
    Read.assign(L.NumSlots, "");
    for (uint32_t Slot = 0; Slot != L.NumSlots; ++Slot)
      if (P.LaneOf[Slot] >= 0)
        Read[Slot] = "s[" + std::to_string(P.LaneOf[Slot]) + "]";
    for (const auto &[Slot, V] : L.ConstSlots)
      if (Slot < L.NumSlots && P.LaneOf[Slot] >= 0 && V.isInt() &&
          !Written[Slot]) {
        char Buf[32];
        snprintf(Buf, sizeof(Buf), "0x%llxull",
                 (unsigned long long)V.intValue().zextToU64());
        Read[Slot] = Buf;
      }
  }

  const std::string &sl(int32_t Slot) const { return Read[Slot]; }
  int32_t la(int32_t Slot) const { return P.LaneOf[Slot]; }
  unsigned wOf(int32_t Slot) const {
    unsigned W;
    uint32_t N;
    classify(P.SlotType[Slot], W, N);
    return W;
  }
  uint32_t nOf(int32_t Slot) const {
    unsigned W;
    uint32_t N;
    classify(P.SlotType[Slot], W, N);
    return N;
  }
  bool isArraySlot(int32_t Slot) const { return P.LanesOf[Slot] > 1 ||
    (P.SlotType[Slot] && P.SlotType[Slot]->isArray()); }

  void copyLanes(int32_t DstLane, int32_t SrcLane, uint32_t N) {
    if (N == 1) {
      f(S, "  s[%d] = s[%d];\n", DstLane, SrcLane);
      return;
    }
    f(S, "  { for (unsigned j = 0; j != %uu; ++j) s[%d + j] = "
         "s[%d + j]; }\n",
      N, DstLane, SrcLane);
  }

  /// Copies every lane of slot \p Src to \p DstLane; a one-lane slot
  /// goes through sl(), so a literal constant stays a literal.
  void copySlot(int32_t DstLane, int32_t Src) {
    if (P.LanesOf[Src] == 1)
      f(S, "  s[%d] = %s;\n", DstLane, sl(Src).c_str());
    else
      copyLanes(DstLane, la(Src), P.LanesOf[Src]);
  }

  /// Backward jumps carry the runaway-fuel check the interpreter's
  /// per-op fuel counter provides.
  void jumpTo(int32_t Target, uint32_t Pc, const char *Ind = "  ") {
    if (Target <= (int32_t)Pc)
      f(S, "%sif (!--fuel) return %s;\n", Ind, OutOfFuel);
    f(S, "%sgoto L%d;\n", Ind, Target);
  }

  /// The call of a static function: `SYM(api, ctx, lanes...)`.
  void callExpr(const LirOp &Op) {
    f(S, "%s(api, ctx", functionSymbol(Op.Callee->name()).c_str());
    for (uint32_t J = 0; J != Op.OpsCount; ++J)
      f(S, ", %s", sl(L.OperandPool[Op.OpsBase + J]).c_str());
    S += ")";
  }

  void emitBody();

  void emitPure(const LirOp &Op);
  void emitOp(uint32_t Pc, const LirOp &Op);
};

void Emitter::emitPure(const LirOp &Op) {
  const int32_t *Ops = L.OperandPool.data() + Op.OpsBase;
  std::string D = sl(Op.Dst);
  unsigned W = wOf(Op.Dst);
  auto bin = [&](const char *Fmt) {
    f(S, "  %s = ", D.c_str());
    f(S, Fmt, sl(Ops[0]).c_str(), sl(Ops[1]).c_str(), wOf(Ops[0]));
    S += ";\n";
  };
  auto scmp = [&](const char *Rel, const int32_t *O) {
    f(S, "  %s = (u64)(jsx(%s, %uu) %s jsx(%s, %uu));\n", D.c_str(),
      sl(O[0]).c_str(), wOf(O[0]), Rel, sl(O[1]).c_str(), wOf(O[1]));
  };
  switch (Op.IrOp) {
  case Opcode::Add:
    bin("jm(%s + %s, %uu)");
    break;
  case Opcode::Sub:
    bin("jm(%s - %s, %uu)");
    break;
  case Opcode::Mul:
    bin("jm(%s * %s, %uu)");
    break;
  case Opcode::And:
    bin("%s & %s");
    break;
  case Opcode::Or:
    bin("%s | %s");
    break;
  case Opcode::Xor:
    bin("%s ^ %s");
    break;
  case Opcode::Udiv:
    bin("judiv(%s, %s, %uu)");
    break;
  case Opcode::Umod:
  case Opcode::Urem:
    bin("jurem(%s, %s)");
    break;
  case Opcode::Sdiv:
    bin("jsdiv(%s, %s, %uu)");
    break;
  case Opcode::Srem:
    bin("jsrem(%s, %s, %uu)");
    break;
  case Opcode::Smod:
    bin("jsmod(%s, %s, %uu)");
    break;
  case Opcode::Shl:
    bin("jshl(%s, %s, %uu)");
    break;
  case Opcode::Shr:
    bin("jshr(%s, %s, %uu)");
    break;
  case Opcode::Ashr:
    bin("jashr(%s, %s, %uu)");
    break;
  case Opcode::Eq:
    bin("(u64)(%s == %s)");
    break;
  case Opcode::Neq:
    bin("(u64)(%s != %s)");
    break;
  case Opcode::Ult:
    bin("(u64)(%s < %s)");
    break;
  case Opcode::Ugt:
    bin("(u64)(%s > %s)");
    break;
  case Opcode::Ule:
    bin("(u64)(%s <= %s)");
    break;
  case Opcode::Uge:
    bin("(u64)(%s >= %s)");
    break;
  case Opcode::Slt:
    scmp("<", Ops);
    break;
  case Opcode::Sgt:
    scmp(">", Ops);
    break;
  case Opcode::Sle:
    scmp("<=", Ops);
    break;
  case Opcode::Sge:
    scmp(">=", Ops);
    break;
  case Opcode::Neg:
    f(S, "  %s = jm(0 - %s, %uu);\n", D.c_str(), sl(Ops[0]).c_str(), W);
    break;
  case Opcode::Not:
    f(S, "  %s = jm(~%s, %uu);\n", D.c_str(), sl(Ops[0]).c_str(), W);
    break;
  case Opcode::Zext:
    f(S, "  %s = %s;\n", D.c_str(), sl(Ops[0]).c_str());
    break;
  case Opcode::Sext:
    f(S, "  %s = jm((u64)jsx(%s, %uu), %uu);\n", D.c_str(),
      sl(Ops[0]).c_str(), wOf(Ops[0]), W);
    break;
  case Opcode::Trunc:
    f(S, "  %s = jm(%s, %uu);\n", D.c_str(), sl(Ops[0]).c_str(), W);
    break;
  case Opcode::Mux: {
    uint32_t N = nOf(Ops[0]);
    f(S, "  { u64 i = %s; if (i >= %uu) i = %uu; %s = s[%d + i]; }\n",
      sl(Ops[1]).c_str(), N, N - 1, D.c_str(), la(Ops[0]));
    break;
  }
  case Opcode::ArrayCreate:
    for (uint32_t J = 0; J != Op.OpsCount; ++J)
      f(S, "  s[%d] = %s;\n", la(Op.Dst) + (int32_t)J,
        sl(Ops[J]).c_str());
    break;
  case Opcode::Extf:
    f(S, "  %s = s[%d];\n", D.c_str(), la(Ops[0]) + (int32_t)Op.Imm);
    break;
  case Opcode::Exts:
    if (isArraySlot(Ops[0]))
      copyLanes(la(Op.Dst), la(Ops[0]) + (int32_t)Op.Imm,
                P.LanesOf[Op.Dst]);
    else
      f(S, "  %s = jm(%s >> %uu, %uu);\n", D.c_str(),
        sl(Ops[0]).c_str(), Op.Imm, W);
    break;
  case Opcode::Insf:
    copyLanes(la(Op.Dst), la(Ops[0]), P.LanesOf[Op.Dst]);
    f(S, "  s[%d] = %s;\n", la(Op.Dst) + (int32_t)Op.Imm,
      sl(Ops[1]).c_str());
    break;
  case Opcode::Inss:
    if (isArraySlot(Ops[0])) {
      copyLanes(la(Op.Dst), la(Ops[0]), P.LanesOf[Op.Dst]);
      copySlot(la(Op.Dst) + (int32_t)Op.Imm, Ops[1]);
    } else {
      unsigned SrcW = wOf(Ops[1]);
      if (SrcW == 0) {
        f(S, "  %s = %s;\n", D.c_str(), sl(Ops[0]).c_str());
      } else {
        uint64_t Keep = ~(IntValue::maskOf(SrcW) << Op.Imm);
        f(S, "  %s = jm((%s & 0x%llxull) | (%s << %uu), %uu);\n",
          D.c_str(), sl(Ops[0]).c_str(), (unsigned long long)Keep,
          sl(Ops[1]).c_str(), Op.Imm, W);
      }
    }
    break;
  default:
    break; // Unreachable: planPure admitted only the cases above.
  }
}

void Emitter::emitOp(uint32_t Pc, const LirOp &Op) {
  switch (Op.C) {
  case LirOpc::Pure:
    emitPure(Op);
    break;
  case LirOpc::Prb: {
    assert(P.Prbs[PrbI].Pc == Pc);
    if (isArraySlot(Op.Dst))
      f(S, "  api->prb_arr(ctx, %zuu, s + %d, %uu);\n", PrbI,
        la(Op.Dst), P.LanesOf[Op.Dst]);
    else
      f(S, "  s[%d] = api->prb(ctx, %zuu);\n", la(Op.Dst), PrbI);
    ++PrbI;
    break;
  }
  case LirOpc::Drv: {
    const DrvPlan &D = P.Drvs[DrvI];
    assert(D.Pc == Pc);
    std::string Ind = "  ";
    if (Op.Dd >= 0) {
      f(S, "  if (%s) {\n  ", sl(Op.Dd).c_str());
      Ind = "    ";
    }
    if (D.NumElems)
      f(S, "%sapi->drv_arr(ctx, %zuu, s + %d, %uu);\n", Ind.c_str(),
        DrvI, la(Op.B), D.NumElems);
    else
      f(S, "%sapi->drv(ctx, %zuu, %s);\n", Ind.c_str(), DrvI,
        sl(Op.B).c_str());
    if (Op.Dd >= 0)
      S += "  }\n";
    ++DrvI;
    break;
  }
  case LirOpc::Wait:
    assert(P.Waits[WaitI].Pc == Pc);
    f(S, "  return %zu;\n", WaitI);
    ++WaitI;
    break;
  case LirOpc::Halt:
    S += "  return -1;\n";
    break;
  case LirOpc::Jmp:
    jumpTo(Op.Jmp0, Pc);
    break;
  case LirOpc::CondJmp:
    f(S, "  if (%s) {\n", sl(Op.A).c_str());
    jumpTo(Op.Jmp1, Pc, "    ");
    S += "  }\n";
    jumpTo(Op.Jmp0, Pc);
    break;
  case LirOpc::Ret:
    f(S, "  return %s;\n", Op.A >= 0 ? sl(Op.A).c_str() : "0");
    break;
  case LirOpc::Copy:
    copySlot(la(Op.Dst), Op.A);
    break;
  case LirOpc::Var:
    // The var's memory cell is a static lane range; executing the op
    // (re)initialises it from the init value.
    copySlot(P.CellLane[VarIdx[Op.Dst]], Op.A);
    break;
  case LirOpc::Ld:
    copyLanes(la(Op.Dst), P.CellLane[VarIdx[Op.A]], P.LanesOf[Op.Dst]);
    break;
  case LirOpc::St:
    copySlot(P.CellLane[VarIdx[Op.A]], Op.B);
    break;
  case LirOpc::Call: {
    if (callsRealFunction(Op)) {
      S += "  ";
      if (Op.Dst >= 0)
        f(S, "%s = ", sl(Op.Dst).c_str());
      callExpr(Op);
      S += ";\n";
      break;
    }
    Intrinsic K = *intrinsicOf(Op);
    if (K == Intrinsic::Assert) {
      // Through a local, so a function's lane array never escapes.
      f(S, "  { u64 a = %s; api->call(ctx, %uu, &a, 1); }\n",
        sl(L.OperandPool[Op.OpsBase]).c_str(), (unsigned)K);
    } else {
      f(S, "  api->call(ctx, %uu, 0, 0);\n", (unsigned)K);
    }
    break;
  }
  default:
    break; // Unreachable: planning rejected everything else.
  }
}

/// Labels every jump target and resume point, then emits the ops.
void Emitter::emitBody() {
  std::set<int32_t> Labels;
  for (const LirOp &Op : L.Ops) {
    if (Op.C == LirOpc::Jmp || Op.C == LirOpc::Wait)
      Labels.insert(Op.Jmp0);
    if (Op.C == LirOpc::CondJmp) {
      Labels.insert(Op.Jmp0);
      Labels.insert(Op.Jmp1);
    }
  }
  index();
  for (uint32_t Pc = 0; Pc != L.Ops.size(); ++Pc) {
    if (Labels.count((int32_t)Pc))
      f(S, "L%d:;\n", Pc);
    emitOp(Pc, L.Ops[Pc]);
  }
}

/// `static u64 SYM(const LlhdJitApi *api, void *ctx, u64 a0, ...)`.
std::string functionHead(const UnitPlan &P) {
  std::string S = "static u64 " + P.Symbol + "(const LlhdJitApi *api, "
                  "void *ctx";
  for (unsigned I = 0; I != P.L->U->inputs().size(); ++I)
    f(S, ", u64 a%u", I);
  return S + ")";
}

/// A function's frame is a local lane array: arguments and constants
/// are stored into it on entry, and its own fuel guards its loops.
std::string emitFunction(const UnitPlan &P) {
  const LirUnit &L = *P.L;
  std::string S;
  f(S, "\n// @%s: %u lir ops, %u lanes\n", L.U->name().c_str(),
    (unsigned)L.Ops.size(), P.NumLanes);
  f(S, "#ifndef LLHD_DEF_%s\n#define LLHD_DEF_%s\n", P.Symbol.c_str(),
    P.Symbol.c_str());
  S += functionHead(P) + " {\n";
  f(S, "  u64 s[%u];\n", std::max(P.NumLanes, 1u));
  for (unsigned I = 0; I != L.U->inputs().size(); ++I)
    f(S, "  s[%d] = a%u;\n", P.LaneOf[L.U->input(I)->valueNumber()], I);
  for (const auto &[Lane, Val] : P.ConstLanes)
    f(S, "  s[%u] = 0x%llxull;\n", Lane, (unsigned long long)Val);
  S += "  u64 fuel = 100000000ull;\n";
  Emitter E{P, L, std::move(S), "0", {}, {}};
  E.emitBody();
  E.S += "  return 0;\n}\n#endif\n";
  return std::move(E.S);
}

} // namespace

std::string jit::emitUnit(UnitPlan &P, unsigned Index) {
  const LirUnit &L = *P.L;
  P.Symbol = "llhd_jit_u" + std::to_string(Index);

  // The static functions this process reaches, in depth-first order;
  // prototypes first, so recursion needs no particular order.
  std::vector<const UnitPlan *> Fns;
  std::vector<Unit *> Work(P.Callees.rbegin(), P.Callees.rend());
  while (!Work.empty()) {
    const UnitPlan *F = P.Fns->find(Work.back());
    Work.pop_back();
    assert(F && F->Native && "emitting a process with a non-native callee");
    if (std::find(Fns.begin(), Fns.end(), F) != Fns.end())
      continue;
    Fns.push_back(F);
    Work.insert(Work.end(), F->Callees.rbegin(), F->Callees.rend());
  }
  std::string S;
  if (!Fns.empty())
    S += "\n";
  for (const UnitPlan *F : Fns)
    S += functionHead(*F) + ";\n";
  for (const UnitPlan *F : Fns)
    S += emitFunction(*F);

  f(S, "\n// @%s (%s): %u lir ops, %u lanes, %zu waits\n",
    L.U->name().c_str(), procClassName(L.Class), (unsigned)L.Ops.size(),
    P.NumLanes, P.Waits.size());
  f(S, "extern \"C\" s64 %s(const LlhdJitApi *api, void *ctx, u64 *s, "
       "s64 entry) {\n",
    P.Symbol.c_str());
  S += "  u64 fuel = 100000000ull;\n";

  // Entry dispatch: 0 starts at pc 0, i resumes after wait i-1. For
  // the single-wait classes this folds to one compare; the general
  // class gets its state-machine switch.
  if (!P.Waits.empty()) {
    S += "  switch (entry) {\n";
    for (size_t I = 0; I != P.Waits.size(); ++I)
      f(S, "  case %zu: goto L%d;\n", I + 1,
        L.Ops[P.Waits[I].Pc].Jmp0);
    S += "  default: break;\n  }\n";
  }

  Emitter E{P, L, std::move(S), "-2", {}, {}};
  E.emitBody();
  E.S += "  return -1;\n}\n";
  return std::move(E.S);
}
