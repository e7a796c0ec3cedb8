//===- vsim/CommSim.cpp - Commercial-simulator stand-in ------------------------===//
//
// The closure-compiled comparison engine, rebuilt on the shared lowered
// runtime IR (sim/Lir.h): each LirOp is compiled once per unit into a
// closure over a register file, and execution threads a pc through the
// closure vector. CommSim performs no opcode walk over ir::Instruction —
// the one lowering in sim/Lir.cpp feeds all three engines, so value and
// scheduling semantics are shared by construction while the execution
// style (std::function dispatch, the ethos of classic compiled-code
// simulators) stays independent.
//
//===----------------------------------------------------------------------===//

#include "vsim/CommSim.h"
#include "sim/Checkpoint.h"
#include "sim/EventLoop.h"
#include "sim/Lir.h"
#include "sim/Program.h"
#include "sim/RtOps.h"
#include "support/DepthPool.h"

#include <cstring>
#include <functional>
#include <map>
#include <memory>

using namespace llhd;

/// Engine services visible to closures.
struct CommSimImplRef;

namespace {

struct CsExec; // Per-activation execution context.

/// One compiled op: mutates the register file / schedules events and
/// returns the next pc, or a sentinel: CsHalt, CsRet, or a wait encoded
/// as -(resume pc) + CsWaitBase.
constexpr int CsHalt = -1;
constexpr int CsRet = -2;
constexpr int CsWaitBase = -3; ///< Wait: returns CsWaitBase - resume pc.
using CsOp = std::function<int(CsExec &)>;

/// A unit compiled to closures, shared across instances.
struct CsUnit {
  const LirUnit *L = nullptr;
  std::vector<CsOp> Ops;
};

/// Per-activation state the closures operate on.
struct CsExec {
  std::vector<RtValue> R;      ///< Register file.
  std::vector<RtValue> Memory; ///< var/alloc cells.
  RtValue RetVal;
  // Engine services (filled by the engine before running closures):
  CommSimImplRef *Eng = nullptr;
  const void *InstanceTag = nullptr; ///< Driver identity.
  std::vector<RtValue> *RegPrev = nullptr;
  std::vector<bool> *RegPrevValid = nullptr;
  std::vector<RtValue> *DelPrev = nullptr;
  bool Initial = false;
  // Wait results.
  std::vector<SignalId> *Sensitivity = nullptr;
  bool SkipSense = false; ///< Stable sensitivity already registered.
  bool TimeoutSet = false;
  Time Timeout;
};

} // namespace

struct CommSimImplRef {
  SignalTable *Signals = nullptr;
  Scheduler *Sched = nullptr;
  Time *Now = nullptr;
  uint64_t *AssertFailures = nullptr;
  bool *FinishRequested = nullptr;
  std::function<RtValue(Unit *, std::vector<RtValue>)> CallFn;
};

namespace {

uint64_t csDriverId(const void *Tag, const Instruction *I) {
  return (reinterpret_cast<uintptr_t>(Tag) << 20) ^
         reinterpret_cast<uintptr_t>(I);
}

/// Compiles one lowered unit to closures: a per-LirOpc dispatch, not a
/// per-ir::Opcode one.
CsUnit compileUnit(const LirUnit &L) {
  CsUnit CU;
  CU.L = &L;
  CU.Ops.reserve(L.Ops.size());
  for (size_t PcIdx = 0; PcIdx != L.Ops.size(); ++PcIdx) {
    const LirOp &Op = L.Ops[PcIdx];
    const int Next = static_cast<int>(PcIdx) + 1;
    switch (Op.C) {
    case LirOpc::Pure: {
      const int32_t *Idx = L.OperandPool.data() + Op.OpsBase;
      CU.Ops.push_back([Op, Idx, Next](CsExec &X) {
        X.R[Op.Dst] = evalPureIdx(Op.IrOp, X.R.data(), Idx, Op.OpsCount,
                                  Op.Imm, Op.Origin);
        return Next;
      });
      break;
    }
    case LirOpc::Prb:
      CU.Ops.push_back([Op, Next](CsExec &X) {
        X.Eng->Signals->probe(X.R[Op.A], X.R[Op.Dst]);
        return Next;
      });
      break;
    case LirOpc::Drv:
      CU.Ops.push_back([Op, Next](CsExec &X) {
        if (Op.Dd >= 0 && !X.R[Op.Dd].isTruthy())
          return Next;
        X.Eng->Sched->scheduleDrive(
            driveTarget(*X.Eng->Now, X.R[Op.Cc].timeValue()), X.R[Op.A],
            X.R[Op.B], csDriverId(X.InstanceTag, Op.Origin));
        X.Eng->Sched->countScheduled(1);
        return Next;
      });
      break;
    case LirOpc::Jmp: {
      const int T = Op.Jmp0;
      CU.Ops.push_back([T](CsExec &) { return T; });
      break;
    }
    case LirOpc::CondJmp: {
      const int TF = Op.Jmp0, TT = Op.Jmp1;
      const int32_t A = Op.A;
      CU.Ops.push_back(
          [A, TF, TT](CsExec &X) { return X.R[A].isTruthy() ? TT : TF; });
      break;
    }
    case LirOpc::Copy:
      CU.Ops.push_back([Op, Next](CsExec &X) {
        X.R[Op.Dst] = X.R[Op.A];
        return Next;
      });
      break;
    case LirOpc::Wait: {
      const int32_t *Obs = L.OperandPool.data() + Op.OpsBase;
      CU.Ops.push_back([Op, Obs](CsExec &X) {
        if (!X.SkipSense) {
          X.Sensitivity->clear();
          for (uint32_t J = 0; J != Op.OpsCount; ++J)
            X.Sensitivity->push_back(
                X.Eng->Signals->canonical(X.R[Obs[J]].sigId()));
        }
        X.TimeoutSet = Op.A >= 0;
        if (X.TimeoutSet)
          X.Timeout = X.R[Op.A].timeValue();
        return CsWaitBase - Op.Jmp0;
      });
      break;
    }
    case LirOpc::Halt:
      CU.Ops.push_back([](CsExec &) { return CsHalt; });
      break;
    case LirOpc::Ret: {
      const int32_t A = Op.A;
      CU.Ops.push_back([A](CsExec &X) {
        X.RetVal = A >= 0 ? X.R[A] : RtValue();
        return CsRet;
      });
      break;
    }
    case LirOpc::Call: {
      const int32_t *ArgIdx = L.OperandPool.data() + Op.OpsBase;
      CU.Ops.push_back([Op, ArgIdx, Next](CsExec &X) {
        std::vector<RtValue> Vals;
        Vals.reserve(Op.OpsCount);
        for (uint32_t J = 0; J != Op.OpsCount; ++J)
          Vals.push_back(X.R[ArgIdx[J]]);
        RtValue Ret = X.Eng->CallFn(Op.Callee, std::move(Vals));
        if (Op.Dst >= 0)
          X.R[Op.Dst] = std::move(Ret);
        return Next;
      });
      break;
    }
    case LirOpc::Var:
      CU.Ops.push_back([Op, Next](CsExec &X) {
        X.Memory.push_back(X.R[Op.A]);
        X.R[Op.Dst] = RtValue::makePointer(X.Memory.size() - 1);
        return Next;
      });
      break;
    case LirOpc::Ld:
      CU.Ops.push_back([Op, Next](CsExec &X) {
        X.R[Op.Dst] = X.Memory[X.R[Op.A].pointer()];
        return Next;
      });
      break;
    case LirOpc::St:
      CU.Ops.push_back([Op, Next](CsExec &X) {
        X.Memory[X.R[Op.A].pointer()] = X.R[Op.B];
        return Next;
      });
      break;
    case LirOpc::Reg: {
      const LirUnit *LP = &L;
      CU.Ops.push_back([Op, LP, Next](CsExec &X) {
        const RtValue &Target = X.R[Op.A];
        // The fire/previous-sample semantics are the shared
        // execRegTriggers; only the scheduling hookup is CommSim's.
        execRegTriggers(
            *LP, Op, X.R, *X.RegPrev, *X.RegPrevValid, X.Initial,
            [&](Time Delay, const RtValue &Val, uint32_t TI) {
              X.Eng->Sched->scheduleDrive(
                  driveTarget(*X.Eng->Now, Delay), Target, Val,
                  csDriverId(X.InstanceTag, Op.Origin) + TI);
              X.Eng->Sched->countScheduled(1);
            });
        return Next;
      });
      break;
    }
    case LirOpc::Del:
      CU.Ops.push_back([Op, Next](CsExec &X) {
        RtValue Cur;
        X.Eng->Signals->probe(X.R[Op.B], Cur);
        RtValue &Prev = (*X.DelPrev)[Op.Imm];
        if (X.Initial || Prev != Cur) {
          Prev = Cur;
          X.Eng->Sched->scheduleDrive(
              X.Eng->Now->advance(X.R[Op.Cc].timeValue()), X.R[Op.A], Cur,
              csDriverId(X.InstanceTag, Op.Origin));
          X.Eng->Sched->countScheduled(1);
        }
        return Next;
      });
      break;
    }
  }
  return CU;
}

//===----------------------------------------------------------------------===//
// Runtime state
//===----------------------------------------------------------------------===//

struct CsProcState {
  const CsUnit *CU = nullptr;
  const UnitInstance *Inst = nullptr;
  CsExec X;
  int Pc = 0;
  bool Started = false;
  enum class St { Ready, Waiting, Halted } State = St::Ready;
  std::vector<SignalId> Sensitivity;
  std::vector<RtValue> RegPrev, DelPrev;
  std::vector<bool> RegPrevValid;
  uint64_t WakeGen = 0;
};

struct CsEntState {
  const CsUnit *CU = nullptr;
  const UnitInstance *Inst = nullptr;
  CsExec X;
  std::vector<RtValue> RegPrev, DelPrev;
  std::vector<bool> RegPrevValid;
};

} // namespace

/// The compile-once artifact (opaque in the header): the jit-less base
/// program (design + lowering cache) plus every reachable unit compiled
/// to closures. The closures capture pointers into the base cache's
/// LirUnits, so Base must outlive Units — member order guarantees it.
struct llhd::CommProgram {
  std::shared_ptr<const LirProgram> Base;
  std::map<const Unit *, CsUnit> Units;
};

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

struct CommSim::Impl {
  /// The shared, immutable program; possibly concurrently executed by
  /// sibling batch instances — never written.
  std::shared_ptr<const CommProgram> Prog;
  SimOptions Opts;
  /// Everything this run mutates.
  SimState St;
  bool FinishRequested = false;
  std::string Err;
  CommSimImplRef Services;

  std::vector<CsProcState> Procs;
  std::vector<CsEntState> Ents;
  Design EmptyD; ///< design() fallback when construction failed.

  /// Depth-indexed pool of function execution contexts, reused across
  /// calls.
  DepthPool<CsExec> FnPool;

  const Design &design() const { return Prog ? Prog->Base->D : EmptyD; }

  Impl(std::shared_ptr<const CommProgram> P, SimOptions O)
      : Prog(std::move(P)), Opts(std::move(O)),
        St(Prog ? SimState(Prog->Base->D, Opts.TraceMode, Opts.Seed)
                : SimState()) {
    if (!Prog) {
      Err = "null program";
      return;
    }
    Services.Signals = &St.Signals;
    Services.Sched = &St.Sched;
    Services.Now = &St.Now;
    Services.AssertFailures = &St.Stats.AssertFailures;
    Services.FinishRequested = &FinishRequested;
    Services.CallFn = [this](Unit *F, std::vector<RtValue> Args) {
      return callFunction(F, std::move(Args));
    };
    build();
  }

  /// Pure lookup into the program: every reachable unit was compiled at
  /// buildProgram() time.
  const CsUnit &unitFor(const Unit *U) const {
    return Prog->Units.at(U);
  }

  void preload(const CsUnit &CU, const UnitInstance &UI, CsExec &X) {
    X.R.assign(CU.L->NumSlots, RtValue());
    for (const auto &[Slot, V] : CU.L->ConstSlots)
      X.R[Slot] = V;
    for (const auto &[Val, Ref] : UI.Bindings) {
      uint32_t Reg = Val->valueNumber();
      if (Reg < CU.L->NumValues)
        X.R[Reg] = RtValue(Ref);
    }
    X.Eng = &Services;
  }

  void build() {
    for (const UnitInstance &UI : design().Instances) {
      const CsUnit &CU = unitFor(UI.U);
      if (UI.U->isProcess()) {
        CsProcState PS;
        PS.CU = &CU;
        PS.Inst = &UI;
        preload(CU, UI, PS.X);
        PS.X.InstanceTag = &UI;
        PS.RegPrev.assign(CU.L->NumRegPrev, RtValue());
        PS.RegPrevValid.assign(CU.L->NumRegPrev, false);
        PS.DelPrev.assign(CU.L->NumDelPrev, RtValue());
        Procs.push_back(std::move(PS));
      } else {
        CsEntState ES;
        ES.CU = &CU;
        ES.Inst = &UI;
        preload(CU, UI, ES.X);
        ES.X.InstanceTag = &UI;
        ES.RegPrev.assign(CU.L->NumRegPrev, RtValue());
        ES.RegPrevValid.assign(CU.L->NumRegPrev, false);
        ES.DelPrev.assign(CU.L->NumDelPrev, RtValue());
        Ents.push_back(std::move(ES));
      }
    }
    // Re-point the aux vectors at their final locations (the vectors
    // above were moved into place).
    for (CsProcState &PS : Procs) {
      PS.X.Sensitivity = &PS.Sensitivity;
      PS.X.RegPrev = &PS.RegPrev;
      PS.X.RegPrevValid = &PS.RegPrevValid;
      PS.X.DelPrev = &PS.DelPrev;
    }
    for (CsEntState &ES : Ents) {
      ES.X.RegPrev = &ES.RegPrev;
      ES.X.RegPrevValid = &ES.RegPrevValid;
      ES.X.DelPrev = &ES.DelPrev;
    }
    // Entity static sensitivity comes from D.EntityWatchers, built at
    // elaboration and shared with the other engines.
  }

  RtValue callFunction(Unit *F, std::vector<RtValue> Args) {
    if (F->isIntrinsic() || F->isDeclaration()) {
      const std::string &N = F->name();
      if (N == "llhd.assert") {
        if (!Args.empty() && !Args[0].isTruthy())
          ++St.Stats.AssertFailures;
        return RtValue();
      }
      if (N == "llhd.finish") {
        FinishRequested = true;
        return RtValue();
      }
      if (N == "llhd.random") {
        unsigned W = F->returnType() ? F->returnType()->bitWidth() : 32;
        return RtValue(IntValue(W, St.nextRandom()));
      }
      constexpr const char *TestPfx = "llhd.plusarg.test.";
      constexpr const char *ValuePfx = "llhd.plusarg.value.";
      if (N.rfind(TestPfx, 0) == 0) {
        unsigned W = F->returnType() ? F->returnType()->bitWidth() : 32;
        return RtValue(
            IntValue(W, Opts.hasPlusarg(N.substr(strlen(TestPfx))) ? 1 : 0));
      }
      if (N.rfind(ValuePfx, 0) == 0) {
        unsigned W = F->returnType() ? F->returnType()->bitWidth() : 32;
        uint64_t X = Args.empty() ? 0 : Args[0].intValue().zextToU64();
        if (const std::string *V =
                Opts.plusargValue(N.substr(strlen(ValuePfx)))) {
          char *End = nullptr;
          uint64_t Parsed = strtoull(V->c_str(), &End, 0);
          if (End && End != V->c_str() && *End == '\0')
            X = Parsed;
        }
        return RtValue(IntValue(W, X));
      }
      return defaultValue(F->returnType());
    }
    const CsUnit &CU = unitFor(F);
    auto Lease = FnPool.lease();
    CsExec &X = *Lease;
    X.Eng = &Services;
    X.R.assign(CU.L->NumSlots, RtValue());
    X.Memory.clear();
    for (const auto &[Slot, V] : CU.L->ConstSlots)
      X.R[Slot] = V;
    for (unsigned I = 0; I != F->inputs().size(); ++I)
      X.R[F->input(I)->valueNumber()] = std::move(Args[I]);
    int Pc = 0;
    uint64_t Fuel = 10000000ull;
    while (Fuel--) {
      int Next = CU.Ops[Pc](X);
      if (Next < 0)
        return std::move(X.RetVal);
      Pc = Next;
    }
    return RtValue();
  }

  void runProcess(uint32_t PI) {
    CsProcState &PS = Procs[PI];
    if (PS.State == CsProcState::St::Halted)
      return;
    PS.State = CsProcState::St::Ready;
    ++St.Stats.ProcessRuns;
    const CsUnit &CU = *PS.CU;
    // Classified processes resume from the compile-time-constant pc and
    // keep their one-time sensitivity registration.
    int Pc = CU.L->StableWait && PS.Started ? CU.L->ResumePc : PS.Pc;
    PS.X.SkipSense = CU.L->StableWait && PS.Started;
    uint64_t Fuel = 10000000ull;
    while (Fuel--) {
      int Next = CU.Ops[Pc](PS.X);
      if (Next >= 0) {
        Pc = Next;
        continue;
      }
      if (Next == CsHalt || Next == CsRet) {
        PS.State = CsProcState::St::Halted;
        return;
      }
      // Wait: resume pc is encoded as CsWaitBase - pc.
      int Dest = CsWaitBase - Next;
      if (!PS.X.SkipSense)
        ++PS.WakeGen;
      if (PS.X.TimeoutSet)
        St.Sched.scheduleWake(St.Now.advance(PS.X.Timeout),
                              {PI, PS.WakeGen});
      PS.Started = true;
      PS.State = CsProcState::St::Waiting;
      PS.Pc = Dest;
      return;
    }
    PS.State = CsProcState::St::Halted;
  }

  void evalEntity(uint32_t EI, bool Initial) {
    CsEntState &ES = Ents[EI];
    ++St.Stats.EntityEvals;
    ES.X.Initial = Initial;
    for (const CsOp &Op : ES.CU->Ops)
      Op(ES.X);
  }

  //===------------------------------------------------------------------===//
  // EventLoop hooks
  //===------------------------------------------------------------------===//

  uint32_t numProcs() const { return Procs.size(); }
  uint32_t numEnts() const { return Ents.size(); }
  bool procWaiting(uint32_t PI) const {
    return Procs[PI].State == CsProcState::St::Waiting;
  }
  bool procHalted(uint32_t PI) const {
    return Procs[PI].State == CsProcState::St::Halted;
  }
  const std::vector<SignalId> &procSensitivity(uint32_t PI) const {
    return Procs[PI].Sensitivity;
  }
  uint64_t procWakeGen(uint32_t PI) const { return Procs[PI].WakeGen; }
  void procBumpWakeGen(uint32_t PI) { ++Procs[PI].WakeGen; }
  bool procSenseStable(uint32_t PI) const {
    return Procs[PI].CU->L->StableWait;
  }
  bool finishRequested() const { return FinishRequested; }
  std::string procName(uint32_t PI) const {
    return Procs[PI].Inst->HierName;
  }

  SimStats run() {
    if (!Prog)
      return SimStats();
    return runEventLoop(*this, design(), Opts, St, Resumed);
  }

  //===------------------------------------------------------------------===//
  // Checkpoint / restore
  //===------------------------------------------------------------------===//

  bool Resumed = false;

  void checkpoint(std::vector<uint8_t> &Out) {
    // CommSim's driver ids use the same (instance-tag, instruction)
    // formula over the same &UI tags as the LIR engines, so the shared
    // DriverIdMap enumeration applies unchanged.
    ckpt::DriverIdMap Map;
    Map.build(design(), Prog->Base->Cache);
    ckpt::writeHeaderAndKernel(Out, ckpt::moduleHash(*design().M), "comm",
                               St.Signals, St.Sched, St.Tr, St.Now,
                               St.Stats, Map);

    bc::putVar(Out, Procs.size());
    for (const CsProcState &PS : Procs) {
      ckpt::ProcRecord Rec;
      Rec.State = static_cast<uint8_t>(PS.State);
      Rec.Started = PS.Started;
      Rec.Pc = PS.Pc;
      Rec.WakeGen = PS.WakeGen;
      Rec.Sens = PS.Sensitivity;
      Rec.Frame = PS.X.R;
      Rec.Memory = PS.X.Memory;
      Rec.RegPrev = PS.RegPrev;
      Rec.RegPrevValid.assign(PS.RegPrevValid.begin(),
                              PS.RegPrevValid.end());
      Rec.DelPrev = PS.DelPrev;
      ckpt::putProc(Out, Rec);
    }
    bc::putVar(Out, Ents.size());
    for (const CsEntState &ES : Ents) {
      ckpt::EntRecord Rec;
      Rec.Frame = ES.X.R;
      Rec.RegPrev = ES.RegPrev;
      Rec.RegPrevValid.assign(ES.RegPrevValid.begin(),
                              ES.RegPrevValid.end());
      Rec.DelPrev = ES.DelPrev;
      ckpt::putEnt(Out, Rec);
    }
  }

  bool restore(const std::vector<uint8_t> &In, std::string &RErr) {
    RErr.clear(); // Callers may reuse the string across attempts.
    bc::Reader R{In};
    ckpt::DriverIdMap Map;
    Map.build(design(), Prog->Base->Cache);
    if (!ckpt::readHeaderAndKernel(R, ckpt::moduleHash(*design().M),
                                   St.Signals, St.Sched, St.Tr, St.Now,
                                   St.Stats, Map, RErr))
      return false;

    if (R.var() != Procs.size() || R.Failed) {
      RErr = "checkpoint process count does not match this design";
      return false;
    }
    for (CsProcState &PS : Procs) {
      ckpt::ProcRecord Rec;
      if (!ckpt::getProc(R, Rec)) {
        RErr = "truncated checkpoint process section";
        return false;
      }
      if (Rec.Frame.size() != PS.X.R.size() ||
          Rec.RegPrev.size() != PS.RegPrev.size() ||
          Rec.DelPrev.size() != PS.DelPrev.size()) {
        RErr = "checkpoint frame shape does not match this lowering";
        return false;
      }
      PS.State = static_cast<CsProcState::St>(Rec.State);
      PS.Started = Rec.Started != 0;
      PS.Pc = static_cast<int>(Rec.Pc);
      PS.WakeGen = Rec.WakeGen;
      PS.Sensitivity = std::move(Rec.Sens);
      PS.X.R = std::move(Rec.Frame);
      PS.X.Memory = std::move(Rec.Memory);
      PS.RegPrev = std::move(Rec.RegPrev);
      PS.RegPrevValid.assign(Rec.RegPrevValid.begin(),
                             Rec.RegPrevValid.end());
      PS.DelPrev = std::move(Rec.DelPrev);
    }

    if (R.var() != Ents.size() || R.Failed) {
      RErr = "checkpoint entity count does not match this design";
      return false;
    }
    for (CsEntState &ES : Ents) {
      ckpt::EntRecord Rec;
      if (!ckpt::getEnt(R, Rec)) {
        RErr = "truncated checkpoint entity section";
        return false;
      }
      if (Rec.Frame.size() != ES.X.R.size() ||
          Rec.RegPrev.size() != ES.RegPrev.size() ||
          Rec.DelPrev.size() != ES.DelPrev.size()) {
        RErr = "checkpoint entity shape does not match this lowering";
        return false;
      }
      ES.X.R = std::move(Rec.Frame);
      ES.RegPrev = std::move(Rec.RegPrev);
      ES.RegPrevValid.assign(Rec.RegPrevValid.begin(),
                             Rec.RegPrevValid.end());
      ES.DelPrev = std::move(Rec.DelPrev);
    }

    Resumed = true;
    return true;
  }
};

std::shared_ptr<const CommProgram>
CommSim::buildProgram(Module &M, const std::string &Top, std::string &Err) {
  Design D = elaborate(M, Top);
  if (!D.ok()) {
    Err = D.Error;
    return nullptr;
  }
  auto P = std::make_shared<CommProgram>();
  P->Base = LirProgram::build(std::move(D), jit::JitOptions());
  P->Base->Cache.forEach([&](const Unit *U, const LirUnit &L) {
    P->Units.emplace(U, compileUnit(L));
  });
  return P;
}

CommSim::CommSim(Module &M, const std::string &Top, SimOptions Opts) {
  std::string Err;
  std::shared_ptr<const CommProgram> Prog = buildProgram(M, Top, Err);
  P = std::make_unique<Impl>(std::move(Prog), std::move(Opts));
  if (!Err.empty())
    P->Err = Err;
}

CommSim::CommSim(Module &M, const std::string &Top)
    : CommSim(M, Top, SimOptions()) {}

CommSim::CommSim(std::shared_ptr<const CommProgram> Prog, SimOptions Opts)
    : P(std::make_unique<Impl>(std::move(Prog), std::move(Opts))) {}

CommSim::~CommSim() = default;

bool CommSim::valid() const { return P->Err.empty(); }
const std::string &CommSim::error() const { return P->Err; }
SimStats CommSim::run() { return P->run(); }
SimOptions &CommSim::options() { return P->Opts; }
void CommSim::checkpoint(std::vector<uint8_t> &Out) { P->checkpoint(Out); }
bool CommSim::restore(const std::vector<uint8_t> &In, std::string &Err) {
  return P->restore(In, Err);
}
const Trace &CommSim::trace() const { return P->St.Tr; }
const SignalTable &CommSim::signals() const { return P->St.Signals; }
const Design &CommSim::design() const { return P->design(); }
