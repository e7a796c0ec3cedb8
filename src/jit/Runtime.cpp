//===- jit/Runtime.cpp - Native code binding and callbacks ----------------===//

#include "jit/Runtime.h"
#include "jit/HostCompiler.h"
#include "sim/Design.h"
#include "sim/LirEngine.h"

#include <chrono>
#include <cstdio>
#include <dlfcn.h>
#include <set>

using namespace llhd;
using namespace llhd::jit;

//===----------------------------------------------------------------------===//
// C ABI callbacks
//===----------------------------------------------------------------------===//
//
// These mirror the interpreter's Prb/Drv/Call cases in LirEngine.cpp
// exactly; the only difference is that values cross the boundary as
// already-masked uint64_t lanes instead of RtValues. Whole-signal sites
// resolve at bind: a probe keeps a pointer to the signal's storage, a
// scalar drive schedules a word record (sim/Kernel.h).

namespace {

uint64_t apiPrb(void *CtxP, unsigned Site) {
  auto &C = *static_cast<ProcContext *>(CtxP);
  const PrbSite &S = C.Prbs[Site];
  if (S.Whole)
    return S.Whole->intValue().zextToU64();
  // Otherwise via read(): it resolves `con` aliases (including element-
  // aligned sub-signal aliases) exactly like the interpreter's Prb.
  return C.Eng->Signals.read(S.Ref).intValue().zextToU64();
}

void apiPrbArr(void *CtxP, unsigned Site, uint64_t *Dst, unsigned N) {
  auto &C = *static_cast<ProcContext *>(CtxP);
  const PrbSite &S = C.Prbs[Site];
  auto load = [&](const RtValue &V) {
    const std::vector<RtValue> &E = V.elements();
    for (unsigned I = 0; I != N; ++I)
      Dst[I] = E[I].intValue().zextToU64();
  };
  if (S.Whole)
    load(*S.Whole);
  else
    load(C.Eng->Signals.read(S.Ref));
}

void apiDrv(void *CtxP, unsigned Site, uint64_t Val) {
  auto &C = *static_cast<ProcContext *>(CtxP);
  const DrvSite &S = C.Drvs[Site];
  LirEngine &E = *C.Eng;
  Time T = driveTarget(E.Now, S.Delay);
  if (S.Word)
    E.Sched.scheduleWord(T, S.Ref.Sig, S.Width, Val, S.Driver);
  else
    E.Sched.scheduleUpdate(T,
                           {S.Ref, RtValue(IntValue(S.Width, Val)), S.Driver});
  E.Sched.countScheduled(1);
}

void apiDrvArr(void *CtxP, unsigned Site, const uint64_t *Val, unsigned N) {
  auto &C = *static_cast<ProcContext *>(CtxP);
  DrvSite &S = C.Drvs[Site];
  LirEngine &E = *C.Eng;
  std::vector<RtValue> &El = S.Scratch.elements();
  for (unsigned I = 0; I != N; ++I)
    El[I] = RtValue(IntValue(S.Width, Val[I]));
  E.Sched.scheduleUpdate(driveTarget(E.Now, S.Delay),
                         {S.Ref, S.Scratch, S.Driver});
  E.Sched.countScheduled(1);
}

void apiCall(void *CtxP, unsigned Kind, const uint64_t *Args, unsigned N) {
  auto &C = *static_cast<ProcContext *>(CtxP);
  switch (static_cast<Intrinsic>(Kind)) {
  case Intrinsic::Assert:
    C.Eng->intrinsicAssert(N != 0 && Args[0] != 0);
    break;
  case Intrinsic::Finish:
    C.Eng->intrinsicFinish();
    break;
  }
}

} // namespace

const LlhdJitApi *jit::apiTable() {
  static const LlhdJitApi Api = {apiPrb, apiPrbArr, apiDrv, apiDrvArr,
                                 apiCall};
  return &Api;
}

//===----------------------------------------------------------------------===//
// JitModule
//===----------------------------------------------------------------------===//

void JitModule::compile(const Design &D, const LirCache &Cache) {
  St.Enabled = Opts.M != JitOptions::Mode::Off;
  if (!St.Enabled)
    return;
  auto T0 = std::chrono::steady_clock::now();
  auto Done = [&] {
    St.CompileSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
  };

  // Distinct process units in first-instantiation order: the emission
  // order (and thus the symbol numbering) is deterministic.
  std::vector<const LirUnit *> ProcUnits;
  std::set<const LirUnit *> Seen;
  for (const UnitInstance &UI : D.Instances) {
    if (!UI.U->isProcess())
      continue;
    const LirUnit *L = Cache.lookup(UI.U);
    if (Seen.insert(L).second)
      ProcUnits.push_back(L);
  }

  // One table plans every called function once for the whole TU.
  auto Fns = std::make_shared<FunctionPlans>(&Cache);
  std::string Src = emitPrelude();
  std::vector<const LirUnit *> Native;
  for (const LirUnit *L : ProcUnits) {
    if (!Opts.ForceDeopt.empty() &&
        (Opts.ForceDeopt == "*" ||
         L->U->name().find(Opts.ForceDeopt) != std::string::npos)) {
      ++St.DeoptUnits;
      St.Deopts.push_back({L->U->name(), "forced deopt (testing knob)"});
      continue;
    }
    UnitPlan P = planUnit(*L, Fns);
    if (!P.Native) {
      ++St.DeoptUnits;
      St.Deopts.push_back({L->U->name(), P.DeoptReason});
      continue;
    }
    Src += emitUnit(P, Native.size());
    Native.push_back(L);
    Units[L].Plan = std::move(P);
  }
  Source = Src;

  if (Opts.M == JitOptions::Mode::Dump && !Opts.DumpPath.empty()) {
    if (FILE *Fp = fopen(Opts.DumpPath.c_str(), "wb")) {
      fwrite(Source.data(), 1, Source.size(), Fp);
      fclose(Fp);
    } else {
      fprintf(stderr, "llhd-jit: cannot write generated source to '%s'\n",
              Opts.DumpPath.c_str());
    }
  }

  if (Native.empty()) {
    // Nothing admitted; not a failure, the interpreter covers it all.
    Units.clear();
    Done();
    return;
  }

  CompileResult R = HostCompiler::compile(Source);
  St.CompilerFound = R.CompilerFound;
  St.CompilerOutput = R.Diagnostics;
  if (!R.ok()) {
    St.Warning = "blaze jit disabled, falling back to the interpreter: " +
                 R.Error;
    if (!R.Diagnostics.empty())
      St.Warning += "\n" + R.Diagnostics;
    fprintf(stderr, "llhd-jit: warning: %s\n", St.Warning.c_str());
    Units.clear();
    Done();
    return;
  }

  for (const LirUnit *L : Native) {
    NativeUnit &NU = Units[L];
    void *Sym = dlsym(R.Handle, NU.Plan.Symbol.c_str());
    if (!Sym) {
      St.Warning = "blaze jit disabled: symbol '" + NU.Plan.Symbol +
                   "' missing from the generated object";
      fprintf(stderr, "llhd-jit: warning: %s\n", St.Warning.c_str());
      Units.clear();
      Done();
      return;
    }
    NU.Fn = reinterpret_cast<JitFn>(Sym);
  }
  St.Compiled = true;
  St.NativeUnits = Native.size();
  Done();
}

bool JitModule::bindProcess(LirEngine &Eng, uint32_t ProcIndex,
                            const NativeUnit &NU, const UnitInstance &Inst,
                            const std::vector<RtValue> &Frame,
                            ProcContext &Ctx) const {
  const UnitPlan &P = NU.Plan;
  Ctx.Eng = &Eng;
  Ctx.ProcIndex = ProcIndex;
  Ctx.Fn = NU.Fn;
  Ctx.Lanes.assign(P.NumLanes, 0);
  for (const auto &[Lane, Val] : P.ConstLanes)
    Ctx.Lanes[Lane] = Val;

  for (const PrbPlan &Pp : P.Prbs) {
    const RtValue &S = Frame[Pp.SigSlot];
    if (!S.isSignal())
      return false;
    PrbSite Site;
    Site.Ref = S.sigRef();
    if (Site.Ref.wholeSignal())
      Site.Whole = Eng.Signals.wholeStorage(Site.Ref.Sig);
    Ctx.Prbs.push_back(std::move(Site));
  }

  for (const DrvPlan &Dp : P.Drvs) {
    const RtValue &S = Frame[Dp.SigSlot];
    const RtValue &T = Frame[Dp.DelaySlot];
    if (!S.isSignal() || !T.isTime())
      return false;
    DrvSite Site;
    Site.Ref = S.sigRef();
    Site.Delay = T.timeValue();
    Site.Driver = LirEngine::driverId(&Inst, Dp.Origin);
    Site.Width = Dp.Width;
    Site.Word = !Dp.NumElems && Site.Ref.wholeSignal();
    if (Dp.NumElems)
      Site.Scratch = RtValue::makeArray(
          std::vector<RtValue>(Dp.NumElems, RtValue(IntValue(Dp.Width, 0))));
    Ctx.Drvs.push_back(std::move(Site));
  }

  for (const WaitPlan &Wp : P.Waits) {
    WaitSite Site;
    for (int32_t Slot : Wp.Observed) {
      const RtValue &S = Frame[Slot];
      if (!S.isSignal())
        return false;
      Site.Sens.push_back(Eng.Signals.canonical(S.sigId()));
    }
    if (Wp.TimeoutSlot >= 0) {
      const RtValue &T = Frame[Wp.TimeoutSlot];
      if (!T.isTime())
        return false;
      Site.HasTimeout = true;
      Site.Timeout = T.timeValue();
    }
    Site.ResumeEntry = Wp.ResumeEntry;
    Ctx.Waits.push_back(std::move(Site));
  }
  return true;
}
