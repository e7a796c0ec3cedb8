//===- jit/Runtime.h - Native code binding and callbacks --------*- C++ -*-===//
//
// The engine side of the JIT's C ABI. A generated process function
// (jit/Codegen.h) has the signature
//
//   extern "C" long long fn(const LlhdJitApi *api, void *ctx,
//                           unsigned long long *lanes, long long entry);
//
// and returns the index of the wait site it suspended at, -1 on halt,
// or -2 on fuel exhaustion. `ctx` is the ProcContext bound to one
// process instance: it carries the resolved side-effect sites (signal
// references, drive delays and driver identities, canonical wait
// sensitivities) so the generated code itself stays free of engine
// types and pointers. The static functions a process calls take the
// same `api` and `ctx`, for the intrinsics inside them.
//
// JitModule orchestrates the whole pipeline for one engine build: plan
// every distinct process unit and the functions it calls, emit one
// translation unit, compile it via jit/HostCompiler.h, resolve the
// symbols, and bind per-instance contexts. Any failure leaves the
// engine interpreting, never broken.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_JIT_RUNTIME_H
#define LLHD_JIT_RUNTIME_H

#include "jit/Codegen.h"
#include "jit/Jit.h"
#include "sim/Lir.h"
#include "sim/RtValue.h"
#include "support/Time.h"

#include <map>

namespace llhd {

class LirEngine;
struct Design;
struct UnitInstance;

namespace jit {

/// The callback table handed to generated code. Layout must match the
/// struct printed by emitPrelude() exactly.
struct LlhdJitApi {
  uint64_t (*prb)(void *Ctx, unsigned Site);
  void (*prb_arr)(void *Ctx, unsigned Site, uint64_t *Dst, unsigned N);
  void (*drv)(void *Ctx, unsigned Site, uint64_t Val);
  void (*drv_arr)(void *Ctx, unsigned Site, const uint64_t *Val, unsigned N);
  /// \p Kind is an Intrinsic; the call may come from a static callee
  /// running on behalf of the process \p Ctx is bound to.
  void (*call)(void *Ctx, unsigned Kind, const uint64_t *Args, unsigned N);
};

/// Signature of a generated process function. The generated side
/// spells the lane array `unsigned long long*`; uint64_t is
/// layout-identical on every supported host.
using JitFn = long long (*)(const LlhdJitApi *, void *, uint64_t *,
                            long long);

/// The engine's shared callback table.
const LlhdJitApi *apiTable();

/// One probe site, resolved per instance.
struct PrbSite {
  SigRef Ref;
  /// The signal's storage when the probe reads a whole, unaliased
  /// signal (resolved once at bind); null means read() through Ref.
  const RtValue *Whole = nullptr;
};

/// One drive site, resolved per instance.
struct DrvSite {
  SigRef Ref;
  Time Delay;
  uint64_t Driver = 0;
  unsigned Width = 0;
  /// Scalar drive of a whole signal: scheduled as a word record.
  bool Word = false;
  RtValue Scratch; ///< Array drives: reused element buffer.
};

/// One wait site, resolved per instance.
struct WaitSite {
  std::vector<SignalId> Sens; ///< Canonical observed signals.
  bool HasTimeout = false;
  Time Timeout;
  long long ResumeEntry = 0;
};

/// Everything one native process instance needs at run time.
struct ProcContext {
  LirEngine *Eng = nullptr;
  uint32_t ProcIndex = 0;
  JitFn Fn = nullptr;
  std::vector<uint64_t> Lanes;
  std::vector<PrbSite> Prbs;
  std::vector<DrvSite> Drvs;
  std::vector<WaitSite> Waits;
};

/// One program build's JIT state: the plans, the loaded code, and the
/// statistics. Owned by LirProgram; after compile() it is read-only and
/// shared by every engine running over that program.
class JitModule {
public:
  explicit JitModule(JitOptions O) : Opts(O) {}

  /// Plans every distinct process unit of \p D (and, once, every
  /// function they call), emits and compiles the translation unit, and
  /// resolves the symbols. \p Cache must already hold the lowering of
  /// every instantiated unit and reachable function
  /// (LirProgram::build). On any failure the module simply ends up with
  /// no native units (and a warning in the stats); the engines keep
  /// interpreting.
  void compile(const Design &D, const LirCache &Cache);

  struct NativeUnit {
    UnitPlan Plan;
    JitFn Fn = nullptr;
  };

  /// The native code for \p L, or null when it deopted (or nothing
  /// compiled).
  const NativeUnit *nativeFor(const LirUnit *L) const {
    auto It = Units.find(L);
    return It == Units.end() || !It->second.Fn ? nullptr : &It->second;
  }

  /// Resolves one process instance's side-effect sites from its
  /// preloaded frame into \p Ctx. Returns false when a binding is not
  /// resolvable (the instance then stays interpreted).
  /// Const: binding reads the compiled plans and writes only \p Ctx, so
  /// concurrent batch engines bind against one shared module.
  bool bindProcess(LirEngine &Eng, uint32_t ProcIndex, const NativeUnit &NU,
                   const UnitInstance &Inst,
                   const std::vector<RtValue> &Frame, ProcContext &Ctx) const;

  JitStats St;
  std::string Source; ///< The emitted translation unit (for dump/CI).

private:
  JitOptions Opts;
  std::map<const LirUnit *, NativeUnit> Units;
};

} // namespace jit
} // namespace llhd

#endif // LLHD_JIT_RUNTIME_H
