//===- blaze/Blaze.cpp - Accelerated engine (LLHD-Blaze) -----------------------===//
//
// Blaze's compilation is now a thin pass over the shared lowered runtime
// IR (sim/Lir.h) instead of a second opcode walk over ir::Instruction:
// the engine clones the caller's module, runs the LLHD optimisation
// pipeline over the clone (the paper's "JIT with optimisations"
// configuration, one notch below LLVM), elaborates, and then executes
// the same LIR through the same execution core as the reference
// interpreter (sim/LirEngine.h). Engine semantics are therefore shared
// by construction; what distinguishes Blaze is the pre-compilation
// optimisation of the simulated module and the native code the JIT
// (src/jit/) emits for the process units it admits.
//
//===----------------------------------------------------------------------===//

#include "blaze/Blaze.h"
#include "asm/Parser.h"
#include "asm/Printer.h"
#include "passes/Passes.h"
#include "sim/LirEngine.h"

#include <memory>

using namespace llhd;

namespace {
/// Keeps the optimised clone alive for the program's lifetime (the
/// program's Units/Instructions point into it). The clone lives in the
/// caller's Context, which must outlive the program.
struct ClonedModule {
  Module M;
  ClonedModule(Context &Ctx, std::string Name) : M(Ctx, std::move(Name)) {}
};
} // namespace

struct BlazeSim::Impl {
  std::string Err;
  std::unique_ptr<LirEngine> Eng;
  Trace EmptyTr;
  Design EmptyD;

  Impl(Module &M, const std::string &Top, const BlazeOptions &O) {
    std::shared_ptr<const LirProgram> Prog =
        BlazeSim::buildProgram(M, Top, O, Err);
    if (Prog)
      mkEngine(std::move(Prog), O);
  }

  Impl(std::shared_ptr<const LirProgram> Prog, SimOptions O) {
    if (!Prog || !Prog->D.ok()) {
      Err = Prog ? Prog->D.Error : "null program";
      return;
    }
    mkEngine(std::move(Prog), std::move(O));
  }

  void mkEngine(std::shared_ptr<const LirProgram> Prog, SimOptions O) {
    Eng = std::make_unique<LirEngine>(std::move(Prog), std::move(O));
    Eng->EngineName = "blaze";
    Eng->build();
  }
};

std::shared_ptr<const LirProgram>
BlazeSim::buildProgram(Module &M, const std::string &Top,
                       const BlazeOptions &O, std::string &Err) {
  // Clone the module so optimisation does not disturb the caller.
  auto Holder =
      std::make_shared<ClonedModule>(M.context(), M.name() + ".blaze");
  ParseResult R = parseModule(printModule(M), Holder->M);
  if (!R.Ok) {
    Err = "internal clone failed: " + R.Error;
    return nullptr;
  }
  if (O.Optimize)
    runStandardOptimizations(Holder->M);
  Design D = elaborate(Holder->M, Top);
  if (!D.ok()) {
    Err = D.Error;
    return nullptr;
  }
  return LirProgram::build(std::move(D), O.Jit, std::move(Holder));
}

BlazeSim::BlazeSim(Module &M, const std::string &Top, BlazeOptions Opts)
    : P(std::make_unique<Impl>(M, Top, Opts)) {}

BlazeSim::BlazeSim(Module &M, const std::string &Top)
    : BlazeSim(M, Top, BlazeOptions()) {}

BlazeSim::BlazeSim(std::shared_ptr<const LirProgram> Prog, SimOptions Opts)
    : P(std::make_unique<Impl>(std::move(Prog), std::move(Opts))) {}

BlazeSim::~BlazeSim() = default;

bool BlazeSim::valid() const { return P->Err.empty(); }
const std::string &BlazeSim::error() const { return P->Err; }
SimStats BlazeSim::run() { return P->Eng ? P->Eng->run() : SimStats(); }
SimOptions &BlazeSim::options() {
  static SimOptions Dummy;
  return P->Eng ? P->Eng->Opts : Dummy;
}
void BlazeSim::checkpoint(std::vector<uint8_t> &Out) {
  if (P->Eng)
    P->Eng->checkpoint(Out);
}
bool BlazeSim::restore(const std::vector<uint8_t> &In, std::string &Err) {
  if (!P->Eng) {
    Err = "engine failed to build";
    return false;
  }
  return P->Eng->restore(In, Err);
}
const Trace &BlazeSim::trace() const {
  return P->Eng ? P->Eng->Tr : P->EmptyTr;
}
const SignalTable &BlazeSim::signals() const {
  return P->Eng ? P->Eng->Signals : P->EmptyD.Signals;
}
const Design &BlazeSim::design() const {
  return P->Eng ? P->Eng->D : P->EmptyD;
}
const jit::JitStats &BlazeSim::jitStats() const {
  static const jit::JitStats Empty;
  return P->Eng ? P->Eng->jitStats() : Empty;
}
const std::string &BlazeSim::jitSource() const {
  static const std::string Empty;
  return P->Eng ? P->Eng->jitSource() : Empty;
}
