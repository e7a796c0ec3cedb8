//===- perfbench/runner.cpp - In-process half of the benchmark -------------===//
//
// The measurement runner behind perfbench/run.py. It drives the library
// only through its public headers:
//
//   designs  writes the workload's SystemVerilog inputs (the Table-2
//            designs at the workload's scale, plus the generated busy-CPU
//            RISC-V variant) and prints the design list;
//   inproc   sets every listed design up from SV text (timed: setup_s),
//            then serves run.py's requests, one design at a time: a
//            simulation pass on Interp and Blaze over the prebuilt
//            programs, or a fleet pass through runBatch;
//   oneshot  the llhd-sim pipeline for one design, with spans around each
//            layer call (the traced stand-in for an llhd-sim process).
//
// Results go to stdout as JSON, one object per reply line (inproc
// replies once after setup and once per request). With --trace=<file>, spans
// (name, start, end, parent, run id) and counters are kept in memory and
// written to <file> at exit; run.py turns them into per-layer self times.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "asm/Printer.h"
#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "jit/Codegen.h"
#include "jit/HostCompiler.h"
#include "jit/Runtime.h"
#include "moore/Compiler.h"
#include "passes/PassManager.h"
#include "sim/Batch.h"
#include "sim/Interp.h"
#include "sim/Program.h"
#include "sim/Wave.h"

#include <dirent.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace llhd;

namespace {

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

/// CLOCK_MONOTONIC nanoseconds: the same clock as Python's
/// time.monotonic_ns(), so run.py can nest these spans under its own.
int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double secondsSince(int64_t T0) { return (nowNs() - T0) * 1e-9; }

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string hex64(uint64_t V) {
  char Buf[17];
  snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

std::string num(double V) {
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Data;
  return static_cast<bool>(Out);
}

/// Number of published JIT objects (llhd-jit-*) in \p Dir.
unsigned countJitObjects(const std::string &Dir) {
  unsigned N = 0;
  if (DIR *D = opendir(Dir.c_str())) {
    while (dirent *E = readdir(D))
      N += std::string(E->d_name).rfind("llhd-jit-", 0) == 0;
    closedir(D);
  }
  return N;
}

/// Parses "--name=value" flags; positional arguments are rejected.
struct Args {
  std::map<std::string, std::string> KV;
  bool parse(int Argc, char **Argv, int First) {
    for (int I = First; I < Argc; ++I) {
      std::string A = Argv[I];
      size_t Eq = A.find('=');
      if (A.rfind("--", 0) != 0 || Eq == std::string::npos) {
        fprintf(stderr, "perfbench-runner: bad argument '%s'\n", A.c_str());
        return false;
      }
      KV[A.substr(2, Eq - 2)] = A.substr(Eq + 1);
    }
    return true;
  }
  std::string str(const std::string &K, const std::string &Def = "") const {
    auto It = KV.find(K);
    return It == KV.end() ? Def : It->second;
  }
  uint64_t u64(const std::string &K, uint64_t Def) const {
    auto It = KV.find(K);
    return It == KV.end() ? Def : std::stoull(It->second);
  }
};

//===----------------------------------------------------------------------===//
// Span recorder
//===----------------------------------------------------------------------===//

/// Spans and counters of one process, kept in memory and written at
/// exit. Disabled (the untraced runs), every call is a branch.
class Tracer {
public:
  bool On = false;
  std::string Run; ///< Id of the current design run; spans inherit it.

  /// Opens a span; returns its index for rename(), -1 when off.
  int begin(const char *Name) {
    if (!On)
      return -1;
    Spans.push_back({Name, Run, nowNs(), 0,
                     Open.empty() ? -1 : Open.back()});
    Open.push_back(static_cast<int>(Spans.size()) - 1);
    return Open.back();
  }
  /// Renames a span once what it did is known (a cache hit or miss).
  void rename(int Index, const char *Name) {
    if (Index >= 0)
      Spans[Index].Name = Name;
  }
  void end() {
    if (!On)
      return;
    Spans[Open.back()].End = nowNs();
    Open.pop_back();
  }
  void count(const std::string &Name, double V) {
    if (On)
      Counts.push_back({Run, Name, V});
  }

  bool write(const std::string &Path) const {
    std::string S = "{\"spans\": [";
    for (size_t I = 0; I != Spans.size(); ++I) {
      const SpanRec &R = Spans[I];
      S += (I ? ",\n" : "\n") + std::string("{\"name\": ") + jsonStr(R.Name) +
           ", \"run\": " + jsonStr(R.Run) + ", \"start\": " +
           std::to_string(R.Start) + ", \"end\": " + std::to_string(R.End) +
           ", \"parent\": " + std::to_string(R.Parent) + "}";
    }
    S += "],\n\"counts\": [";
    for (size_t I = 0; I != Counts.size(); ++I)
      S += (I ? ",\n" : "\n") + std::string("{\"run\": ") +
           jsonStr(Counts[I].Run) + ", \"name\": " + jsonStr(Counts[I].Name) +
           ", \"value\": " + num(Counts[I].V) + "}";
    S += "]}\n";
    return writeFile(Path, S);
  }

private:
  struct SpanRec {
    std::string Name, Run;
    int64_t Start, End;
    int Parent;
  };
  struct CountRec {
    std::string Run, Name;
    double V;
  };
  std::vector<SpanRec> Spans;
  std::vector<int> Open;
  std::vector<CountRec> Counts;
};

Tracer T;

struct Span {
  explicit Span(const char *Name) { T.begin(Name); }
  ~Span() { T.end(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
};

//===----------------------------------------------------------------------===//
// Workload inputs
//===----------------------------------------------------------------------===//

/// One design as the runner sees it: a generated .sv file and its top.
struct DesignIn {
  std::string Key, Top, Path;
  uint64_t Cycles = 0;
  std::string Sv;
};

/// Simulated clock cycles per design per workload. cold_suite keeps
/// table2_sim_perf's default scale (compile-bound). long_sim picks each
/// design's count so an Interp run() takes about 50 ms on a Sapphire
/// Rapids core (simulation-bound, yet short enough that one run's window
/// holds several passes).
struct WorkloadSpec {
  const char *Name;
  double Scale; ///< Used for designs without an entry in Cycles.
  std::map<std::string, uint64_t> Cycles;
  bool BusyCpu;
};

const WorkloadSpec Workloads[] = {
    {"cold_suite", 0.001, {}, false},
    {"long_sim",
     0,
     {{"gray", 30000},
      {"fir", 15000},
      {"lfsr", 20000},
      {"lzc", 5000},
      {"fifo", 11000},
      {"cdc_gray", 20000},
      {"cdc_strobe", 13000},
      {"rr_arbiter", 10000},
      {"stream_delayer", 8500},
      {"riscv", 40000},
      {"riscv_busy", 4000}},
     true},
};

uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

bool replaceOnce(std::string &S, const std::string &From,
                 const std::string &To) {
  size_t Pos = S.find(From);
  if (Pos == std::string::npos)
    return false;
  S.replace(Pos, From.size(), To);
  return true;
}

/// The busy-CPU RISC-V variant. The suite's ROM sums 1..100 once and
/// then spins on `jal x0, 0`, so past ~310 cycles the core does no work.
/// Here the program branches back to pc 0 after storing the sum, so the
/// core keeps executing: x1/x2/x3 are rebuilt and x10 rewritten with the
/// same sum every 3*Limit+1 cycles. Limit (the addi immediate, at most
/// 2047) comes from the seed, in [256, 1023] so the first sum lands
/// within the run. The testbench asserts x10 == 0 before the first store
/// lands at cycle 3*Limit and == the sum from then on.
bool busyCpuSource(std::string &Src, uint64_t Seed, uint64_t Limit) {
  uint64_t Sum = Limit * (Limit - 1) / 2;
  char AddiLimit[16], Tail[200];
  snprintf(AddiLimit, sizeof(AddiLimit), "32'h%08llx",
           static_cast<unsigned long long>((Limit << 20) | 0x193));
  // beq x0, x0, -28: from pc 28 back to pc 0.
  snprintf(Tail, sizeof(Tail),
           "      6'd7: instr = 32'hfe0002e3;    // beq  x0, x0, -28    "
           "(restart)\n      default: instr = 32'h0000006f;");
  std::string Sums = "32'd" + std::to_string(Sum);
  std::string Cycle = "32'd" + std::to_string(3 * Limit);
  bool Ok =
      replaceOnce(Src, "sum = 1 + 2 + ... + 100 into x10, then spin.",
                  "sum = 1 + ... + " + std::to_string(Limit - 1) +
                      " into x10, then restart (seed " +
                      std::to_string(Seed) + ").") &&
      replaceOnce(Src, "32'h06500193;    // addi x3, x0, 101",
                  std::string(AddiLimit) + ";    // addi x3, x0, " +
                      std::to_string(Limit)) &&
      replaceOnce(Src, "      default: instr = 32'h0000006f;", Tail) &&
      replaceOnce(Src,
                  "if (i > 32'd320) assert(result == 32'd5050);\n"
                  "      if (i <= 32'd300) assert(result == 32'd0);",
                  "if (i >= " + Cycle + ") assert(result == " + Sums +
                      ");\n      else assert(result == 32'd0);") &&
      replaceOnce(Src, "assert(result == 32'd5050);\n    $finish;",
                  "assert(result == " + Sums + ");\n    $finish;");
  return Ok;
}

int cmdDesigns(const Args &A) {
  std::string Name = A.str("workload"), Out = A.str("out");
  uint64_t Seed = A.u64("seed", 0);
  const WorkloadSpec *W = nullptr;
  for (const WorkloadSpec &S : Workloads)
    if (Name == S.Name)
      W = &S;
  if (!W || Out.empty()) {
    fprintf(stderr, "perfbench-runner: designs needs --workload=<%s> and "
                    "--out=<dir>\n",
            "cold_suite|long_sim");
    return 64;
  }
  // Design Key at the workload's cycle count for Name.
  auto scaled = [W](const std::string &Key, const std::string &Name) {
    auto It = W->Cycles.find(Name);
    double Scale =
        It == W->Cycles.end()
            ? W->Scale
            : (It->second + 0.5) /
                  static_cast<double>(designs::designByKey(Key, 1).CyclesPaper);
    return designs::designByKey(Key, Scale);
  };
  std::vector<designs::DesignInfo> List;
  for (const designs::DesignInfo &D : designs::allDesigns(W->Scale))
    List.push_back(scaled(D.Key, D.Key));
  if (W->BusyCpu) {
    designs::DesignInfo D = scaled("riscv", "riscv_busy");
    uint64_t Limit = 256 + splitmix(Seed) % 768;
    if (D.Iterations <= 3 * Limit || !busyCpuSource(D.Source, Seed, Limit)) {
      fprintf(stderr, "perfbench-runner: cannot derive the busy-CPU variant "
                      "from the RISC-V design\n");
      return 70;
    }
    D.Key = "riscv_busy";
    List.push_back(D);
  }
  for (const designs::DesignInfo &D : List) {
    std::string Path = Out + "/" + D.Key + ".sv";
    if (!writeFile(Path, D.Source)) {
      fprintf(stderr, "perfbench-runner: cannot write %s\n", Path.c_str());
      return 66;
    }
    printf("%s %s %s %llu\n", D.Key.c_str(), D.TopModule.c_str(),
           Path.c_str(), static_cast<unsigned long long>(D.Iterations));
  }
  return 0;
}

/// Reads run.py's design list: one "key top path cycles" line each.
bool readDesignList(const std::string &Path, std::vector<DesignIn> &Out) {
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream LS(Line);
    DesignIn D;
    if (!(LS >> D.Key >> D.Top >> D.Path >> D.Cycles))
      continue;
    if (!readFile(D.Path, D.Sv)) {
      fprintf(stderr, "perfbench-runner: cannot read %s\n", D.Path.c_str());
      return false;
    }
    Out.push_back(std::move(D));
  }
  return !Out.empty();
}

//===----------------------------------------------------------------------===//
// Building: SV text -> programs, one span per layer call
//===----------------------------------------------------------------------===//

/// A design compiled by the Moore frontend. The Context outlives every
/// program built from the module (Blaze's clone lives in it too).
struct Frontend {
  std::unique_ptr<Context> Ctx = std::make_unique<Context>();
  std::unique_ptr<Module> M;
  std::string Top;
  std::string Error;
};

std::unique_ptr<Frontend> compileSv(const DesignIn &D) {
  auto F = std::make_unique<Frontend>();
  F->M = std::make_unique<Module>(*F->Ctx, D.Key);
  Span S("moore.compile");
  moore::CompileResult R = moore::compileSystemVerilog(D.Sv, D.Top, *F->M);
  if (!R.Ok)
    F->Error = R.Error;
  F->Top = R.TopUnit;
  return F;
}

uint64_t countInsts(const Module &M) {
  uint64_t N = 0;
  for (const auto &U : M.units())
    for (const BasicBlock *B : U->blocks())
      N += B->size();
  return N;
}

/// The Interp program: elaborate, then lower (no JIT), as llhd-sim's
/// interp path does through InterpSim(Design).
std::shared_ptr<const LirProgram> buildInterp(Module &M,
                                              const std::string &Top) {
  Design D;
  {
    Span S("design.elaborate");
    D = elaborate(M, Top);
  }
  Span S("lir.lower");
  return LirProgram::build(std::move(D));
}

/// Keeps Blaze's optimised clone alive for the program's lifetime.
struct Clone {
  Module M;
  Clone(Context &Ctx, std::string Name) : M(Ctx, std::move(Name)) {}
};

/// BlazeSim::buildProgram split at each layer call so every layer gets
/// its own span: clone, the "std" pipeline (what
/// runStandardOptimizations runs), elaboration, LirProgram::build's
/// lowering, JitModule::compile's plan/emit, the host compile, and the
/// symbol binding (which re-plans and hits the in-process object cache).
std::shared_ptr<const LirProgram> buildBlazeTraced(Module &M,
                                                   const std::string &Top,
                                                   jit::JitOptions J,
                                                   std::string &Err) {
  auto Holder = std::make_shared<Clone>(M.context(), M.name() + ".blaze");
  {
    Span S("asm.clone");
    ParseResult R = parseModule(printModule(M), Holder->M);
    if (!R.Ok) {
      Err = "internal clone failed: " + R.Error;
      return nullptr;
    }
  }
  T.count("ir.insts_before", countInsts(Holder->M));
  {
    Span S("passes.std");
    UnitPassManager PM;
    PM.addPass("std");
    for (const auto &U : Holder->M.units()) {
      if (!U->hasBody())
        continue;
      UnitAnalysisManager AM;
      PM.run(*U, AM);
    }
    for (const PassStatistic &PS : PM.statistics().table()) {
      T.count("passes." + PS.Name + ".runs", PS.Runs);
      T.count("passes." + PS.Name + ".changed", PS.Changed);
    }
  }
  T.count("ir.insts_after", countInsts(Holder->M));

  auto P = std::make_shared<LirProgram>();
  {
    Span S("design.elaborate");
    P->D = elaborate(Holder->M, Top);
  }
  if (!P->D.ok()) {
    Err = P->D.Error;
    return nullptr;
  }
  P->JitOpts = J;
  P->Frontend = Holder;
  {
    // LirProgram::build's eager lowering: every instantiated unit, then
    // the function call graph to a fixpoint.
    Span S("lir.lower");
    std::vector<Unit *> Work;
    std::set<Unit *> Seen;
    auto Enqueue = [&](Unit *U) {
      if (U && !U->isIntrinsic() && !U->isDeclaration() &&
          Seen.insert(U).second)
        Work.push_back(U);
    };
    for (const UnitInstance &UI : P->D.Instances)
      Enqueue(UI.U);
    while (!Work.empty()) {
      Unit *U = Work.back();
      Work.pop_back();
      for (const LirOp &Op : P->Cache.get(U).Ops)
        if (Op.C == LirOpc::Call)
          Enqueue(Op.Callee);
    }
  }
  uint64_t Ops = 0;
  P->Cache.forEach([&](const Unit *, const LirUnit &L) { Ops += L.Ops.size(); });
  T.count("lir.ops", Ops);
  if (J.M == jit::JitOptions::Mode::Off)
    return P;

  std::string Src;
  {
    // JitModule::compile's plan and emit, in its order.
    Span S("jit.emit");
    Src = jit::emitPrelude();
    std::set<const LirUnit *> Planned;
    unsigned Native = 0, Deopt = 0;
    for (const UnitInstance &UI : P->D.Instances) {
      if (!UI.U->isProcess())
        continue;
      const LirUnit *L = P->Cache.lookup(UI.U);
      if (!Planned.insert(L).second)
        continue;
      jit::UnitPlan Plan = jit::planUnit(*L);
      if (!Plan.Native) {
        ++Deopt;
        continue;
      }
      Src += jit::emitUnit(Plan, Native++);
    }
    T.count("jit.native_units", Native);
    T.count("jit.deopt_units", Deopt);
    T.count("jit.source_bytes", Src.size());
    if (!Native)
      Src.clear();
  }
  if (!Src.empty()) {
    // A miss publishes one object into $LLHD_JIT_CACHE; a hit adds none.
    const char *CacheDir = getenv("LLHD_JIT_CACHE");
    unsigned Before = CacheDir ? countJitObjects(CacheDir) : 0;
    int Idx = T.begin("jit.host_compile");
    jit::CompileResult R = jit::HostCompiler::compile(Src);
    T.end();
    bool Hit = CacheDir && countJitObjects(CacheDir) == Before;
    if (Hit)
      T.rename(Idx, "jit.cache_load");
    T.count(Hit ? "jit.cache_hits" : "jit.cache_misses", 1);
    if (!R.ok()) {
      Err = "host compile failed: " + R.Error;
      return nullptr;
    }
  }
  {
    Span S("jit.link");
    P->JitMod = std::make_unique<jit::JitModule>(P->JitOpts);
    P->JitMod->compile(P->D, P->Cache);
  }
  return P;
}

std::shared_ptr<const LirProgram> buildBlaze(Module &M, const std::string &Top,
                                             jit::JitOptions J,
                                             std::string &Err) {
  if (T.On)
    return buildBlazeTraced(M, Top, J, Err);
  BlazeSim::BlazeOptions BO;
  BO.Jit = J;
  return BlazeSim::buildProgram(M, Top, BO, Err);
}

const jit::JitOptions JitOn{jit::JitOptions::Mode::On, ""};
const jit::JitOptions JitOff{jit::JitOptions::Mode::Off, ""};

//===----------------------------------------------------------------------===//
// Running
//===----------------------------------------------------------------------===//

/// What one run() produced; the determinism checks compare these.
struct Outcome {
  uint64_t Digest = 0, Steps = 0, ProcessRuns = 0, EntityEvals = 0;
  uint64_t Asserts = 0;
  bool Finished = false;
  double RunS = 0;

  bool sameAs(const Outcome &O) const {
    return Digest == O.Digest && Steps == O.Steps &&
           ProcessRuns == O.ProcessRuns && EntityEvals == O.EntityEvals;
  }
  std::string json() const {
    return "{\"digest\": \"" + hex64(Digest) +
           "\", \"steps\": " + std::to_string(Steps) +
           ", \"process_runs\": " + std::to_string(ProcessRuns) +
           ", \"entity_evals\": " + std::to_string(EntityEvals) + "}";
  }
};

/// Checkpoint cadence: eight images over a run of \p Cycles 2 ns cycles.
uint64_t checkpointEveryFs(uint64_t Cycles) {
  return std::max<uint64_t>(Cycles * 2000000 / 8, 1000000);
}

/// A Blaze fleet of \p N instances on \p Jobs workers; instance i runs
/// with Seed + i.
BatchOptions fleetOptions(unsigned N, unsigned Jobs, uint64_t Seed) {
  BatchOptions BO;
  BO.N = N;
  BO.Jobs = Jobs;
  BO.Engine = "blaze";
  BO.Base.TraceMode = Trace::Mode::Hash;
  BO.Base.Seed = Seed;
  return BO;
}

/// A fresh engine over \p Prog, ready to run().
template <typename EngineT>
std::unique_ptr<EngineT> bindEngine(std::shared_ptr<const LirProgram> Prog,
                                    uint64_t Seed, WaveWriter *Wave = nullptr) {
  SimOptions O;
  O.TraceMode = Trace::Mode::Hash;
  O.Seed = Seed;
  O.Wave = Wave;
  Span S("engine.bind");
  return std::make_unique<EngineT>(std::move(Prog), std::move(O));
}

/// Runs \p E to its end; only run() is timed.
template <typename EngineT> Outcome runEngine(EngineT &E) {
  Outcome Out;
  SimStats St;
  int64_t T0 = nowNs();
  {
    Span S("engine.run");
    St = E.run();
  }
  Out.RunS = secondsSince(T0);
  Out.Digest = E.trace().digest();
  Out.Steps = St.Steps;
  Out.ProcessRuns = St.ProcessRuns;
  Out.EntityEvals = St.EntityEvals;
  Out.Asserts = St.AssertFailures;
  Out.Finished = St.Finished && St.Stop == StopReason::None;
  return Out;
}

/// One run on a fresh engine over \p Prog.
template <typename EngineT>
Outcome runOnce(std::shared_ptr<const LirProgram> Prog, uint64_t Seed,
                WaveWriter *Wave = nullptr) {
  return runEngine(*bindEngine<EngineT>(std::move(Prog), Seed, Wave));
}

/// Attempted/failed run counts and the first few failure reasons.
struct Checks {
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Errors;

  void run(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      if (Errors.size() < 20)
        Errors.push_back(What);
    }
  }
  std::string json() const {
    std::string S = "{\"attempted\": " + std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"errors\": [";
    for (size_t I = 0; I != Errors.size(); ++I)
      S += (I ? ", " : "") + jsonStr(Errors[I]);
    return S + "]}";
  }
};

double peakRssMb() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss / 1024.0;
}

//===----------------------------------------------------------------------===//
// inproc
//===----------------------------------------------------------------------===//

/// One design set up for in-process runs.
struct Prepared {
  const DesignIn *In = nullptr;
  std::unique_ptr<Frontend> F;
  std::shared_ptr<const LirProgram> InterpProg, BlazeProg;
  /// Engines bound during setup; the first simulation pass runs them.
  std::unique_ptr<InterpSim> FirstInterp;
  std::unique_ptr<BlazeSim> FirstBlaze;
  Outcome Ref[2]; ///< First Interp / Blaze outcome: the reference.
  bool HaveRef[2] = {false, false};
  unsigned SimPasses = 0, FleetPasses = 0;
};

/// Runs the engine bound during setup if it is still there, else a fresh
/// one over \p Prog.
template <typename EngineT>
Outcome runFirstOrFresh(std::unique_ptr<EngineT> &First,
                        std::shared_ptr<const LirProgram> Prog) {
  if (!First)
    return runOnce<EngineT>(std::move(Prog), 0);
  std::unique_ptr<EngineT> E = std::move(First);
  return runEngine(*E);
}

/// Extra traced measurements for one design (per-layer metrics that need
/// a dedicated run): native speedup, waveform cost, checkpoint
/// save/restore, and per-instance slowdown under concurrency. The fleet
/// that writes a VCD and checkpoints per instance has \p FleetN
/// instances; it is a check, so a small one.
void traceExtras(Prepared &P, unsigned Jobs, unsigned FleetN, uint64_t Seed,
                 const std::string &OutDir, Checks &C) {
  const std::string &Key = P.In->Key;
  Outcome On = runOnce<BlazeSim>(P.BlazeProg, Seed);

  // jit.native_speedup: the same optimised design with native code off.
  std::string Err;
  std::shared_ptr<const LirProgram> NoJit;
  {
    bool Was = T.On;
    T.On = false; // An extra untimed build, not part of any layer.
    BlazeSim::BlazeOptions BO;
    BO.Jit = JitOff;
    NoJit = BlazeSim::buildProgram(*P.F->M, P.F->Top, BO, Err);
    T.On = Was;
  }
  if (NoJit) {
    Outcome Off = runOnce<BlazeSim>(NoJit, Seed);
    C.run(Off.sameAs(On), Key + ": blaze jit-off digest differs");
    T.count("jit.off_run_s", Off.RunS);
    T.count("jit.on_run_s", On.RunS);
  }

  // wave.overhead_ratio / wave.bytes: run() with a WaveWriter attached.
  {
    WaveWriter W;
    Outcome Wv = runOnce<BlazeSim>(P.BlazeProg, Seed, &W);
    W.finish();
    C.run(Wv.sameAs(On), Key + ": blaze digest differs with a waveform");
    T.count("wave.run_s", Wv.RunS);
    T.count("wave.base_run_s", On.RunS);
    T.count("wave.bytes", W.text().size());
  }

  // checkpoint.*: one image at mid-run, restored into a fresh engine
  // that must finish with the uninterrupted run's digest.
  {
    SimOptions O;
    O.Seed = Seed;
    BlazeSim E(P.BlazeProg, O);
    std::vector<uint8_t> Image;
    E.options().RC.CheckpointEveryFs =
        checkpointEveryFs(P.In->Cycles) * 4; // Half-way.
    E.options().RC.Checkpoint = [&](Time) {
      if (!Image.empty())
        return true;
      Span S("checkpoint.save");
      E.checkpoint(Image);
      return true;
    };
    E.run();
    T.count("checkpoint.bytes", Image.size());
    BlazeSim R(P.BlazeProg, O);
    std::string RErr;
    bool Ok;
    {
      Span S("checkpoint.restore");
      Ok = !Image.empty() && R.restore(Image, RErr);
    }
    SimStats St = R.run();
    C.run(Ok && R.trace().digest() == On.Digest && !St.AssertFailures,
          Key + ": checkpoint resume differs from the uninterrupted run " +
              RErr);
  }

  // A fleet writing per-instance VCDs and periodic checkpoint files:
  // instance I's VCD must be byte-identical to a sequential run of its
  // seed.
  {
    BatchOptions BO = fleetOptions(FleetN, Jobs, Seed);
    std::string Base = OutDir + "/" + Key + ".fleet";
    BO.VcdPath = Base + ".vcd";
    BO.CheckpointPath = Base + ".ckpt";
    BO.Base.RC.CheckpointEveryFs = checkpointEveryFs(P.In->Cycles);
    BatchResult R = runBatch(*P.F->M, P.F->Top, BO);
    unsigned I = Seed % FleetN;
    WaveWriter W;
    Outcome Seq = runOnce<BlazeSim>(P.BlazeProg, Seed + I, &W);
    W.finish();
    std::string Vcd;
    C.run(R.Ok && R.Instances[I].Digest == Seq.Digest &&
              readFile(instancePath(BO.VcdPath, I), Vcd) && Vcd == W.text(),
          Key + ": fleet instance VCD differs from a sequential run");
  }

  // batch.instance_slowdown: Jobs threads each run one BlazeSim over the
  // shared program at once, against the run alone (On above).
  {
    std::vector<Outcome> Par(Jobs);
    std::vector<std::thread> Threads;
    bool WasOn = T.On;
    T.On = false; // The recorder is single-threaded.
    for (unsigned I = 0; I != Jobs; ++I)
      Threads.emplace_back([&, I] {
        Par[I] = runOnce<BlazeSim>(P.BlazeProg, Seed);
      });
    for (std::thread &Th : Threads)
      Th.join();
    T.On = WasOn;
    double Sum = 0;
    for (const Outcome &O : Par) {
      Sum += O.RunS;
      C.run(O.sameAs(On), Key + ": concurrent blaze run differs");
    }
    T.count("batch.concurrent_run_s", Sum / Jobs);
    T.count("batch.alone_run_s", On.RunS);
  }
}

/// One simulation pass of \p P: a run() on Interp, then on Blaze. The
/// first pass runs the engines bound during setup; later ones bind fresh
/// engines over the same programs. Replies {"interp": s, "blaze": s}.
std::string simPass(Prepared &P, Checks &C) {
  T.Run = "sim/" + std::to_string(P.SimPasses++) + "/" + P.In->Key;
  std::string Reply = "{";
  for (int E = 0; E != 2; ++E) {
    Outcome O = E ? runFirstOrFresh(P.FirstBlaze, P.BlazeProg)
                  : runFirstOrFresh(P.FirstInterp, P.InterpProg);
    T.count(E ? "sim.blaze.steps" : "sim.interp.steps", O.Steps);
    T.count(E ? "sim.blaze.process_runs" : "sim.interp.process_runs",
            O.ProcessRuns);
    T.count(E ? "sim.blaze.entity_evals" : "sim.interp.entity_evals",
            O.EntityEvals);
    T.count(E ? "engine.blaze.run_s" : "engine.interp.run_s", O.RunS);
    bool Ok = !O.Asserts && O.Finished;
    if (!P.HaveRef[E]) {
      P.Ref[E] = O;
      P.HaveRef[E] = true;
    }
    Ok &= O.sameAs(P.Ref[E]);
    if (E == 1 && P.HaveRef[0])
      Ok &= O.Digest == P.Ref[0].Digest;
    C.run(Ok, P.In->Key + (E ? " blaze" : " interp") +
                  ": assert failure, early stop or digest/stats differ "
                  "from the first run or from interp");
    Reply += std::string(E ? ", \"blaze\": " : "\"interp\": ") + num(O.RunS);
  }
  return Reply + "}";
}

/// One fleet pass of \p P: runBatch on Blaze with FleetN instances on
/// Jobs workers, then one instance (chosen by the seed and pass) re-run
/// alone with its seed, which must give the same digest. Replies
/// {"cycles", "run_s", "build_s"}.
std::string fleetPass(Prepared &P, unsigned Jobs, unsigned FleetN,
                      uint64_t Seed, Checks &C) {
  unsigned Pass = P.FleetPasses++;
  T.Run = "fleet/" + std::to_string(Pass) + "/" + P.In->Key;
  auto fleet = [&](unsigned J) {
    Span S("batch.run");
    return runBatch(*P.F->M, P.F->Top, fleetOptions(FleetN, J, Seed));
  };
  BatchResult R = fleet(Jobs);
  for (const BatchInstance &BI : R.Instances)
    C.run(R.Ok && BI.Error.empty() && !BI.Stats.AssertFailures &&
              BI.Stats.Finished,
          P.In->Key + ": fleet instance " + std::to_string(BI.Index) +
              " failed " + R.Error + BI.Error);
  T.count("batch.build_s", R.BuildSeconds);
  T.count("batch.run_s", R.RunSeconds);
  if (T.On && Pass == 0) {
    BatchResult R1 = fleet(1);
    T.count("batch.jobs1_run_s", R1.RunSeconds);
    T.count("batch.jobsJ_run_s", R.RunSeconds);
  }
  if (R.Ok && !R.Instances.empty()) {
    unsigned I = (Seed + Pass) % R.Instances.size();
    Outcome Seq = runOnce<BlazeSim>(P.BlazeProg, Seed + I);
    C.run(Seq.Digest == R.Instances[I].Digest,
          P.In->Key + ": fleet instance " + std::to_string(I) +
              " differs from a sequential run of its seed");
  }
  return "{\"cycles\": " + std::to_string(FleetN * P.In->Cycles) +
         ", \"run_s\": " + num(R.RunSeconds) +
         ", \"build_s\": " + num(R.BuildSeconds) + "}";
}

/// Sets every listed design up (timed: setup_s), replies with one line,
/// then serves run.py's requests on stdin, one per line, each answered
/// with one JSON line on stdout:
///
///   sim <key>    one simulation pass of the design (simPass);
///   fleet <key>  one fleet pass of the design (fleetPass);
///                either replies {"skipped": true} if the design's setup
///                failed;
///   end          the traced extras (with --trace), then the checks, the
///                outcomes and the peak RSS; the runner exits.
///
/// So run.py can interleave these runs with its llhd-sim processes, one
/// design at a time, while the programs stay built.
int cmdInproc(const Args &A) {
  std::vector<DesignIn> Designs;
  if (!readDesignList(A.str("list"), Designs))
    return 66;
  unsigned Jobs = std::max<uint64_t>(1, A.u64("jobs", 1));
  // Eight instances per worker. Workers claim instances off a shared
  // counter, so a worker on a CPU the host has slowed runs fewer of them,
  // and a thread's start-up is spread over more work. With two per
  // worker, the slowest CPU alone set the batch's time.
  unsigned FleetN = 8 * Jobs;
  uint64_t Seed = A.u64("seed", 0);
  std::string OutDir = A.str("out");
  std::string TracePath = A.str("trace");
  T.On = !TracePath.empty();
  if (T.On && OutDir.empty()) {
    fprintf(stderr, "perfbench-runner: --trace needs --out=<dir> for the "
                    "fleet's VCD and checkpoint files\n");
    return 64;
  }
  Checks C;

  // Setup: SV text -> both programs and an engine bound over each, ready
  // to run(), with a cold JIT (a fresh process, no $LLHD_JIT_CACHE).
  std::vector<Prepared> Preps(Designs.size());
  std::map<std::string, Prepared *> ByKey;
  int64_t SetupT0 = nowNs();
  T.Run = "setup";
  T.begin("setup");
  for (size_t I = 0; I != Designs.size(); ++I) {
    Prepared &P = Preps[I];
    P.In = &Designs[I];
    T.Run = "setup/" + P.In->Key;
    P.F = compileSv(*P.In);
    if (!P.F->Error.empty()) {
      C.run(false, P.In->Key + ": " + P.F->Error);
      continue;
    }
    P.InterpProg = buildInterp(*P.F->M, P.F->Top);
    std::string Err;
    P.BlazeProg = buildBlaze(*P.F->M, P.F->Top, JitOn, Err);
    if (!P.InterpProg->ok() || !P.BlazeProg) {
      C.run(false, P.In->Key + ": build failed " + Err);
      continue;
    }
    P.FirstInterp = bindEngine<InterpSim>(P.InterpProg, 0);
    P.FirstBlaze = bindEngine<BlazeSim>(P.BlazeProg, 0);
    ByKey[P.In->Key] = &P;
  }
  T.end();
  printf("{\"setup_s\": %s}\n", num(secondsSince(SetupT0)).c_str());
  fflush(stdout);

  std::string Line;
  while (std::getline(std::cin, Line)) {
    std::istringstream LS(Line);
    std::string Cmd, Key;
    LS >> Cmd >> Key;
    if (Cmd == "end")
      break;
    bool Listed = std::any_of(Designs.begin(), Designs.end(),
                              [&](const DesignIn &D) { return D.Key == Key; });
    if ((Cmd != "sim" && Cmd != "fleet") || !Listed) {
      fprintf(stderr, "perfbench-runner: bad request '%s'\n", Line.c_str());
      return 64;
    }
    // A design whose setup failed (a failed check already) has no runs.
    auto It = ByKey.find(Key);
    std::string Reply =
        It == ByKey.end() ? "{\"skipped\": true}"
        : Cmd == "sim"    ? simPass(*It->second, C)
                          : fleetPass(*It->second, Jobs, FleetN, Seed, C);
    printf("%s\n", Reply.c_str());
    fflush(stdout);
  }

  if (T.On)
    for (Prepared &P : Preps)
      if (P.BlazeProg) {
        T.Run = "extras/" + P.In->Key;
        traceExtras(P, Jobs, 2 * Jobs, Seed, OutDir, C);
      }

  std::string Refs;
  for (const Prepared &P : Preps)
    if (P.HaveRef[0] && P.HaveRef[1])
      Refs += std::string(Refs.empty() ? "" : ", ") + jsonStr(P.In->Key) +
              ": {\"interp\": " + P.Ref[0].json() +
              ", \"blaze\": " + P.Ref[1].json() + "}";
  printf("{\"peak_rss_mb\": %s, \"checks\": %s, \"outcomes\": {%s}}\n",
         num(peakRssMb()).c_str(), C.json().c_str(), Refs.c_str());
  if (T.On && !T.write(TracePath)) {
    fprintf(stderr, "perfbench-runner: cannot write %s\n", TracePath.c_str());
    return 66;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// oneshot
//===----------------------------------------------------------------------===//

/// llhd-sim's single-run path for one design, traced: read, frontend,
/// build, bind, run. Prints the run's outcome like inproc does.
int cmdOneshot(const Args &A) {
  std::string Engine = A.str("engine");
  DesignIn D;
  D.Key = A.str("key");
  D.Top = A.str("top");
  std::string TracePath = A.str("trace");
  T.On = !TracePath.empty();
  T.Run = D.Key;
  if (Engine != "interp" && Engine != "blaze") {
    fprintf(stderr, "perfbench-runner: --engine=interp|blaze\n");
    return 64;
  }
  {
    Span S("io.read");
    if (!readFile(A.str("sv"), D.Sv)) {
      fprintf(stderr, "perfbench-runner: cannot read %s\n",
              A.str("sv").c_str());
      return 66;
    }
  }
  std::unique_ptr<Frontend> F = compileSv(D);
  if (!F->Error.empty()) {
    fprintf(stderr, "perfbench-runner: %s\n", F->Error.c_str());
    return 65;
  }
  std::string Err;
  std::shared_ptr<const LirProgram> Prog =
      Engine == "blaze" ? buildBlaze(*F->M, F->Top, JitOn, Err)
                        : buildInterp(*F->M, F->Top);
  if (!Prog || !Prog->ok()) {
    fprintf(stderr, "perfbench-runner: build failed: %s\n", Err.c_str());
    return 65;
  }
  Outcome O = Engine == "blaze" ? runOnce<BlazeSim>(Prog, 0)
                                : runOnce<InterpSim>(Prog, 0);
  T.count("sim.steps", O.Steps);
  T.count("sim.process_runs", O.ProcessRuns);
  T.count("sim.entity_evals", O.EntityEvals);
  if (T.On && !T.write(TracePath))
    return 66;
  printf("{\"outcome\": %s, \"asserts\": %llu, \"finished\": %s}\n",
         O.json().c_str(), static_cast<unsigned long long>(O.Asserts),
         O.Finished ? "true" : "false");
  return O.Asserts || !O.Finished ? 1 : 0;
}

int cmdContext() {
#ifdef NDEBUG
  const char *Ndebug = "true";
#else
  const char *Ndebug = "false";
#endif
  printf("{\"host_compiler\": %s, \"ndebug\": %s}\n",
         jsonStr(jit::HostCompiler::findCompiler()).c_str(), Ndebug);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    fprintf(stderr,
            "usage: perfbench-runner designs|inproc|oneshot|context "
            "[--flag=value ...]\n");
    return 64;
  }
  std::string Cmd = Argv[1];
  Args A;
  if (!A.parse(Argc, Argv, 2))
    return 64;
  try {
    if (Cmd == "designs")
      return cmdDesigns(A);
    if (Cmd == "inproc")
      return cmdInproc(A);
    if (Cmd == "oneshot")
      return cmdOneshot(A);
    if (Cmd == "context")
      return cmdContext();
  } catch (const std::exception &E) {
    fprintf(stderr, "perfbench-runner: %s\n", E.what());
    return 70;
  }
  fprintf(stderr, "perfbench-runner: unknown command '%s'\n", Cmd.c_str());
  return 64;
}
