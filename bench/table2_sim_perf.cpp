//===- bench/table2_sim_perf.cpp - Table 2: simulation performance ---------===//
//
// Regenerates Table 2: for each of the ten designs, the SystemVerilog
// LoC, the simulated cycle count, and the runtime of the three engines —
// Int. (LLHD-Sim reference interpreter), JIT (LLHD-Blaze: optimised,
// native code where the JIT admits a process), Comm. (CommSim closure
// engine, the commercial-simulator stand-in). Traces are verified equal
// across engines, reproducing the paper's "traces match between the two
// simulators for all designs".
//
// Cycle counts default to 1/1000 of the paper's (pass --scale=1 for the
// full counts; the interpreter column then takes hours, as in the paper).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "moore/Compiler.h"
#include "sim/Batch.h"
#include "sim/Interp.h"
#include "sim/Wave.h"
#include "vsim/CommSim.h"

#include <thread>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace llhd;
using namespace llhd_bench;

namespace {

/// One design's measurements for the machine-readable dump.
struct Row {
  std::string Name;
  uint64_t Cycles;
  double IntS, JitS, CommS;
  double CkptS;     ///< Interp runtime with periodic checkpointing on.
  double CompileMs; ///< Blaze elaborate+codegen+host-compile wall time.
  bool TracesMatch;
  /// --batch columns (0 when the mode is off): wall seconds for N
  /// instances run sequentially (jobs=1) vs on the worker pool, over
  /// one shared program each.
  double BatchSeqS = 0, BatchPoolS = 0;
};

/// Per-engine geometric means in ns/cycle.
struct Geomeans {
  double Int = 0, Jit = 0, Comm = 0;
  bool Ok = false;
};

double nsPerCycleOf(double Sec, uint64_t Cycles) {
  return Cycles ? Sec * 1e9 / (double)Cycles : 0.0;
}

Geomeans geomeansOf(const std::vector<Row> &Rows) {
  Geomeans G;
  double LInt = 0, LJit = 0, LComm = 0;
  for (const Row &R : Rows) {
    LInt += std::log(nsPerCycleOf(R.IntS, R.Cycles));
    LJit += std::log(nsPerCycleOf(R.JitS, R.Cycles));
    LComm += std::log(nsPerCycleOf(R.CommS, R.Cycles));
  }
  size_t N = Rows.empty() ? 1 : Rows.size();
  G.Int = std::exp(LInt / N);
  G.Jit = std::exp(LJit / N);
  G.Comm = std::exp(LComm / N);
  G.Ok = !Rows.empty();
  return G;
}

/// Reads the geomean line out of a BENCH_sim.json. The last occurrence
/// wins: committed files may carry a historical baseline section before
/// the current numbers.
Geomeans parseGeomeans(const std::string &Path) {
  Geomeans G;
  FILE *F = fopen(Path.c_str(), "r");
  if (!F)
    return G;
  std::string Text;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  fclose(F);
  const char *Key = "\"geomean_ns_per_cycle\"";
  size_t Pos = Text.rfind(Key);
  if (Pos == std::string::npos)
    return G;
  G.Ok = sscanf(Text.c_str() + Pos,
                "\"geomean_ns_per_cycle\": {\"interp\": %lf, \"blaze\": "
                "%lf, \"comm\": %lf",
                &G.Int, &G.Jit, &G.Comm) == 3 &&
         G.Int > 0 && G.Jit > 0 && G.Comm > 0;
  return G;
}

/// The perf gate: compares fresh interp/blaze geomeans against the
/// committed baseline, each normalised by its own comm geomean so the
/// comparison is robust to absolute machine speed (comm is the on-host
/// reference engine). Fails on a >Tol relative regression.
int runGate(const std::vector<Row> &Rows, const std::string &GatePath,
            double Tol) {
  Geomeans Fresh = geomeansOf(Rows);
  Geomeans Base = parseGeomeans(GatePath);
  if (!Fresh.Ok || !Base.Ok) {
    fprintf(stderr, "perf gate: cannot read baseline geomeans from %s\n",
            GatePath.c_str());
    return 1;
  }
  double FInt = Fresh.Int / Fresh.Comm, BInt = Base.Int / Base.Comm;
  double FJit = Fresh.Jit / Fresh.Comm, BJit = Base.Jit / Base.Comm;
  printf("\nPerf gate vs %s (tolerance %.0f%%, comm-normalised):\n",
         GatePath.c_str(), Tol * 100);
  printf("  interp: %.3f vs baseline %.3f (%+.1f%%)\n", FInt, BInt,
         (FInt / BInt - 1) * 100);
  printf("  blaze:  %.3f vs baseline %.3f (%+.1f%%)\n", FJit, BJit,
         (FJit / BJit - 1) * 100);
  bool Fail = FInt > BInt * (1 + Tol) || FJit > BJit * (1 + Tol);
  for (const Row &R : Rows)
    Fail |= !R.TracesMatch;
  printf("  gate: %s\n", Fail ? "FAIL" : "ok");
  return Fail ? 2 : 0;
}

/// Writes per-engine ns/cycle (and geometric means) as JSON so future
/// PRs can diff simulation performance mechanically. \p BatchN non-zero
/// adds the --batch throughput block (aggregate cycles/sec, sequential
/// and pooled, plus the scaling ratio).
void writeJson(const std::string &Path, double Scale,
               const std::vector<Row> &Rows, unsigned BatchN) {
  FILE *F = fopen(Path.c_str(), "w");
  if (!F) {
    fprintf(stderr, "cannot write %s\n", Path.c_str());
    return;
  }
  auto nsPerCycle = [](double Sec, uint64_t Cycles) {
    return Cycles ? Sec * 1e9 / (double)Cycles : 0.0;
  };
  double GInt = 0, GJit = 0, GComm = 0, GCkpt = 0, SumCompile = 0;
  fprintf(F, "{\n  \"bench\": \"table2_sim_perf\",\n");
  fprintf(F, "  \"scale\": %g,\n  \"designs\": [\n", Scale);
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Row &R = Rows[I];
    double NInt = nsPerCycle(R.IntS, R.Cycles),
           NJit = nsPerCycle(R.JitS, R.Cycles),
           NComm = nsPerCycle(R.CommS, R.Cycles);
    double Ckpt = R.IntS > 0 ? R.CkptS / R.IntS : 1.0;
    GInt += std::log(NInt);
    GJit += std::log(NJit);
    GComm += std::log(NComm);
    GCkpt += std::log(Ckpt);
    SumCompile += R.CompileMs;
    fprintf(F,
            "    {\"name\": \"%s\", \"cycles\": %llu, "
            "\"interp_ns_per_cycle\": %.1f, \"blaze_ns_per_cycle\": %.1f, "
            "\"comm_ns_per_cycle\": %.1f, \"blaze_compile_ms\": %.1f, "
            "\"checkpoint_overhead\": %.3f, \"traces_match\": %s}%s\n",
            R.Name.c_str(), (unsigned long long)R.Cycles, NInt, NJit,
            NComm, R.CompileMs, Ckpt, R.TracesMatch ? "true" : "false",
            I + 1 != Rows.size() ? "," : "");
  }
  size_t N = Rows.empty() ? 1 : Rows.size();
  if (BatchN) {
    // Aggregate fleet throughput: total simulated cycles per wall
    // second across the whole suite, sequential loop vs worker pool
    // over the same shared programs. scaling = seq/pool (1.0 on one
    // core; approaches the core count on a parallel runner).
    double SeqS = 0, PoolS = 0;
    uint64_t FleetCycles = 0;
    for (const Row &R : Rows) {
      SeqS += R.BatchSeqS;
      PoolS += R.BatchPoolS;
      FleetCycles += BatchN * R.Cycles;
    }
    fprintf(F,
            "  ],\n  \"batch\": {\"n\": %u, \"jobs\": %u, "
            "\"seq_cycles_per_sec\": %.0f, \"pool_cycles_per_sec\": %.0f, "
            "\"scaling\": %.2f},\n  \"geomean_ns_per_cycle\": ",
            BatchN, std::thread::hardware_concurrency(),
            SeqS > 0 ? FleetCycles / SeqS : 0.0,
            PoolS > 0 ? FleetCycles / PoolS : 0.0,
            PoolS > 0 ? SeqS / PoolS : 0.0);
  } else {
    fprintf(F, "  ],\n  \"geomean_ns_per_cycle\": ");
  }
  // New fields must stay behind "comm": parseGeomeans() scans this line
  // with a fixed prefix.
  fprintf(F,
          "{\"interp\": %.1f, \"blaze\": %.1f, \"comm\": %.1f, "
          "\"blaze_compile_ms_total\": %.1f, "
          "\"checkpoint_overhead_geomean\": %.3f}\n}\n",
          std::exp(GInt / N), std::exp(GJit / N), std::exp(GComm / N),
          SumCompile, std::exp(GCkpt / N));
  fclose(F);
  printf("wrote %s\n", Path.c_str());
}

const char *Usage = R"(usage: table2_sim_perf [options]

  --scale=<x>      cycle counts as a fraction of the paper's
                   (default 0.001)
  --reps=<n>       simulate every design n times per engine and
                   keep the fastest run (default 1)
  --no-verify      skip the cross-engine trace check
  --no-jit         run Blaze without native code (ablation)
  --batch[=<n>]    also time n-instance fleets (n defaults to 8)
  --vcd-dir=<dir>  dump and cross-check waveforms; the timings
                   then include tracing
  --json=<file>    write the results as JSON; nothing is written
                   without it
  --gate=<file>    fail (exit 2) if the geomeans regress against
                   a committed BENCH_sim.json
  --gate-tol=<x>   the gate's tolerance (default 0.05)
  --help           print this and exit
)";

} // namespace

int main(int argc, char **argv) {
  int Exit = checkArgs(argc, argv, Usage,
                       {"scale=#", "reps=#", "no-verify", "no-jit", "json=",
                        "batch", "batch=#", "vcd-dir=", "gate=",
                        "gate-tol=#"});
  if (Exit >= 0)
    return Exit;
  double Scale = argFloat(argc, argv, "scale", 0.001);
  unsigned Reps =
      std::max(1u, (unsigned)argFloat(argc, argv, "reps", 1));
  bool Verify = !argFlag(argc, argv, "no-verify");
  // --no-jit: ablation switch, runs Blaze through the LIR interpreter
  // instead of native code (the pre-JIT configuration).
  bool NoJit = argFlag(argc, argv, "no-jit");
  std::string JsonPath = argStr(argc, argv, "json", "");
  // --batch[=N]: also measure fleet throughput — N instances per design
  // over one shared program, sequential loop vs worker pool.
  unsigned BatchN = (unsigned)argFloat(argc, argv, "batch",
                                       argFlag(argc, argv, "batch") ? 8 : 0);
  // Optional waveform dump: attaches the VCD observer to every timed
  // run (so the numbers then include tracing overhead), cross-checks
  // that all three engines emit byte-identical dumps, and writes the
  // interpreter's to <dir>/<design>.vcd.
  std::string VcdDir = argStr(argc, argv, "vcd-dir", "");
  std::vector<Row> Rows;

  printf("Table 2: Simulation performance of LLHD (scale=%g of paper "
         "cycle counts)\n",
         Scale);
  printf("Engines: Int. = LLHD-Sim reference interpreter, JIT = "
         "LLHD-Blaze%s, Comm. = CommSim stand-in\n\n",
         NoJit ? " (native codegen OFF, --no-jit)" : "");
  printf("%-16s %5s %10s %12s %12s %12s %9s %8s %7s %8s\n", "Design",
         "LoC", "Cycles", "Int. [s]", "JIT [s]", "Comm. [s]", "Comp.[ms]",
         "Int/JIT", "JIT/Comm", "Ckpt[%]");

  for (const designs::DesignInfo &D : designs::allDesigns(Scale)) {
    Context Ctx;
    Module M1(Ctx, "int"), M2(Ctx, "jit"), M3(Ctx, "comm");
    auto R1 = moore::compileSystemVerilog(D.Source, D.TopModule, M1);
    auto R2 = moore::compileSystemVerilog(D.Source, D.TopModule, M2);
    auto R3 = moore::compileSystemVerilog(D.Source, D.TopModule, M3);
    if (!R1.Ok || !R2.Ok || !R3.Ok) {
      printf("%-16s COMPILE ERROR: %s\n", D.PaperName.c_str(),
             R1.Error.c_str());
      continue;
    }

    SimOptions Opts;
    Opts.TraceMode = Verify ? Trace::Mode::Hash : Trace::Mode::Off;
    bool DumpVcd = !VcdDir.empty();

    // With --reps=N each engine simulates the design N times and the
    // minimum runtime counts — the noise-robust estimator the perf
    // gate relies on. Trace/VCD comparisons use the last repetition
    // (the digests are identical across reps by determinism).
    double TInt = 1e300, TJit = 1e300, TComm = 1e300, TCkpt = 1e300;
    double CompileMs = 0;
    SimStats S1, S2, S3;
    std::unique_ptr<InterpSim> Int;
    std::unique_ptr<BlazeSim> Jit;
    std::unique_ptr<CommSim> Comm;
    WaveWriter WInt, WJit, WComm;
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      bool LastRep = Rep + 1 == Reps;
      Design Dn = elaborate(M1, R1.TopUnit);
      Opts.Wave = DumpVcd && LastRep ? &WInt : nullptr;
      Int = std::make_unique<InterpSim>(std::move(Dn), Opts);
      TInt = std::min(TInt, timeIt([&] { S1 = Int->run(); }));

      BlazeSim::BlazeOptions BOpts;
      static_cast<SimOptions &>(BOpts) = Opts;
      BOpts.Wave = DumpVcd && LastRep ? &WJit : nullptr;
      if (NoJit)
        BOpts.Jit.M = jit::JitOptions::Mode::Off;
      // Blaze's compile time (optimise + elaborate + codegen + host
      // compile) all happens in the constructor. The first rep is the
      // honest number; later reps hit the source-hash object cache.
      double TBuild = timeIt(
          [&] { Jit = std::make_unique<BlazeSim>(M2, R2.TopUnit, BOpts); });
      if (Rep == 0)
        CompileMs = TBuild * 1e3;
      TJit = std::min(TJit, timeIt([&] { S2 = Jit->run(); }));

      Opts.Wave = DumpVcd && LastRep ? &WComm : nullptr;
      Comm = std::make_unique<CommSim>(M3, R3.TopUnit, Opts);
      TComm = std::min(TComm, timeIt([&] { S3 = Comm->run(); }));

      // Checkpoint overhead: the interpreter again, serializing the full
      // runtime state into an in-memory buffer eight times over the run.
      // The table reports the cost relative to the plain Int. column.
      SimOptions CkOpts = Opts;
      CkOpts.Wave = nullptr;
      CkOpts.RC.CheckpointEveryFs = std::max<uint64_t>(S1.EndTime.Fs / 8, 1);
      Design CkDn = elaborate(M1, R1.TopUnit);
      auto Ck = std::make_unique<InterpSim>(std::move(CkDn), CkOpts);
      std::vector<uint8_t> Image;
      Ck->options().RC.Checkpoint = [&Ck, &Image](Time) {
        Image.clear();
        Ck->checkpoint(Image);
        return true;
      };
      TCkpt = std::min(TCkpt, timeIt([&] { Ck->run(); }));
    }

    // --batch: N instances of the shared program, once sequentially
    // (jobs=1 — the compile-amortized baseline a naive loop would pay)
    // and once on the worker pool (jobs = hardware threads). Both use
    // the Blaze engine with its one-time JIT compile; only the run
    // phase is timed, so the column isolates the fleet's scaling.
    double TBatchSeq = 0, TBatchPool = 0;
    if (BatchN) {
      auto runFleet = [&](unsigned Jobs) {
        BatchOptions BO;
        BO.N = BatchN;
        BO.Jobs = Jobs;
        BO.Engine = "blaze";
        BO.Base.TraceMode = Opts.TraceMode;
        BatchResult BR = runBatch(M2, R2.TopUnit, BO);
        if (!BR.Ok)
          printf("%-16s batch error: %s\n", D.PaperName.c_str(),
                 BR.Error.c_str());
        return BR.Ok ? BR.RunSeconds : 0.0;
      };
      TBatchSeq = 1e300;
      TBatchPool = 1e300;
      for (unsigned Rep = 0; Rep != Reps; ++Rep) {
        TBatchSeq = std::min(TBatchSeq, runFleet(1));
        TBatchPool = std::min(TBatchPool, runFleet(0));
      }
    }

    const char *Status = "";
    bool Match = true;
    if (S1.AssertFailures || S2.AssertFailures || S3.AssertFailures) {
      Status = "  ASSERTS FAILED";
      Match = false;
    } else if (Verify &&
               (Int->trace().digest() != Jit->trace().digest() ||
                Int->trace().digest() != Comm->trace().digest())) {
      Status = "  TRACE MISMATCH";
      Match = false;
    } else if (DumpVcd && (WInt.text() != WJit.text() ||
                           WInt.text() != WComm.text())) {
      Status = "  VCD MISMATCH";
      Match = false;
    } else if (Verify) {
      Status = "  traces match";
    }
    if (DumpVcd &&
        !WInt.writeToFile(VcdDir + "/" + D.Key + ".vcd"))
      printf("%-16s cannot write %s/%s.vcd\n", "", VcdDir.c_str(),
             D.Key.c_str());
    Rows.push_back({D.PaperName, D.Iterations, TInt, TJit, TComm, TCkpt,
                    CompileMs, Match, TBatchSeq, TBatchPool});

    printf("%-16s %5u %10llu %12.3f %12.3f %12.3f %9.1f %8.1f %7.2f "
           "%7.1f%%%s\n",
           D.PaperName.c_str(), locOf(D.Source),
           static_cast<unsigned long long>(D.Iterations), TInt, TJit,
           TComm, CompileMs, TJit > 0 ? TInt / TJit : 0.0,
           TComm > 0 ? TJit / TComm : 0.0,
           TInt > 0 ? (TCkpt / TInt - 1) * 100 : 0.0, Status);
  }
  if (BatchN) {
    double SeqS = 0, PoolS = 0;
    uint64_t FleetCycles = 0;
    printf("\nBatch fleet (N=%u per design, Blaze, compile once; "
           "%u hardware threads):\n",
           BatchN, std::thread::hardware_concurrency());
    printf("%-16s %12s %12s %8s\n", "Design", "Seq [s]", "Pool [s]",
           "Scaling");
    for (const Row &R : Rows) {
      printf("%-16s %12.3f %12.3f %7.2fx\n", R.Name.c_str(), R.BatchSeqS,
             R.BatchPoolS,
             R.BatchPoolS > 0 ? R.BatchSeqS / R.BatchPoolS : 0.0);
      SeqS += R.BatchSeqS;
      PoolS += R.BatchPoolS;
      FleetCycles += BatchN * R.Cycles;
    }
    printf("aggregate: %.0f cycles/s sequential, %.0f cycles/s pooled, "
           "scaling %.2fx\n",
           SeqS > 0 ? FleetCycles / SeqS : 0.0,
           PoolS > 0 ? FleetCycles / PoolS : 0.0,
           PoolS > 0 ? SeqS / PoolS : 0.0);
  }
  if (!JsonPath.empty())
    writeJson(JsonPath, Scale, Rows, BatchN);
  std::string GatePath = argStr(argc, argv, "gate", "");
  if (!GatePath.empty())
    return runGate(Rows, GatePath, argFloat(argc, argv, "gate-tol", 0.05));
  return 0;
}
