//===- bench/micro_ops.cpp - google-benchmark microbenchmarks ----------------===//
//
// Microbenchmarks of the hot primitives underneath the Table 2 numbers:
// IntValue arithmetic, assembly parsing, bitcode round trips, and one
// full simulation step of the accumulator on each engine.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "asm/Printer.h"
#include "bitcode/Bitcode.h"
#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "moore/Compiler.h"
#include "sim/Interp.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>

using namespace llhd;

namespace {

//===----------------------------------------------------------------------===//
// Scheduler baseline: the pre-refactor kernel data structures, kept here
// so the old-vs-new wheel win stays measurable.
//===----------------------------------------------------------------------===//

/// The retired std::map event wheel (one red-black-tree node per distinct
/// time, allocated and freed per slot). Scalar drives travel as full
/// SigUpdates (SigRef + RtValue), the form they had before the kernel's
/// word records.
class LegacyMapWheel {
public:
  void scheduleWord(Time T, SignalId Sig, unsigned Width, uint64_t Word,
                    uint64_t Driver) {
    SigRef Ref;
    Ref.Sig = Sig;
    Queue[T].Updates.push_back(
        {std::move(Ref), RtValue(IntValue(Width, Word)), Driver});
  }
  void scheduleWake(Time T, ProcWake W) { Queue[T].Wakes.push_back(W); }
  bool empty() const { return Queue.empty(); }
  Time nextTime() const { return Queue.begin()->first; }
  /// Pops the earliest slot; returns its event count.
  size_t pop() {
    auto It = Queue.begin();
    Updates = std::move(It->second.Updates);
    Wakes = std::move(It->second.Wakes);
    Queue.erase(It);
    return Updates.size() + Wakes.size();
  }

private:
  struct Slot {
    std::vector<SigUpdate> Updates;
    std::vector<ProcWake> Wakes;
  };
  std::map<Time, Slot> Queue;
  std::vector<SigUpdate> Updates;
  std::vector<ProcWake> Wakes;
};

/// The kernel's two-lane wheel with word records, popped the way the
/// event loop pops it.
class TwoLaneWheel {
public:
  void scheduleWord(Time T, SignalId Sig, unsigned Width, uint64_t Word,
                    uint64_t Driver) {
    S.scheduleWord(T, Sig, Width, Word, Driver);
  }
  void scheduleWake(Time T, ProcWake W) { S.scheduleWake(T, W); }
  bool empty() const { return S.empty(); }
  Time nextTime() const { return S.nextTime(); }
  size_t pop() {
    S.pop(Ev);
    return Ev.Recs.size() + Ev.Wakes.size();
  }

private:
  Scheduler S;
  SlotEvents Ev;
};

/// The schedule/pop workload: per simulated slot, a burst of next-delta
/// events (the dominant traffic) plus a few future-time events, then a
/// drain of the earliest slot — the steady-state rhythm of the event
/// loop.
template <typename Wheel> uint64_t runWheelWorkload(unsigned Slots) {
  Wheel W;
  uint64_t Popped = 0;
  Time Now;
  for (unsigned I = 0; I != Slots; ++I) {
    // The dominant traffic: a burst of events on the next delta — wakes
    // and one scalar (i32, whole-signal) drive.
    for (unsigned J = 0; J != 8; ++J)
      W.scheduleWake(driveTarget(Now, Time()), {J, I});
    W.scheduleWord(driveTarget(Now, Time()), 0, 32, I, 1);
    for (unsigned J = 0; J != 4; ++J) // Spread-out future instants.
      W.scheduleWake(Now.advance(Time::ns(1 + (I * 7 + J * 41) % 97)),
                     {J, I});
    Now = W.nextTime();
    Popped += W.pop();
  }
  while (!W.empty())
    Popped += W.pop();
  return Popped;
}

/// Wake-set parameters: P processes, each waiting on K of N signals.
constexpr unsigned WakeProcs = 256;
constexpr unsigned WakeSignals = 1024;
constexpr unsigned WakeSensPerProc = 4;

std::vector<std::vector<SignalId>> wakeSensitivities() {
  std::vector<std::vector<SignalId>> Sens(WakeProcs);
  for (unsigned P = 0; P != WakeProcs; ++P)
    for (unsigned K = 0; K != WakeSensPerProc; ++K)
      Sens[P].push_back((P * 37 + K * 131) % WakeSignals);
  return Sens;
}

} // namespace

static void BM_IntValueAdd64(benchmark::State &State) {
  IntValue A(64, 0x123456789abcdef0ull), B(64, 42);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.add(B));
}
BENCHMARK(BM_IntValueAdd64);

static void BM_IntValueMul128(benchmark::State &State) {
  IntValue A(128, {0x123456789abcdef0ull, 0x0fedcba987654321ull});
  IntValue B(128, 12345);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.mul(B));
}
BENCHMARK(BM_IntValueMul128);

static void BM_IntValueUdiv128(benchmark::State &State) {
  IntValue A(128, {0x123456789abcdef0ull, 0x0fedcba987654321ull});
  IntValue B(128, 1000000007);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.udiv(B));
}
BENCHMARK(BM_IntValueUdiv128);

static void BM_WheelScheduleDrainLegacyMap(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(runWheelWorkload<LegacyMapWheel>(4096));
  State.SetItemsProcessed(State.iterations() * 4096 * 13);
}
BENCHMARK(BM_WheelScheduleDrainLegacyMap);

static void BM_WheelScheduleDrainTwoLane(benchmark::State &State) {
  for (auto _ : State)
    benchmark::DoNotOptimize(runWheelWorkload<TwoLaneWheel>(4096));
  State.SetItemsProcessed(State.iterations() * 4096 * 13);
}
BENCHMARK(BM_WheelScheduleDrainTwoLane);

static void BM_WakeSetLinearScan(benchmark::State &State) {
  // The retired wake-set computation: for each changed signal, scan all
  // processes and search each sensitivity list.
  auto Sens = wakeSensitivities();
  std::vector<uint32_t> Out;
  SignalId Changed = 0;
  for (auto _ : State) {
    Out.clear();
    for (uint32_t P = 0; P != WakeProcs; ++P)
      if (std::find(Sens[P].begin(), Sens[P].end(), Changed) !=
          Sens[P].end())
        Out.push_back(P);
    benchmark::DoNotOptimize(Out.data());
    Changed = (Changed + 1) % WakeSignals;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_WakeSetLinearScan);

static void BM_WakeSetDenseIndex(benchmark::State &State) {
  // The dense reverse index: one lookup per changed signal.
  auto Sens = wakeSensitivities();
  std::vector<uint64_t> Gens(WakeProcs, 1);
  WakeIndex W;
  W.resize(WakeSignals);
  for (uint32_t P = 0; P != WakeProcs; ++P)
    W.watch(P, Gens[P], Sens[P]);
  auto CurGen = [&Gens](uint32_t P) { return Gens[P]; };
  std::vector<uint32_t> Out;
  SignalId Changed = 0;
  for (auto _ : State) {
    Out.clear();
    W.collect(Changed, CurGen, Out);
    benchmark::DoNotOptimize(Out.data());
    Changed = (Changed + 1) % WakeSignals;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_WakeSetDenseIndex);

static void BM_MooreCompileGray(benchmark::State &State) {
  designs::DesignInfo D = designs::designByKey("gray", 0.0);
  for (auto _ : State) {
    Context Ctx;
    Module M(Ctx, "t");
    auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M);
    benchmark::DoNotOptimize(R.Ok);
  }
}
BENCHMARK(BM_MooreCompileGray);

static void BM_AsmRoundTripGray(benchmark::State &State) {
  designs::DesignInfo D = designs::designByKey("gray", 0.0);
  Context Ctx;
  Module M(Ctx, "t");
  (void)moore::compileSystemVerilog(D.Source, D.TopModule, M);
  std::string Text = printModule(M);
  for (auto _ : State) {
    Context C2;
    Module M2(C2, "u");
    benchmark::DoNotOptimize(parseModule(Text, M2).Ok);
  }
}
BENCHMARK(BM_AsmRoundTripGray);

static void BM_BitcodeWriteGray(benchmark::State &State) {
  designs::DesignInfo D = designs::designByKey("gray", 0.0);
  Context Ctx;
  Module M(Ctx, "t");
  (void)moore::compileSystemVerilog(D.Source, D.TopModule, M);
  for (auto _ : State)
    benchmark::DoNotOptimize(writeBitcode(M));
}
BENCHMARK(BM_BitcodeWriteGray);

static void BM_InterpLfsr(benchmark::State &State) {
  designs::DesignInfo D = designs::designByKey("lfsr", 0.0);
  for (auto _ : State) {
    Context Ctx;
    Module M(Ctx, "t");
    auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M);
    SimOptions O;
    O.TraceMode = Trace::Mode::Off;
    InterpSim Sim(elaborate(M, R.TopUnit), O);
    benchmark::DoNotOptimize(Sim.run().Steps);
  }
}
BENCHMARK(BM_InterpLfsr)->Unit(benchmark::kMillisecond);

static void BM_BlazeLfsr(benchmark::State &State) {
  designs::DesignInfo D = designs::designByKey("lfsr", 0.0);
  for (auto _ : State) {
    Context Ctx;
    Module M(Ctx, "t");
    auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M);
    BlazeSim::BlazeOptions O;
    O.TraceMode = Trace::Mode::Off;
    BlazeSim Sim(M, R.TopUnit, O);
    benchmark::DoNotOptimize(Sim.run().Steps);
  }
}
BENCHMARK(BM_BlazeLfsr)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
