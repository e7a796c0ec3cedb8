//===- tests/sim/AllocGuardTest.cpp - Zero-allocation steady state --------===//
//
// Proves the allocation-free runtime value path: a scalar-only design in
// steady state performs zero heap allocations per delta cycle on the op
// path, for both the reference interpreter and the Blaze engine — with
// the trace off, and in Hash mode (the default of llhd-sim and the
// benches), where every change streams into the digest.
//
// Method: the whole test binary's operator new/delete are replaced with
// counting wrappers. A run of N cycles and a run of 2N cycles of the same
// design perform identical setup work (elaboration, frame preallocation,
// pool warm-up), so if the steady-state op path allocates nothing, both
// runs count exactly the same number of allocations — any per-cycle
// allocation would show up N times over.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "blaze/Blaze.h"
#include "sim/Interp.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

static std::atomic<size_t> GNewCount{0};

void *operator new(std::size_t Sz) {
  ++GNewCount;
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Sz) { return ::operator new(Sz); }
void *operator new(std::size_t Sz, std::align_val_t Al) {
  ++GNewCount;
  if (void *P = std::aligned_alloc(static_cast<size_t>(Al),
                                   (Sz + static_cast<size_t>(Al) - 1) &
                                       ~(static_cast<size_t>(Al) - 1)))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Sz, std::align_val_t Al) {
  return ::operator new(Sz, Al);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

using namespace llhd;

namespace {

/// A purely scalar clocked counter: 1 GHz clock generator process plus a
/// rising-edge counter process. No aggregates, no var/alloc cells, no
/// function calls — every value on the op path is a width <= 64 scalar.
const char *CounterSrc = R"(
entity @top () -> () {
  %z1 = const i1 0
  %z32 = const i32 0
  %clk = sig i1 %z1
  %cnt = sig i32 %z32
  inst @clkgen () -> (i1$ %clk)
  inst @counter (i1$ %clk) -> (i32$ %cnt)
}
proc @clkgen () -> (i1$ %clk) {
entry:
  %b0 = const i1 0
  %b1 = const i1 1
  %half = const time 1ns
  br %hi
hi:
  drv i1$ %clk, %b1 after %half
  wait %lo for %half
lo:
  drv i1$ %clk, %b0 after %half
  wait %hi for %half
}
proc @counter (i1$ %clk) -> (i32$ %cnt) {
entry:
  %one = const i32 1
  %d0 = const time 0s
  br %loop
loop:
  wait %tick for %clk
tick:
  %c = prb i1$ %clk
  br %c, %loop, %up
up:
  %v = prb i32$ %cnt
  %vn = add i32 %v, %one
  drv i32$ %cnt, %vn after %d0
  br %loop
}
)";

/// CounterSrc plus a 16-element logic signal that flips on every clock
/// edge (one drive site, so one driver: no multi-driver resolution to
/// X). Its trace text ("16'b0101...") is 20 characters, past any small-
/// string buffer, so a digest that rendered each change into a
/// std::string would allocate on every change.
const char *PatternSrc = R"(
entity @top () -> () {
  %z1 = const i1 0
  %z32 = const i32 0
  %p0 = const l16 "0000000000000000"
  %clk = sig i1 %z1
  %cnt = sig i32 %z32
  %pat = sig l16 %p0
  inst @clkgen () -> (i1$ %clk)
  inst @counter (i1$ %clk) -> (i32$ %cnt)
  inst @pattern (i1$ %clk) -> (l16$ %pat)
}
proc @clkgen () -> (i1$ %clk) {
entry:
  %b0 = const i1 0
  %b1 = const i1 1
  %half = const time 1ns
  br %hi
hi:
  drv i1$ %clk, %b1 after %half
  wait %lo for %half
lo:
  drv i1$ %clk, %b0 after %half
  wait %hi for %half
}
proc @counter (i1$ %clk) -> (i32$ %cnt) {
entry:
  %one = const i32 1
  %d0 = const time 0s
  br %loop
loop:
  wait %tick for %clk
tick:
  %c = prb i1$ %clk
  br %c, %loop, %up
up:
  %v = prb i32$ %cnt
  %vn = add i32 %v, %one
  drv i32$ %cnt, %vn after %d0
  br %loop
}
proc @pattern (i1$ %clk) -> (l16$ %pat) {
entry:
  %pa = const l16 "0101XZ0101HL0101"
  %pb = const l16 "1010ZX1010LH1010"
  %arr = [l16 %pa, %pb]
  %d0 = const time 0s
  br %loop
loop:
  wait %edge for %clk
edge:
  %c = prb i1$ %clk
  %v = mux l16 %arr, %c
  drv l16$ %pat, %v after %d0
  br %loop
}
)";

struct RunResult {
  size_t Allocs;      ///< operator new calls during run().
  uint64_t CountedTo; ///< Final counter signal value.
  uint64_t Changes;   ///< Trace changes recorded.
};

template <typename MakeEngine>
RunResult countRun(const char *Src, uint64_t Cycles, MakeEngine Make) {
  Context Ctx;
  Module M(Ctx, "alloc_guard");
  ParseResult R = parseModule(Src, M);
  EXPECT_TRUE(R.Ok) << R.Error;
  auto Engine = Make(M, Cycles);
  size_t Before = GNewCount.load(std::memory_order_relaxed);
  Engine->run();
  size_t Allocs = GNewCount.load(std::memory_order_relaxed) - Before;
  uint64_t Counted = 0;
  const SignalTable &Sigs = Engine->signals();
  for (SignalId S = 0; S != Sigs.size(); ++S)
    if (Sigs.name(S).find("cnt") != std::string::npos)
      Counted = Sigs.value(S).intValue().zextToU64();
  return {Allocs, Counted, Engine->trace().numChanges()};
}

SimOptions optsFor(uint64_t Cycles, Trace::Mode TM = Trace::Mode::Off) {
  SimOptions Opts;
  Opts.TraceMode = TM;
  Opts.MaxTime = Time::ns(2 * Cycles);
  return Opts;
}

auto makeInterp(Trace::Mode TM) {
  return [TM](Module &M, uint64_t Cycles) {
    return std::make_unique<InterpSim>(elaborate(M, "top"),
                                       optsFor(Cycles, TM));
  };
}

auto makeBlaze(Trace::Mode TM) {
  return [TM](Module &M, uint64_t Cycles) {
    BlazeSim::BlazeOptions Opts;
    static_cast<SimOptions &>(Opts) = optsFor(Cycles, TM);
    return std::make_unique<BlazeSim>(M, "top", Opts);
  };
}

/// Hash mode over PatternSrc: the counter and the logic pattern both
/// change every cycle, and doubling the run must not add an allocation.
template <typename MakeEngine> void expectHashModeAllocationFree(MakeEngine Make) {
  RunResult Short = countRun(PatternSrc, 200, Make);
  RunResult Long = countRun(PatternSrc, 400, Make);
  EXPECT_GE(Short.CountedTo, 190u);
  EXPECT_GE(Long.CountedTo, 390u);
  // Per cycle clk and pat change twice, cnt once.
  EXPECT_GE(Long.Changes, Short.Changes + 5 * 190);
  EXPECT_EQ(Short.Allocs, Long.Allocs);
}

} // namespace

TEST(AllocGuard, InterpSteadyStateIsAllocationFree) {
  RunResult Short = countRun(CounterSrc, 200, makeInterp(Trace::Mode::Off));
  RunResult Long = countRun(CounterSrc, 400, makeInterp(Trace::Mode::Off));
  // The design actually ran and counted.
  EXPECT_GE(Short.CountedTo, 190u);
  EXPECT_GE(Long.CountedTo, 390u);
  // Doubling the cycle count must not add a single allocation: the op
  // path (prb/add/drv/wait plus scheduler and wake index) is
  // allocation-free once the pools are warm.
  EXPECT_EQ(Short.Allocs, Long.Allocs);
}

TEST(AllocGuard, BlazeSteadyStateIsAllocationFree) {
  RunResult Short = countRun(CounterSrc, 200, makeBlaze(Trace::Mode::Off));
  RunResult Long = countRun(CounterSrc, 400, makeBlaze(Trace::Mode::Off));
  EXPECT_GE(Short.CountedTo, 190u);
  EXPECT_GE(Long.CountedTo, 390u);
  EXPECT_EQ(Short.Allocs, Long.Allocs);
}

TEST(AllocGuard, InterpHashTraceIsAllocationFree) {
  expectHashModeAllocationFree(makeInterp(Trace::Mode::Hash));
}

TEST(AllocGuard, BlazeHashTraceIsAllocationFree) {
  expectHashModeAllocationFree(makeBlaze(Trace::Mode::Hash));
}

TEST(AllocGuard, RtValueLayout) {
  static_assert(sizeof(RtValue) <= 32,
                "scalar RtValue must stay within 32 bytes");
  // Scalar construction and copying perform no allocation.
  size_t Before = GNewCount.load(std::memory_order_relaxed);
  RtValue A{IntValue(64, ~0ull)};
  RtValue B = A;
  RtValue C{LogicVec(16, Logic::L1)};
  RtValue D = C;
  RtValue E{Time::ns(5)};
  SigRef Whole;
  Whole.Sig = 3;
  RtValue F{Whole};
  RtValue G = F;
  EXPECT_EQ(GNewCount.load(std::memory_order_relaxed), Before);
  EXPECT_EQ(A, B);
  EXPECT_EQ(C, D);
  EXPECT_EQ(F.sigId(), 3u);
  (void)E;
  (void)G;
}
