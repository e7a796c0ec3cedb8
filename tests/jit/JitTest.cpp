//===- tests/jit/JitTest.cpp - Blaze native codegen tests -----------------===//
//
// The Blaze JIT (src/jit/): native code must be byte-for-byte
// trace-equivalent with the reference interpreter across the whole
// designs suite, at integer width boundaries through the generated
// code, through native function calls, and in mixed native/deopt
// designs. The fallback paths — no host compiler, failing compiler,
// unwritable temp dir — must degrade to the interpreter without
// breaking a single simulation.
//
//===----------------------------------------------------------------------===//

#include "asm/Parser.h"
#include "blaze/Blaze.h"
#include "designs/Designs.h"
#include "jit/HostCompiler.h"
#include "moore/Compiler.h"
#include "sim/Interp.h"

#include "../common/TestDesigns.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

using namespace llhd;

namespace {

struct JitTest : public ::testing::Test {
  Context Ctx;

  Module *parseFresh(const std::string &Src, const std::string &Name) {
    auto *M = new Module(Ctx, Name); // Leaked into the test; fine.
    ParseResult R = parseModule(Src, *M);
    EXPECT_TRUE(R.Ok) << R.Error;
    return M;
  }

  /// Interpreter trace digest for \p Src.
  uint64_t interpDigest(const std::string &Src, const char *Top) {
    Module *M = parseFresh(Src, std::string(Top) + ".ref");
    Design D = elaborate(*M, Top);
    EXPECT_TRUE(D.ok()) << D.Error;
    InterpSim Ref(std::move(D));
    Ref.run();
    return Ref.trace().digest();
  }

  /// Runs \p Src on Blaze with \p Mode (and the \p ForceDeopt knob)
  /// and returns the simulator for digest/stats inspection; the run's
  /// stats land in \p Stats when given.
  std::unique_ptr<BlazeSim> runBlaze(const std::string &Src,
                                     const char *Top,
                                     jit::JitOptions::Mode Mode,
                                     const std::string &ForceDeopt = "",
                                     SimStats *Stats = nullptr) {
    Module *M = parseFresh(Src, std::string(Top) + ".blz");
    BlazeSim::BlazeOptions O;
    O.Jit.M = Mode;
    O.Jit.ForceDeopt = ForceDeopt;
    auto B = std::make_unique<BlazeSim>(*M, Top, O);
    EXPECT_TRUE(B->valid()) << B->error();
    SimStats St = B->run();
    if (Stats)
      *Stats = St;
    return B;
  }

  /// Runs \p Src on Blaze with the JIT on, off and force-deopted: each
  /// run must reproduce the interpreter's digest and assertion count.
  /// Returns the JIT-on engine, its run's stats in \p OnStats.
  std::unique_ptr<BlazeSim> runAgainstOracle(const char *Src,
                                             const char *Top,
                                             SimStats &OnStats) {
    Module *M = parseFresh(Src, std::string(Top) + ".ref");
    Design D = elaborate(*M, Top);
    EXPECT_TRUE(D.ok()) << D.Error;
    InterpSim Ref(std::move(D));
    SimStats RefSt = Ref.run();
    SimStats OffSt, DeoptSt;
    auto On = runBlaze(Src, Top, jit::JitOptions::Mode::On, "", &OnStats);
    auto Off = runBlaze(Src, Top, jit::JitOptions::Mode::Off, "", &OffSt);
    auto Forced =
        runBlaze(Src, Top, jit::JitOptions::Mode::On, "*", &DeoptSt);
    EXPECT_EQ(Forced->jitStats().NativeUnits, 0u) << Top;
    for (auto [B, St] : {std::pair{On.get(), OnStats},
                         std::pair{Off.get(), OffSt},
                         std::pair{Forced.get(), DeoptSt}}) {
      EXPECT_EQ(B->trace().digest(), Ref.trace().digest()) << Top;
      EXPECT_EQ(St.AssertFailures, RefSt.AssertFailures) << Top;
    }
    return On;
  }
};

/// A two-process design parameterised on integer width: a stimulus
/// process counting in an iW var, and a combinational process running
/// xor/add through width-W lanes. \p Salt makes the generated source
/// unique so fallback tests cannot hit the host compiler's
/// source-hash object cache.
std::string widthDesign(unsigned W, unsigned Salt = 0) {
  std::string Wi = "i" + std::to_string(W);
  std::string Src;
  Src += "entity @wtop () -> () {\n";
  Src += "  %z = const " + Wi + " 0\n";
  Src += "  %a = sig " + Wi + "$ %z\n";
  Src += "  %o = sig " + Wi + "$ %z\n";
  Src += "  inst @wstim () -> (" + Wi + "$ %a)\n";
  Src += "  inst @wcomb (" + Wi + "$ %a) -> (" + Wi + "$ %o)\n";
  Src += "}\n";
  Src += "proc @wstim () -> (" + Wi + "$ %a) {\n";
  Src += "entry:\n";
  Src += "  %c0 = const i32 0\n";
  Src += "  %c1 = const i32 1\n";
  Src += "  %lim = const i32 " + std::to_string(9 + Salt) + "\n";
  Src += "  %zw = const " + Wi + " 0\n";
  Src += "  %onew = const " + Wi + " 1\n";
  Src += "  %t1 = const time 1ns\n";
  Src += "  %i = var i32 %c0\n";
  Src += "  %vw = var " + Wi + " %zw\n";
  Src += "  br %loop\n";
  Src += "loop:\n";
  Src += "  %av = ld " + Wi + "* %vw\n";
  Src += "  %nv = add " + Wi + " %av, %onew\n";
  Src += "  st " + Wi + "* %vw, %nv\n";
  Src += "  drv " + Wi + "$ %a, %nv after %t1\n";
  Src += "  wait %next for %t1\n";
  Src += "next:\n";
  Src += "  %ip = ld i32* %i\n";
  Src += "  %in = add i32 %ip, %c1\n";
  Src += "  st i32* %i, %in\n";
  Src += "  %cont = ult i32 %in, %lim\n";
  Src += "  br %cont, %end, %loop\n";
  Src += "end:\n";
  Src += "  halt\n";
  Src += "}\n";
  Src += "proc @wcomb (" + Wi + "$ %a) -> (" + Wi + "$ %o) {\n";
  Src += "entry:\n";
  Src += "  %av = prb " + Wi + "$ %a\n";
  Src += "  %one = const " + Wi + " 1\n";
  Src += "  %x = xor " + Wi + " %av, %one\n";
  Src += "  %s = add " + Wi + " %x, %one\n";
  Src += "  %t0 = const time 0s\n";
  Src += "  drv " + Wi + "$ %o, %s after %t0\n";
  Src += "  wait %entry for %a\n";
  Src += "}\n";
  return Src;
}

struct EnvGuard {
  std::string Name;
  EnvGuard(const char *N, const char *Value) : Name(N) {
    setenv(N, Value, /*overwrite=*/1);
  }
  ~EnvGuard() { unsetenv(Name.c_str()); }
};

//===----------------------------------------------------------------------===//
// Equivalence
//===----------------------------------------------------------------------===//

// The whole Table 2 suite, Blaze native code vs the reference
// interpreter, byte-for-byte — and every process must run native (the
// LZC testbench reaches that only through a native function call).
// Every design compiles afresh (no on-disk cache), and the host
// compiler prints nothing: a warning would land ahead of the real error
// in a failure's diagnostics.
TEST_F(JitTest, SuiteDigestsMatchNative) {
  EnvGuard NoDiskCache("LLHD_JIT_CACHE", "");
  unsigned TotalNative = 0;
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context C;
    Module M1(C, "ref"), M2(C, "blz");
    auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M1);
    ASSERT_TRUE(R.Ok) << D.Key << ": " << R.Error;
    ASSERT_TRUE(
        moore::compileSystemVerilog(D.Source, D.TopModule, M2).Ok);

    Design Dn = elaborate(M1, R.TopUnit);
    ASSERT_TRUE(Dn.ok()) << Dn.Error;
    InterpSim Ref(std::move(Dn));
    SimStats S1 = Ref.run();

    BlazeSim::BlazeOptions O;
    O.Jit.M = jit::JitOptions::Mode::On;
    BlazeSim Blaze(M2, R.TopUnit, O);
    ASSERT_TRUE(Blaze.valid()) << Blaze.error();
    SimStats S2 = Blaze.run();

    EXPECT_EQ(S1.AssertFailures, 0u) << D.Key;
    EXPECT_EQ(S2.AssertFailures, 0u) << D.Key;
    EXPECT_EQ(Ref.trace().digest(), Blaze.trace().digest()) << D.Key;
    EXPECT_TRUE(Blaze.jitStats().Warning.empty())
        << D.Key << ": " << Blaze.jitStats().Warning;
    EXPECT_EQ(Blaze.jitStats().CompilerOutput, "") << D.Key;
    EXPECT_EQ(Blaze.jitStats().DeoptUnits, 0u)
        << D.Key << ": "
        << (Blaze.jitStats().Deopts.empty()
                ? ""
                : Blaze.jitStats().Deopts[0].first + ": " +
                      Blaze.jitStats().Deopts[0].second);
    TotalNative += Blaze.jitStats().NativeUnits;
  }
  // The sweep is pointless if nothing actually ran as native code.
  EXPECT_GT(TotalNative, 0u);
}

// Width boundaries through the generated lane code: 1/63/64 run
// native, 65/128 deopt to the interpreter; every width matches the
// oracle either way.
TEST_F(JitTest, WidthBoundaries) {
  for (unsigned W : {1u, 63u, 64u, 65u, 128u}) {
    std::string Src = widthDesign(W);
    uint64_t Ref = interpDigest(Src, "wtop");
    auto B = runBlaze(Src, "wtop", jit::JitOptions::Mode::On);
    EXPECT_EQ(Ref, B->trace().digest()) << "width " << W;
    const jit::JitStats &St = B->jitStats();
    if (W <= 64) {
      EXPECT_EQ(St.NativeUnits, 2u) << "width " << W;
      EXPECT_EQ(St.DeoptUnits, 0u) << "width " << W;
    } else {
      EXPECT_EQ(St.NativeUnits, 0u) << "width " << W;
      EXPECT_EQ(St.DeoptUnits, 2u) << "width " << W;
    }
    // And the ablation configuration stays equivalent too.
    auto BOff = runBlaze(Src, "wtop", jit::JitOptions::Mode::Off);
    EXPECT_EQ(Ref, BOff->trace().digest()) << "width " << W;
    EXPECT_FALSE(BOff->jitStats().Enabled);
  }
}

// The accumulator testbench with its stimulus process forced back to
// the interpreter: native and interpreted instances must coexist and
// still match the oracle.
TEST_F(JitTest, MixedNativeAndInterpretedMatchesOracle) {
  std::string Src = llhd_test::accTestbench("50");
  uint64_t Ref = interpDigest(Src, "acc_tb");
  auto B = runBlaze(Src, "acc_tb", jit::JitOptions::Mode::On,
                    "acc_tb_initial");
  EXPECT_EQ(Ref, B->trace().digest());
  const jit::JitStats &St = B->jitStats();
  EXPECT_GE(St.NativeUnits, 1u);
  EXPECT_GE(St.DeoptUnits, 1u);
  EXPECT_GE(St.NativeProcs, 1u);
  EXPECT_GE(St.InterpProcs, 1u);
}

// Real function calls through native code. The stimulus process calls,
// from inside its loop: a callee with a loop over `var` cells, a
// callee nesting two further calls, a recursive callee, callees taking
// and returning i1/i63/i64 lanes, and a void callee whose llhd.assert
// fails on some iterations; that callee's long dotted name spells a C
// symbol longer than any fixed format buffer. A combinational process
// shares @popcnt with it, so one callee serves two processes in one
// translation unit.
const char *CallsDesign = R"(
entity @ctop () -> () {
  %z32 = const i32 0
  %z1 = const i1 0
  %z63 = const i63 0
  %z64 = const i64 0
  %pa = sig i32 %z32
  %pb = sig i32 %z32
  %pc = sig i1 %z1
  %pd = sig i63 %z63
  %pe = sig i64 %z64
  %pq = sig i32 %z32
  inst @cdrv () -> (i32$ %pa, i32$ %pb, i1$ %pc, i63$ %pd, i64$ %pe)
  inst @ccomb (i32$ %pb) -> (i32$ %pq)
}
proc @cdrv () -> (i32$ %pa, i32$ %pb, i1$ %pc, i63$ %pd, i64$ %pe) {
entry:
  %c0 = const i32 0
  %c1 = const i32 1
  %lim = const i32 12
  %golden = const i32 2654435761
  %t1 = const time 1ns
  %k = var i32 %c0
  br %loop
loop:
  %kv = ld i32* %k
  %seed = mul i32 %kv, %golden
  %p = call i32 @popcnt (i32 %seed)
  %n = call i32 @nest (i32 %seed)
  %f = call i32 @fact (i32 %kv)
  %s = add i32 %n, %f
  drv i32$ %pa, %p after %t1
  drv i32$ %pb, %s after %t1
  %b0 = trunc i1 %seed
  %b1 = trunc i1 %kv
  %w1 = call i1 @w1 (i1 %b0, i1 %b1)
  drv i1$ %pc, %w1 after %t1
  %s63 = sext i63 %seed
  %w63 = call i63 @w63 (i63 %s63)
  drv i63$ %pd, %w63 after %t1
  %s64 = sext i64 %seed
  %w64 = call i64 @w64 (i64 %s64, i63 %w63)
  drv i64$ %pe, %w64 after %t1
  call void @tb.checks.stage0_of_the_self_checking_testbench.stage1_of_the_self_checking_testbench.stage2_of_the_self_checking_testbench.stage3_of_the_self_checking_testbench.stage4_of_the_self_checking_testbench.stage5_of_the_self_checking_testbench (i32 %p, i32 %kv)
  %kn = add i32 %kv, %c1
  st i32* %k, %kn
  wait %next for %t1
next:
  %cont = ult i32 %kn, %lim
  br %cont, %end, %loop
end:
  halt
}
proc @ccomb (i32$ %pb) -> (i32$ %pq) {
entry:
  %v = prb i32$ %pb
  %r = call i32 @popcnt (i32 %v)
  %t0 = const time 0s
  drv i32$ %pq, %r after %t0
  wait %entry for %pb
}
func @popcnt (i32 %x) i32 {
entry:
  %z = const i32 0
  %one = const i32 1
  %n = const i32 32
  %acc = var i32 %z
  %i = var i32 %z
  br %loop
loop:
  %iv = ld i32* %i
  %sh = shr i32 %x, i32 %iv
  %b = and i32 %sh, %one
  %av = ld i32* %acc
  %an = add i32 %av, %b
  st i32* %acc, %an
  %in = add i32 %iv, %one
  st i32* %i, %in
  %c = ult i32 %in, %n
  br %c, %done, %loop
done:
  %r = ld i32* %acc
  ret i32 %r
}
func @nest (i32 %x) i32 {
entry:
  %a = call i32 @popcnt (i32 %x)
  %b = call i32 @mix (i32 %x, i32 %a)
  ret i32 %b
}
func @mix (i32 %x, i32 %y) i32 {
entry:
  %three = const i32 3
  %sh = shl i32 %x, i32 %y
  %m = mul i32 %sh, %three
  %r = xor i32 %m, %y
  ret i32 %r
}
func @fact (i32 %n) i32 {
entry:
  %one = const i32 1
  %base = ule i32 %n, %one
  br %base, %rec, %leaf
leaf:
  ret i32 %one
rec:
  %m = sub i32 %n, %one
  %r = call i32 @fact (i32 %m)
  %p = mul i32 %n, %r
  ret i32 %p
}
func @w1 (i1 %a, i1 %b) i1 {
entry:
  %x = xor i1 %a, %b
  %r = not i1 %x
  ret i1 %r
}
func @w63 (i63 %a) i63 {
entry:
  %k = const i63 6148914691236517205
  %three = const i32 3
  %m = mul i63 %a, %k
  %s = add i63 %m, %a
  %r = ashr i63 %s, i32 %three
  ret i63 %r
}
func @w64 (i64 %a, i63 %b) i64 {
entry:
  %bz = zext i64 %b
  %m = mul i64 %a, %bz
  %k = const i64 18446744073709551557
  %s = sub i64 %m, %k
  %d = sdiv i64 %s, %a
  ret i64 %d
}
func @tb.checks.stage0_of_the_self_checking_testbench.stage1_of_the_self_checking_testbench.stage2_of_the_self_checking_testbench.stage3_of_the_self_checking_testbench.stage4_of_the_self_checking_testbench.stage5_of_the_self_checking_testbench (i32 %p, i32 %k) void {
entry:
  %ok = ugt i32 %p, %k
  call void @llhd.assert (i1 %ok)
  ret
}
)";

// A callee taking an i65 cannot run on lanes: its caller deopts, with a
// reason naming the callee. So does the caller of @outer, whose own ops
// fit but whose callee @inner computes in i65, and the caller of @ext,
// which has no body.
const char *WideCallDesign = R"(
declare func @ext (i32) i32
entity @xtop () -> () {
  %z = const i32 0
  %o = sig i32 %z
  %o2 = sig i32 %z
  %o3 = sig i32 %z
  inst @xcall () -> (i32$ %o)
  inst @xnest () -> (i32$ %o2)
  inst @xdecl () -> (i32$ %o3)
}
proc @xdecl () -> (i32$ %o3) {
entry:
  %v = const i32 5
  %r = call i32 @ext (i32 %v)
  %t1 = const time 1ns
  drv i32$ %o3, %r after %t1
  halt
}
proc @xnest () -> (i32$ %o2) {
entry:
  %v = const i32 7
  %r = call i32 @outer (i32 %v)
  %t1 = const time 1ns
  drv i32$ %o2, %r after %t1
  halt
}
func @outer (i32 %x) i32 {
entry:
  %r = call i32 @inner (i32 %x)
  ret i32 %r
}
func @inner (i32 %x) i32 {
entry:
  %w = zext i65 %x
  %y = add i65 %w, %w
  %t = trunc i32 %y
  ret i32 %t
}
proc @xcall () -> (i32$ %o) {
entry:
  %v = const i65 36893488147419103231
  %r = call i65 @wide (i65 %v)
  %t = trunc i32 %r
  %t1 = const time 1ns
  drv i32$ %o, %t after %t1
  halt
}
func @wide (i65 %x) i65 {
entry:
  %one = const i65 1
  %r = add i65 %x, %one
  ret i65 %r
}
)";

TEST_F(JitTest, NativeCallsMatchOracle) {
  SimStats St;
  auto B = runAgainstOracle(CallsDesign, "ctop", St);
  const jit::JitStats &J = B->jitStats();
  EXPECT_TRUE(J.Warning.empty()) << J.Warning;
  EXPECT_EQ(J.NativeUnits, 2u);
  EXPECT_EQ(J.DeoptUnits, 0u);
  EXPECT_EQ(J.NativeProcs, 2u);
  // The assert inside the long-named checker fires from native code
  // (iteration 0 at least: popcnt(0) = 0 is not above 0).
  EXPECT_GT(St.AssertFailures, 0u);
}

TEST_F(JitTest, WideCalleeDeoptsItsCaller) {
  SimStats St;
  auto B = runAgainstOracle(WideCallDesign, "xtop", St);
  const jit::JitStats &J = B->jitStats();
  EXPECT_EQ(J.NativeUnits, 0u);
  ASSERT_EQ(J.Deopts.size(), 3u);
  EXPECT_EQ(J.Deopts[0].first, "xcall");
  const std::string &Why = J.Deopts[0].second;
  EXPECT_NE(Why.find("op 'call'"), std::string::npos) << Why;
  EXPECT_NE(Why.find("'@wide'"), std::string::npos) << Why;
  EXPECT_NE(Why.find("i65"), std::string::npos) << Why;
  EXPECT_EQ(J.Deopts[1].first, "xnest");
  const std::string &Nested = J.Deopts[1].second;
  EXPECT_NE(Nested.find("'@outer'"), std::string::npos) << Nested;
  EXPECT_NE(Nested.find("'@inner'"), std::string::npos) << Nested;
  EXPECT_NE(Nested.find("op 'zext'"), std::string::npos) << Nested;
  EXPECT_EQ(J.Deopts[2].first, "xdecl");
  const std::string &Decl = J.Deopts[2].second;
  EXPECT_NE(Decl.find("'@ext': declared without a body"), std::string::npos)
      << Decl;
}

//===----------------------------------------------------------------------===//
// Fallback robustness
//===----------------------------------------------------------------------===//

// LLHD_JIT_CXX="" simulates a machine without any host compiler: the
// engine must interpret everything, correctly, with the stats saying
// why. Salted sources keep the compiler's object cache out of play.
TEST_F(JitTest, NoHostCompilerFallsBack) {
  EnvGuard G("LLHD_JIT_CXX", "");
  // Every suite design still runs, and matches the oracle.
  for (const designs::DesignInfo &D : designs::allDesigns(0.0)) {
    Context C;
    Module M1(C, "ref"), M2(C, "blz");
    auto R = moore::compileSystemVerilog(D.Source, D.TopModule, M1);
    ASSERT_TRUE(R.Ok) << D.Key << ": " << R.Error;
    ASSERT_TRUE(
        moore::compileSystemVerilog(D.Source, D.TopModule, M2).Ok);
    Design Dn = elaborate(M1, R.TopUnit);
    ASSERT_TRUE(Dn.ok()) << Dn.Error;
    InterpSim Ref(std::move(Dn));
    Ref.run();
    BlazeSim::BlazeOptions O;
    O.Jit.M = jit::JitOptions::Mode::On;
    BlazeSim Blaze(M2, R.TopUnit, O);
    ASSERT_TRUE(Blaze.valid()) << Blaze.error();
    Blaze.run();
    EXPECT_EQ(Ref.trace().digest(), Blaze.trace().digest()) << D.Key;
    EXPECT_FALSE(Blaze.jitStats().CompilerFound) << D.Key;
    EXPECT_FALSE(Blaze.jitStats().Compiled) << D.Key;
    EXPECT_EQ(Blaze.jitStats().NativeProcs, 0u) << D.Key;
  }
}

// A compiler that exists but always fails: the warning must carry the
// failing command so the user can reproduce it, and the simulation
// must still be correct.
TEST_F(JitTest, FailingCompilerFallsBack) {
  EnvGuard G("LLHD_JIT_CXX", "/bin/false");
  std::string Src = widthDesign(16, /*Salt=*/101);
  uint64_t Ref = interpDigest(Src, "wtop");
  auto B = runBlaze(Src, "wtop", jit::JitOptions::Mode::On);
  EXPECT_EQ(Ref, B->trace().digest());
  const jit::JitStats &St = B->jitStats();
  EXPECT_TRUE(St.CompilerFound);
  EXPECT_FALSE(St.Compiled);
  EXPECT_EQ(St.NativeProcs, 0u);
  EXPECT_NE(St.Warning.find("/bin/false"), std::string::npos)
      << "warning should carry the failing command: " << St.Warning;
}

// An unusable temp dir root: the compile step fails gracefully and the
// engine interprets.
TEST_F(JitTest, UnwritableTempDirFallsBack) {
  EnvGuard G("LLHD_JIT_TMPDIR", "/nonexistent/llhd-jit-tmp");
  std::string Src = widthDesign(24, /*Salt=*/202);
  uint64_t Ref = interpDigest(Src, "wtop");
  auto B = runBlaze(Src, "wtop", jit::JitOptions::Mode::On);
  EXPECT_EQ(Ref, B->trace().digest());
  EXPECT_FALSE(B->jitStats().Compiled);
  EXPECT_EQ(B->jitStats().NativeProcs, 0u);
  EXPECT_FALSE(B->jitStats().Warning.empty());
}

// The compiler is spawned without a shell, so a compiler path and a
// temp dir with a space and a quote in them still compile natively
// (with a shell command line the quote broke the command and Blaze fell
// back to the interpreter).
TEST_F(JitTest, QuotedPathsCompile) {
  std::string Real = jit::HostCompiler::findCompiler();
  if (Real.empty() || Real[0] != '/')
    GTEST_SKIP() << "host compiler is not an absolute path: '" << Real << "'";
  std::string Templ = ::testing::TempDir() + "llhd-jit-quote-XXXXXX";
  std::vector<char> Base(Templ.begin(), Templ.end());
  Base.push_back('\0');
  ASSERT_NE(mkdtemp(Base.data()), nullptr);
  std::string Dir = std::string(Base.data()) + "/jit cxx's dir";
  ASSERT_EQ(mkdir(Dir.c_str(), 0700), 0);
  std::string Link = Dir + Real.substr(Real.rfind('/'));
  ASSERT_EQ(symlink(Real.c_str(), Link.c_str()), 0);

  {
    EnvGuard Cxx("LLHD_JIT_CXX", Link.c_str());
    EnvGuard Tmp("LLHD_JIT_TMPDIR", Dir.c_str());
    std::string Src = widthDesign(12, /*Salt=*/303);
    uint64_t Ref = interpDigest(Src, "wtop");
    auto B = runBlaze(Src, "wtop", jit::JitOptions::Mode::On);
    const jit::JitStats &St = B->jitStats();
    EXPECT_TRUE(St.Compiled) << St.Warning;
    EXPECT_EQ(St.NativeUnits, 2u);
    EXPECT_EQ(Ref, B->trace().digest());
  }

  unlink(Link.c_str());
  rmdir(Dir.c_str());
  rmdir(Base.data());
}

} // namespace
