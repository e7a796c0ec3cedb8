//===- tests/sim/FrozenDigestTest.cpp - Pinned trace digests --------------===//
//
// The cross-engine tests compare engines that share one kernel: a change
// to the commit or trace path that altered every engine alike would pass
// them all. This test pins the reference interpreter's Hash-mode digest
// and change count for every Table 2 design (at the benches' default
// scale of 0.001 of the paper's cycles) as literals, so any drift in
// commit order, value semantics or the digest's byte stream fails here.
//
// The literals are a contract: change them only for a deliberate change
// of trace semantics, and say so where the change is recorded.
//
//===----------------------------------------------------------------------===//

#include "designs/Designs.h"
#include "moore/Compiler.h"
#include "sim/Interp.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace llhd;

namespace {

struct Pinned {
  const char *Key;
  uint64_t Digest;
  uint64_t Changes;
};

const Pinned Expected[] = {
    {"gray", 0xffae03d4f6b26d6aull, 37797},
    {"fir", 0x0999387f1fcc8b03ull, 39994},
    {"lfsr", 0xaadeadf6a3c2f699ull, 30004},
    {"lzc", 0x67398a46704e98b4ull, 3000},
    {"fifo", 0x5644f4aaa48cc642ull, 6830},
    {"cdc_gray", 0x2a2d0d3d93bb5badull, 7000},
    {"cdc_strobe", 0x978cee15c3169b03ull, 25204},
    {"rr_arbiter", 0x7488e991b68e16e6ull, 37740},
    {"stream_delayer", 0xcd4727ae4ff74c67ull, 29984},
    {"riscv", 0x38d0b79c39c1220dull, 8263},
};

TEST(FrozenDigest, InterpHashDigestsArePinned) {
  std::vector<designs::DesignInfo> All = designs::allDesigns(0.001);
  ASSERT_EQ(All.size(), std::size(Expected));
  for (size_t I = 0; I != All.size(); ++I) {
    const designs::DesignInfo &D = All[I];
    const Pinned &P = Expected[I];
    ASSERT_EQ(D.Key, P.Key);
    Context Ctx;
    Module M(Ctx, D.Key);
    moore::CompileResult R =
        moore::compileSystemVerilog(D.Source, D.TopModule, M);
    ASSERT_TRUE(R.Ok) << D.Key << ": " << R.Error;
    Design Dn = elaborate(M, R.TopUnit);
    ASSERT_TRUE(Dn.ok()) << D.Key << ": " << Dn.Error;
    SimOptions O;
    O.TraceMode = Trace::Mode::Hash;
    InterpSim Sim(std::move(Dn), O);
    SimStats St = Sim.run();
    EXPECT_EQ(St.AssertFailures, 0u) << D.Key;
    EXPECT_EQ(Sim.trace().digest(), P.Digest);
    EXPECT_EQ(Sim.trace().numChanges(), P.Changes)
        << D.Key << ": got digest 0x" << std::hex << Sim.trace().digest()
        << std::dec << ", " << Sim.trace().numChanges() << " changes";
  }
}

} // namespace
