//===- tests/support/IntValueTest.cpp - IntValue unit tests ---------------===//

#include "support/IntValue.h"

#include <gtest/gtest.h>

using namespace llhd;

TEST(IntValue, ConstructionMasksToWidth) {
  IntValue V(4, 0xff);
  EXPECT_EQ(V.zextToU64(), 0xfu);
  EXPECT_EQ(V.width(), 4u);
}

TEST(IntValue, ZeroWidth) {
  IntValue V(0, 0);
  EXPECT_TRUE(V.isZero());
  EXPECT_EQ(V.toString(), "0");
}

TEST(IntValue, AddWraps) {
  IntValue A(8, 200), B(8, 100);
  EXPECT_EQ(A.add(B).zextToU64(), (200 + 100) % 256u);
}

TEST(IntValue, SubWraps) {
  IntValue A(8, 5), B(8, 10);
  EXPECT_EQ(A.sub(B).zextToU64(), 251u);
}

TEST(IntValue, MulWide) {
  IntValue A(128, 0), B(128, 0);
  A = IntValue(128, ~uint64_t(0));
  B = IntValue(128, 2);
  IntValue R = A.mul(B);
  EXPECT_EQ(R.word(0), ~uint64_t(0) << 1);
  EXPECT_EQ(R.word(1), 1u);
}

TEST(IntValue, MulAccumulatorIdentity) {
  // q == i*(i+1)/2, the Figure 2 testbench check.
  IntValue Two(32, 2);
  uint32_t Acc = 0;
  for (uint32_t I = 1; I <= 100; ++I) {
    Acc += I;
    IntValue IV(32, I), IP1(32, I + 1);
    EXPECT_EQ(IV.mul(IP1).udiv(Two).zextToU64(), Acc);
  }
}

TEST(IntValue, UdivByZeroIsAllOnes) {
  IntValue A(8, 42), Z(8, 0);
  EXPECT_TRUE(A.udiv(Z).isAllOnes());
}

TEST(IntValue, SdivSigns) {
  IntValue A = IntValue(8, 0).sub(IntValue(8, 7)); // -7
  IntValue B(8, 2);
  EXPECT_EQ(A.sdiv(B).sextToI64(), -3);
  EXPECT_EQ(A.srem(B).sextToI64(), -1);
  EXPECT_EQ(A.smod(B).sextToI64(), 1);
}

TEST(IntValue, SignedDivisionByZero) {
  // sdiv by zero is all-ones regardless of the dividend's sign — the
  // same X-prop convention as udiv. A negative dividend must not turn
  // udiv's all-ones into 1 through sign correction. srem/smod by zero
  // yield the dividend, like urem. Checked on both sides of the
  // inline/heap storage boundary.
  for (unsigned W : {1u, 8u, 63u, 64u, 65u, 128u}) {
    IntValue Zero(W, 0);
    IntValue Five(W, 5);
    IntValue MinusFive = Five.neg();
    EXPECT_EQ(MinusFive.sdiv(Zero), IntValue::allOnes(W)) << "width " << W;
    EXPECT_EQ(Five.sdiv(Zero), IntValue::allOnes(W)) << "width " << W;
    EXPECT_EQ(Zero.sdiv(Zero), IntValue::allOnes(W)) << "width " << W;
    EXPECT_EQ(MinusFive.srem(Zero), MinusFive) << "width " << W;
    EXPECT_EQ(Five.srem(Zero), Five) << "width " << W;
    EXPECT_EQ(MinusFive.smod(Zero), MinusFive) << "width " << W;
    EXPECT_EQ(Five.smod(Zero), Five) << "width " << W;
  }
}

TEST(IntValue, SignedMinimumDivMinusOneWraps) {
  // The one signed pair whose true quotient does not fit: MIN / -1
  // wraps back to MIN (all arithmetic is modulo 2^width), and the
  // remainder is zero.
  for (unsigned W : {8u, 64u, 65u, 128u}) {
    IntValue Min(W, 0);
    Min.setBit(W - 1, true);
    IntValue MinusOne = IntValue::allOnes(W);
    EXPECT_EQ(Min.sdiv(MinusOne), Min) << "width " << W;
    EXPECT_EQ(Min.srem(MinusOne), IntValue(W, 0)) << "width " << W;
    EXPECT_EQ(Min.smod(MinusOne), IntValue(W, 0)) << "width " << W;
  }
}

TEST(IntValue, MultiwordDivision) {
  IntValue A(128, {0x123456789abcdef0ull, 0xfedcba9876543210ull});
  IntValue B(128, 1000000007);
  IntValue Q = A.udiv(B);
  IntValue R = A.urem(B);
  EXPECT_EQ(Q.mul(B).add(R), A);
  EXPECT_TRUE(R.ult(B));
}

TEST(IntValue, ComparisonsUnsigned) {
  IntValue A(16, 5), B(16, 9);
  EXPECT_TRUE(A.ult(B));
  EXPECT_TRUE(B.ugt(A));
  EXPECT_TRUE(A.ule(A));
  EXPECT_TRUE(A.uge(A));
  EXPECT_FALSE(B.ult(A));
}

TEST(IntValue, ComparisonsSigned) {
  IntValue MinusOne = IntValue::allOnes(8);
  IntValue One(8, 1);
  EXPECT_TRUE(MinusOne.slt(One));
  EXPECT_TRUE(One.sgt(MinusOne));
  EXPECT_FALSE(MinusOne.ult(One)); // 255 > 1 unsigned.
}

TEST(IntValue, Shifts) {
  IntValue A(8, 0b1011);
  EXPECT_EQ(A.shl(2).zextToU64(), 0b101100u);
  EXPECT_EQ(A.lshr(1).zextToU64(), 0b101u);
  IntValue Neg(8, 0x80);
  EXPECT_EQ(Neg.ashr(3).zextToU64(), 0xf0u);
  EXPECT_EQ(A.shl(8).zextToU64(), 0u);
}

TEST(IntValue, MultiwordShifts) {
  IntValue A(130, 1);
  IntValue S = A.shl(129);
  EXPECT_TRUE(S.bit(129));
  EXPECT_EQ(S.lshr(129), A);
}

TEST(IntValue, ExtensionTruncation) {
  IntValue A(4, 0b1010);
  EXPECT_EQ(A.zext(8).zextToU64(), 0b1010u);
  EXPECT_EQ(A.sext(8).zextToU64(), 0b11111010u);
  EXPECT_EQ(A.trunc(2).zextToU64(), 0b10u);
  EXPECT_EQ(A.zextOrTrunc(4), A);
}

TEST(IntValue, BitSliceInsertExtract) {
  IntValue A(16, 0xabcd);
  EXPECT_EQ(A.extractBits(4, 8).zextToU64(), 0xbcu);
  IntValue R = A.insertBits(8, IntValue(4, 0x7));
  EXPECT_EQ(R.zextToU64(), 0xa7cdu);
}

TEST(IntValue, FromStringRadixes) {
  EXPECT_EQ(IntValue::fromString(16, "1234").zextToU64(), 1234u);
  EXPECT_EQ(IntValue::fromString(16, "0xff").zextToU64(), 0xffu);
  EXPECT_EQ(IntValue::fromString(16, "0b1010").zextToU64(), 10u);
  EXPECT_EQ(IntValue::fromString(8, "-1").zextToU64(), 0xffu);
  EXPECT_EQ(IntValue::fromString(16, "1_000").zextToU64(), 1000u);
}

TEST(IntValue, ToStringDecimal) {
  EXPECT_EQ(IntValue(32, 123456).toString(), "123456");
  IntValue Big = IntValue::allOnes(128);
  EXPECT_EQ(Big.toString(), "340282366920938463463374607431768211455");
}

TEST(IntValue, ToStringMatchesDigitByDigitReference) {
  // toString() streams through formatDecimal: a digit-pair table up to
  // 64 bits, base-10^19 chunks above, with stack scratch up to 1024 bits
  // and heap scratch beyond. The reference divides by ten per digit.
  auto reference = [](const IntValue &In) {
    if (In.isZero())
      return std::string("0");
    // Four spare bits so that ten is representable at every width.
    IntValue V = In.zext(In.width() + 4);
    IntValue Ten(V.width(), 10);
    std::string S;
    while (!V.isZero()) {
      S.insert(S.begin(), char('0' + V.urem(Ten).zextToU64()));
      V = V.udiv(Ten);
    }
    return S;
  };
  uint64_t X = 0x9e3779b97f4a7c15ull;
  for (unsigned W : {1u, 7u, 63u, 64u, 65u, 127u, 128u, 200u, 1023u, 1024u,
                     1025u, 1500u}) {
    std::vector<uint64_t> Ws((W + 63) / 64);
    for (uint64_t &Wd : Ws) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      Wd = X;
    }
    IntValue V(W, Ws);
    EXPECT_EQ(V.toString(), reference(V)) << "width " << W;
    // Chunk boundaries: a value whose low chunk has leading zeros.
    IntValue P = IntValue(W, 1).shl(W > 64 ? 64 : W - 1);
    EXPECT_EQ(P.toString(), reference(P)) << "power of two, width " << W;
  }
  EXPECT_EQ(IntValue(64, ~0ull).toString(), "18446744073709551615");
  EXPECT_EQ(IntValue(200, 0).toString(), "0");
}

TEST(IntValue, ToHexString) {
  EXPECT_EQ(IntValue(16, 0xbeef).toHexString(), "0xbeef");
  EXPECT_EQ(IntValue(12, 0xbe).toHexString(), "0x0be");
}

TEST(IntValue, PopCountAndLeadingZeros) {
  IntValue A(16, 0x0f0f);
  EXPECT_EQ(A.popCount(), 8u);
  EXPECT_EQ(A.countLeadingZeros(), 4u);
  EXPECT_EQ(IntValue(16, 0).countLeadingZeros(), 16u);
}

TEST(IntValue, NegIsTwosComplement) {
  IntValue A(8, 1);
  EXPECT_EQ(A.neg().zextToU64(), 0xffu);
  EXPECT_EQ(IntValue(8, 0).neg().zextToU64(), 0u);
}

// Property-style sweep: algebraic identities over assorted widths/values.
class IntValueProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, uint64_t>> {};

TEST_P(IntValueProperty, AddSubRoundTrip) {
  auto [W, Raw] = GetParam();
  IntValue A(W, Raw), B(W, Raw ^ 0x5555555555555555ull);
  EXPECT_EQ(A.add(B).sub(B), A);
}

TEST_P(IntValueProperty, DivRemReconstruct) {
  auto [W, Raw] = GetParam();
  IntValue A(W, Raw), B(W, (Raw >> 3) | 1);
  EXPECT_EQ(A.udiv(B).mul(B).add(A.urem(B)), A);
}

TEST_P(IntValueProperty, DoubleNegation) {
  auto [W, Raw] = GetParam();
  IntValue A(W, Raw);
  EXPECT_EQ(A.neg().neg(), A);
  EXPECT_EQ(A.logicalNot().logicalNot(), A);
}

TEST_P(IntValueProperty, ShiftInverse) {
  auto [W, Raw] = GetParam();
  IntValue A(W, Raw);
  unsigned S = W / 3;
  EXPECT_EQ(A.shl(S).lshr(S), A.extractBits(0, W - S).zext(W));
}

INSTANTIATE_TEST_SUITE_P(
    Widths, IntValueProperty,
    ::testing::Combine(::testing::Values(1u, 7u, 8u, 31u, 32u, 63u, 64u,
                                         65u, 127u),
                       ::testing::Values(0ull, 1ull, 0xdeadbeefull,
                                         ~0ull)));

//===----------------------------------------------------------------------===//
// Inline -> heap boundary (the small-size optimization switches storage at
// 64 bits). Every arithmetic/shift/slice op is exercised at widths 63, 64
// (inline) and 65, 128 (heap) with operands straddling bit 63/64.
//===----------------------------------------------------------------------===//

namespace {
/// Builds a value from explicit low/high words at the given width.
IntValue mk(unsigned W, uint64_t Lo, uint64_t Hi = 0) {
  return IntValue(W, std::vector<uint64_t>{Lo, Hi});
}
} // namespace

TEST(IntValueBoundary, StorageKind) {
  EXPECT_TRUE(IntValue(64, 1).isInline());
  EXPECT_FALSE(IntValue(65, 1).isInline());
  EXPECT_EQ(IntValue(64, 1).numWords(), 1u);
  EXPECT_EQ(IntValue(65, 1).numWords(), 2u);
}

TEST(IntValueBoundary, HeapCopyIsIndependent) {
  IntValue A = mk(128, 5, 7);
  IntValue B = A;
  B.setBit(100, true);
  EXPECT_FALSE(A.bit(100));
  EXPECT_TRUE(B.bit(100));
  IntValue C = std::move(B);
  EXPECT_TRUE(C.bit(100));
  A = C; // Same word count: in-place copy.
  EXPECT_TRUE(A.bit(100));
  A = IntValue(8, 3); // Shrink heap -> inline.
  EXPECT_EQ(A.zextToU64(), 3u);
}

TEST(IntValueBoundary, AddCarriesAcrossWord) {
  // all-ones(64) + 1 at width 65 carries into the second word.
  IntValue R = mk(65, ~0ull).add(mk(65, 1));
  EXPECT_EQ(R.word(0), 0u);
  EXPECT_EQ(R.word(1), 1u);
  // Same operands at width 64 wrap to zero instead.
  EXPECT_TRUE(IntValue(64, ~0ull).add(IntValue(64, 1)).isZero());
}

TEST(IntValueBoundary, SubBorrowsAcrossWord) {
  // 2^64 - 1 at width 65.
  IntValue R = mk(65, 0, 1).sub(mk(65, 1));
  EXPECT_EQ(R.word(0), ~0ull);
  EXPECT_EQ(R.word(1), 0u);
  EXPECT_EQ(IntValue(63, 0).sub(IntValue(63, 1)).zextToU64(),
            (~0ull) >> 1);
}

TEST(IntValueBoundary, MulCarriesAcrossWord) {
  // (2^63) * 2 = 2^64 at width 65; wraps to 0 at width 64.
  IntValue R = mk(65, 1ull << 63).mul(mk(65, 2));
  EXPECT_EQ(R.word(0), 0u);
  EXPECT_EQ(R.word(1), 1u);
  EXPECT_TRUE(IntValue(64, 1ull << 63).mul(IntValue(64, 2)).isZero());
}

TEST(IntValueBoundary, NegAtBoundary) {
  // -1 is all-ones at both 64 and 65 bits.
  EXPECT_TRUE(IntValue(64, 1).neg().isAllOnes());
  EXPECT_TRUE(mk(65, 1).neg().isAllOnes());
  EXPECT_EQ(mk(65, 1).neg().word(1), 1u); // Bit 64 set.
}

TEST(IntValueBoundary, DivRemAcrossWord) {
  // 2^64 / 2 = 2^63; 2^64 % 3 = 1.
  IntValue V = mk(65, 0, 1);
  EXPECT_EQ(V.udiv(mk(65, 2)).word(0), 1ull << 63);
  EXPECT_EQ(V.udiv(mk(65, 2)).word(1), 0u);
  EXPECT_EQ(V.urem(mk(65, 3)).zextToU64(), 1u);
  // Division by zero: all-ones at any width.
  EXPECT_TRUE(V.udiv(mk(65, 0)).isAllOnes());
  EXPECT_TRUE(IntValue(64, 7).udiv(IntValue(64, 0)).isAllOnes());
}

TEST(IntValueBoundary, SignedDivRemAcrossWord) {
  // At width 65: -6 / 4 = -1 (truncating), -6 rem 4 = -2, -6 mod 4 = 2.
  IntValue M6 = mk(65, 6).neg(), P4 = mk(65, 4);
  EXPECT_EQ(M6.sdiv(P4), mk(65, 1).neg());
  EXPECT_EQ(M6.srem(P4), mk(65, 2).neg());
  EXPECT_EQ(M6.smod(P4), mk(65, 2));
  // And identically at width 64 (inline path).
  IntValue m6(64, uint64_t(-6)), p4(64, 4);
  EXPECT_EQ(m6.sdiv(p4).sextToI64(), -1);
  EXPECT_EQ(m6.srem(p4).sextToI64(), -2);
  EXPECT_EQ(m6.smod(p4).sextToI64(), 2);
}

TEST(IntValueBoundary, BitwiseAcrossWord) {
  IntValue A = mk(65, 0xff00ff00ff00ff00ull, 1);
  IntValue B = mk(65, 0x0ff00ff00ff00ff0ull, 0);
  EXPECT_EQ(A.logicalAnd(B).word(0), 0x0f000f000f000f00ull);
  EXPECT_EQ(A.logicalAnd(B).word(1), 0u);
  EXPECT_EQ(A.logicalOr(B).word(1), 1u);
  EXPECT_EQ(A.logicalXor(B).word(0), 0xf0f0f0f0f0f0f0f0ull);
  EXPECT_EQ(A.logicalNot().word(1), 0u); // ~1 in a 1-bit top word.
  EXPECT_EQ(IntValue(63, 0).logicalNot().zextToU64(), (~0ull) >> 1);
}

TEST(IntValueBoundary, ShiftsCrossWordBoundary) {
  // shl moves bit 63 into bit 64 (the second word).
  IntValue A = mk(65, 1ull << 63);
  EXPECT_EQ(A.shl(1).word(0), 0u);
  EXPECT_EQ(A.shl(1).word(1), 1u);
  // lshr moves it back.
  EXPECT_EQ(A.shl(1).lshr(1), A);
  // ashr at width 65: sign bit is bit 64.
  IntValue S = mk(65, 0, 1);
  EXPECT_EQ(S.ashr(64).word(0), ~0ull);
  EXPECT_EQ(S.ashr(64).word(1), 1u);
  // ashr at width 64 (inline): sign fill from bit 63.
  EXPECT_EQ(IntValue(64, 1ull << 63).ashr(63).zextToU64(), ~0ull);
  EXPECT_EQ(IntValue(64, 1ull << 62).ashr(62).zextToU64(), 1u);
  // Shift by >= width clears (or sign-fills for ashr).
  EXPECT_TRUE(A.shl(65).isZero());
  EXPECT_TRUE(A.lshr(65).isZero());
  EXPECT_TRUE(S.ashr(65).isAllOnes());
}

TEST(IntValueBoundary, ExtZextSextTruncAcross) {
  IntValue A(64, 1ull << 63); // MSB set.
  EXPECT_EQ(A.zext(65).word(1), 0u);
  EXPECT_EQ(A.sext(65).word(1), 1u);
  EXPECT_EQ(A.sext(128).word(1), ~0ull);
  EXPECT_EQ(mk(65, 123, 1).trunc(64).zextToU64(), 123u);
  EXPECT_EQ(mk(128, 5, 9).trunc(65).word(1), 1u);
  EXPECT_EQ(mk(65, 77, 1).zextOrTrunc(8).zextToU64(), 77u);
}

TEST(IntValueBoundary, SliceAcrossWordBoundary) {
  // Extract a 10-bit field straddling bit 64 of a 128-bit value.
  IntValue V = mk(128, 0x3ull << 62, 0x5ull);
  IntValue F = V.extractBits(60, 10);
  // Bits 60..69 of V: bits 62,63 set (word0) and bits 64,66 set (word1).
  EXPECT_EQ(F.zextToU64(),
            (0x3ull << 2) | (0x5ull << 4));
  // Insert it back shifted: round-trips.
  IntValue Z(128, 0);
  IntValue W = Z.insertBits(60, F);
  EXPECT_EQ(W.extractBits(60, 10), F);
  EXPECT_EQ(W.word(1), 0x5ull);
  // Inline insert at the top bit of a 64-bit value.
  IntValue I64 = IntValue(64, 0).insertBits(63, IntValue(1, 1));
  EXPECT_EQ(I64.zextToU64(), 1ull << 63);
}

TEST(IntValueBoundary, ComparisonsAtBit64) {
  IntValue Big = mk(65, 0, 1);   // 2^64.
  IntValue Small = mk(65, ~0ull); // 2^64 - 1.
  EXPECT_TRUE(Small.ult(Big));
  EXPECT_TRUE(Big.ugt(Small));
  // Signed at width 65: 2^64 has the sign bit -> negative.
  EXPECT_TRUE(Big.slt(Small));
  EXPECT_FALSE(Small.slt(Big));
  EXPECT_TRUE(Big.eq(Big));
  EXPECT_FALSE(Big.eq(Small));
}

TEST(IntValueBoundary, PopCountLeadingZerosHash) {
  IntValue V = mk(65, 0xf, 1);
  EXPECT_EQ(V.popCount(), 5u);
  EXPECT_EQ(V.countLeadingZeros(), 0u);
  EXPECT_EQ(mk(65, 0xf).countLeadingZeros(), 61u);
  EXPECT_NE(mk(65, 0xf).hash(), mk(65, 0xf, 1).hash());
  EXPECT_EQ(mk(65, 0xf).hash(), mk(65, 0xf).hash());
}

TEST(IntValueBoundary, ToStringAcrossWord) {
  EXPECT_EQ(mk(65, 0, 1).toString(), "18446744073709551616");
  EXPECT_EQ(mk(65, 0, 1).toHexString(), "0x10000000000000000");
  EXPECT_EQ(IntValue::fromString(65, "18446744073709551616"),
            mk(65, 0, 1));
  EXPECT_EQ(IntValue::fromString(65, "0x10000000000000000"),
            mk(65, 0, 1));
}

TEST(IntValueBoundary, ZeroLengthExtractAtEnd) {
  // Offset == width with length 0 must not shift by >= 64 or read past
  // the word array (regression: UB shift / OOB read).
  EXPECT_EQ(IntValue(64, 5).extractBits(64, 0).width(), 0u);
  EXPECT_EQ(mk(128, 1, 2).extractBits(128, 0).width(), 0u);
  EXPECT_TRUE(IntValue(64, 5).extractBits(64, 0).isZero());
}
