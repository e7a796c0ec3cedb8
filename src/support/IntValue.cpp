//===- support/IntValue.cpp - Arbitrary-width two-state integers ---------===//

#include "support/IntValue.h"

#include <algorithm>

using namespace llhd;

IntValue::IntValue(unsigned Width, const std::vector<uint64_t> &Ws)
    : Width(Width) {
  if (isInline()) {
    Word = (Ws.empty() ? 0 : Ws[0]) & maskOf(Width);
    return;
  }
  unsigned N = numWords();
  Ptr = new uint64_t[N]();
  std::copy_n(Ws.begin(), std::min<size_t>(Ws.size(), N), Ptr);
  clearUnusedBits();
}

IntValue IntValue::fromString(unsigned Width, const std::string &Str) {
  IntValue Result(Width, 0);
  size_t I = 0;
  bool Negative = false;
  if (I < Str.size() && (Str[I] == '-' || Str[I] == '+')) {
    Negative = Str[I] == '-';
    ++I;
  }
  unsigned Radix = 10;
  if (Str.size() >= I + 2 && Str[I] == '0' &&
      (Str[I + 1] == 'x' || Str[I + 1] == 'X')) {
    Radix = 16;
    I += 2;
  } else if (Str.size() >= I + 2 && Str[I] == '0' &&
             (Str[I + 1] == 'b' || Str[I + 1] == 'B')) {
    Radix = 2;
    I += 2;
  }
  IntValue RadixVal(Width, Radix);
  for (; I < Str.size(); ++I) {
    char C = Str[I];
    if (C == '_')
      continue;
    unsigned Digit;
    if (C >= '0' && C <= '9')
      Digit = C - '0';
    else if (C >= 'a' && C <= 'f')
      Digit = C - 'a' + 10;
    else if (C >= 'A' && C <= 'F')
      Digit = C - 'A' + 10;
    else
      break;
    assert(Digit < Radix && "digit out of range for radix");
    Result = Result.mul(RadixVal).add(IntValue(Width, Digit));
  }
  if (Negative)
    Result = Result.neg();
  return Result;
}

IntValue IntValue::allOnes(unsigned Width) {
  if (Width <= 64)
    return makeInline(Width, ~uint64_t(0));
  IntValue V(Width, 0);
  for (unsigned I = 0, E = V.numWords(); I != E; ++I)
    V.Ptr[I] = ~uint64_t(0);
  V.clearUnusedBits();
  return V;
}

int64_t IntValue::sextToI64() const {
  uint64_t Low = zextToU64();
  if (Width == 0)
    return 0;
  if (Width >= 64)
    return static_cast<int64_t>(Low);
  if (signBit())
    Low |= ~uint64_t(0) << Width;
  return static_cast<int64_t>(Low);
}

bool IntValue::isZero() const {
  if (isInline())
    return Word == 0;
  for (unsigned I = 0, E = numWords(); I != E; ++I)
    if (Ptr[I] != 0)
      return false;
  return true;
}

bool IntValue::isAllOnes() const { return *this == allOnes(Width); }

bool IntValue::fitsU64() const {
  if (isInline())
    return true;
  for (unsigned I = 1, E = numWords(); I != E; ++I)
    if (Ptr[I] != 0)
      return false;
  return true;
}

void IntValue::setBit(unsigned I, bool V) {
  assert(I < Width && "setBit index out of range");
  if (V)
    words()[I / 64] |= uint64_t(1) << (I % 64);
  else
    words()[I / 64] &= ~(uint64_t(1) << (I % 64));
}

IntValue IntValue::add(const IntValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  if (isInline())
    return makeInline(Width, Word + RHS.Word);
  IntValue R(Width, 0);
  uint64_t Carry = 0;
  for (unsigned I = 0, E = numWords(); I != E; ++I) {
    uint64_t A = Ptr[I], B = RHS.Ptr[I];
    uint64_t S = A + B;
    uint64_t C1 = S < A;
    uint64_t S2 = S + Carry;
    uint64_t C2 = S2 < S;
    R.Ptr[I] = S2;
    Carry = C1 | C2;
  }
  R.clearUnusedBits();
  return R;
}

IntValue IntValue::sub(const IntValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  if (isInline())
    return makeInline(Width, Word - RHS.Word);
  return add(RHS.neg());
}

IntValue IntValue::neg() const {
  if (isInline())
    return makeInline(Width, Width == 0 ? 0 : (~Word + 1));
  IntValue R = logicalNot();
  return R.add(IntValue(Width, 1));
}

IntValue IntValue::mul(const IntValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  if (isInline())
    return makeInline(Width, Word * RHS.Word);
  IntValue R(Width, 0);
  unsigned N = numWords();
  for (unsigned I = 0; I != N; ++I) {
    if (Ptr[I] == 0)
      continue;
    uint64_t Carry = 0;
    for (unsigned J = 0; I + J < N; ++J) {
      // 64x64 -> 128 multiply-accumulate.
      __uint128_t Prod =
          (__uint128_t)Ptr[I] * RHS.Ptr[J] + R.Ptr[I + J] + Carry;
      R.Ptr[I + J] = (uint64_t)Prod;
      Carry = (uint64_t)(Prod >> 64);
    }
  }
  R.clearUnusedBits();
  return R;
}

bool IntValue::ult(const IntValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  if (isInline())
    return Word < RHS.Word;
  for (unsigned I = numWords(); I-- > 0;) {
    if (Ptr[I] != RHS.Ptr[I])
      return Ptr[I] < RHS.Ptr[I];
  }
  return false;
}

bool IntValue::slt(const IntValue &RHS) const {
  bool LNeg = signBit(), RNeg = RHS.signBit();
  if (LNeg != RNeg)
    return LNeg;
  return ult(RHS);
}

IntValue IntValue::udiv(const IntValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  if (RHS.isZero())
    return allOnes(Width);
  if (isInline())
    return makeInline(Width, Word / RHS.Word);
  if (fitsU64() && RHS.fitsU64())
    return IntValue(Width, zextToU64() / RHS.zextToU64());
  // Shift-subtract long division for multi-word values.
  IntValue Quot(Width, 0), Rem(Width, 0);
  for (unsigned I = Width; I-- > 0;) {
    Rem = Rem.shl(1);
    Rem.setBit(0, bit(I));
    if (Rem.uge(RHS)) {
      Rem = Rem.sub(RHS);
      Quot.setBit(I, true);
    }
  }
  return Quot;
}

IntValue IntValue::urem(const IntValue &RHS) const {
  if (RHS.isZero())
    return *this;
  if (isInline())
    return makeInline(Width, Word % RHS.Word);
  if (fitsU64() && RHS.fitsU64())
    return IntValue(Width, zextToU64() % RHS.zextToU64());
  return sub(udiv(RHS).mul(RHS));
}

IntValue IntValue::sdiv(const IntValue &RHS) const {
  // Division by zero yields all-ones regardless of operand signs (the
  // same X-prop convention as udiv); without this check a negative
  // dividend would negate udiv's all-ones into 1.
  if (RHS.isZero())
    return allOnes(Width);
  bool LNeg = signBit(), RNeg = RHS.signBit();
  IntValue L = LNeg ? neg() : *this;
  IntValue R = RNeg ? RHS.neg() : RHS;
  IntValue Q = L.udiv(R);
  return LNeg != RNeg ? Q.neg() : Q;
}

IntValue IntValue::srem(const IntValue &RHS) const {
  // Remainder by zero yields the dividend, matching urem.
  if (RHS.isZero())
    return *this;
  bool LNeg = signBit(), RNeg = RHS.signBit();
  IntValue L = LNeg ? neg() : *this;
  IntValue R = RNeg ? RHS.neg() : RHS;
  IntValue Rem = L.urem(R);
  return LNeg ? Rem.neg() : Rem;
}

IntValue IntValue::smod(const IntValue &RHS) const {
  if (RHS.isZero())
    return *this;
  IntValue Rem = srem(RHS);
  if (Rem.isZero() || Rem.signBit() == RHS.signBit())
    return Rem;
  return Rem.add(RHS);
}

IntValue IntValue::logicalAnd(const IntValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  if (isInline())
    return makeInline(Width, Word & RHS.Word);
  IntValue R(Width, 0);
  for (unsigned I = 0, E = numWords(); I != E; ++I)
    R.Ptr[I] = Ptr[I] & RHS.Ptr[I];
  return R;
}

IntValue IntValue::logicalOr(const IntValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  if (isInline())
    return makeInline(Width, Word | RHS.Word);
  IntValue R(Width, 0);
  for (unsigned I = 0, E = numWords(); I != E; ++I)
    R.Ptr[I] = Ptr[I] | RHS.Ptr[I];
  return R;
}

IntValue IntValue::logicalXor(const IntValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  if (isInline())
    return makeInline(Width, Word ^ RHS.Word);
  IntValue R(Width, 0);
  for (unsigned I = 0, E = numWords(); I != E; ++I)
    R.Ptr[I] = Ptr[I] ^ RHS.Ptr[I];
  return R;
}

IntValue IntValue::logicalNot() const {
  if (isInline())
    return makeInline(Width, ~Word);
  IntValue R(Width, 0);
  for (unsigned I = 0, E = numWords(); I != E; ++I)
    R.Ptr[I] = ~Ptr[I];
  R.clearUnusedBits();
  return R;
}

IntValue IntValue::shl(unsigned Amount) const {
  if (Amount >= Width)
    return IntValue(Width, 0);
  if (isInline())
    return makeInline(Width, Word << Amount);
  IntValue R(Width, 0);
  unsigned WordShift = Amount / 64, BitShift = Amount % 64;
  for (unsigned I = numWords(); I-- > WordShift;) {
    uint64_t W = Ptr[I - WordShift] << BitShift;
    if (BitShift != 0 && I > WordShift)
      W |= Ptr[I - WordShift - 1] >> (64 - BitShift);
    R.Ptr[I] = W;
  }
  R.clearUnusedBits();
  return R;
}

IntValue IntValue::lshr(unsigned Amount) const {
  if (Amount >= Width)
    return IntValue(Width, 0);
  if (isInline())
    return makeInline(Width, Word >> Amount);
  IntValue R(Width, 0);
  unsigned WordShift = Amount / 64, BitShift = Amount % 64;
  unsigned N = numWords();
  for (unsigned I = 0; I + WordShift < N; ++I) {
    uint64_t W = Ptr[I + WordShift] >> BitShift;
    if (BitShift != 0 && I + WordShift + 1 < N)
      W |= Ptr[I + WordShift + 1] << (64 - BitShift);
    R.Ptr[I] = W;
  }
  return R;
}

IntValue IntValue::ashr(unsigned Amount) const {
  bool Neg = signBit();
  if (isInline()) {
    if (Amount >= Width)
      return Neg ? allOnes(Width) : IntValue(Width, 0);
    uint64_t W = Word >> Amount;
    if (Neg && Amount != 0)
      W |= maskOf(Width) << (Width - Amount);
    return makeInline(Width, W);
  }
  IntValue R = lshr(Amount);
  if (!Neg || Amount == 0)
    return R;
  unsigned Fill = std::min(Amount, Width);
  for (unsigned I = 0; I != Fill; ++I)
    R.setBit(Width - 1 - I, true);
  return R;
}

IntValue IntValue::zext(unsigned NewWidth) const {
  assert(NewWidth >= Width && "zext to smaller width");
  if (NewWidth <= 64)
    return makeInline(NewWidth, zextToU64());
  IntValue R(NewWidth, 0);
  for (unsigned I = 0, E = numWords(); I != E; ++I)
    R.Ptr[I] = words()[I];
  R.clearUnusedBits();
  return R;
}

IntValue IntValue::sext(unsigned NewWidth) const {
  assert(NewWidth >= Width && "sext to smaller width");
  if (!signBit())
    return zext(NewWidth);
  if (NewWidth <= 64) {
    uint64_t W = zextToU64() | (Width < 64 ? ~uint64_t(0) << Width : 0);
    return makeInline(NewWidth, W);
  }
  IntValue R = allOnes(NewWidth);
  for (unsigned I = 0; I != Width; ++I)
    R.setBit(I, bit(I));
  return R;
}

IntValue IntValue::trunc(unsigned NewWidth) const {
  assert(NewWidth <= Width && "trunc to larger width");
  if (NewWidth <= 64)
    return makeInline(NewWidth, zextToU64());
  IntValue R(NewWidth, 0);
  for (unsigned I = 0, E = R.numWords(); I != E; ++I)
    R.Ptr[I] = word(I);
  R.clearUnusedBits();
  return R;
}

IntValue IntValue::zextOrTrunc(unsigned NewWidth) const {
  return NewWidth >= Width ? zext(NewWidth) : trunc(NewWidth);
}

IntValue IntValue::extractBits(unsigned Offset, unsigned Length) const {
  assert(Offset + Length <= Width && "extract out of range");
  if (Length == 0)
    return IntValue(0, 0); // Offset may equal Width: no bits to shift.
  if (isInline())
    return makeInline(Length, Word >> Offset);
  return lshr(Offset).trunc(Length);
}

IntValue IntValue::insertBits(unsigned Offset, const IntValue &Src) const {
  assert(Offset + Src.width() <= Width && "insert out of range");
  if (isInline() && Src.width() != 0) {
    uint64_t Mask = maskOf(Src.width()) << Offset;
    return makeInline(Width, (Word & ~Mask) | (Src.Word << Offset));
  }
  IntValue R = *this;
  for (unsigned I = 0; I != Src.width(); ++I)
    R.setBit(Offset + I, Src.bit(I));
  return R;
}

unsigned IntValue::popCount() const {
  unsigned N = 0;
  for (unsigned I = 0, E = numWords(); I != E; ++I)
    N += __builtin_popcountll(words()[I]);
  return N;
}

unsigned IntValue::countLeadingZeros() const {
  for (unsigned I = Width; I-- > 0;)
    if (bit(I))
      return Width - 1 - I;
  return Width;
}

std::string IntValue::toString() const {
  std::string S;
  formatDecimal([&S](const char *P, size_t N) { S.append(P, N); });
  return S;
}

void IntValue::formatWide(void (*Out)(void *, const char *, size_t),
                          void *Ctx) const {
  // Repeated division by 10^19 on a copy of the words yields base-10^19
  // chunks, least significant first. Up to 1024 bits the scratch lives
  // on the stack.
  constexpr uint64_t ChunkBase = 10000000000000000000ull;
  constexpr unsigned StackWords = 16;
  unsigned NW = numWords();
  uint64_t WStack[StackWords], CStack[StackWords + 2];
  std::vector<uint64_t> WHeap, CHeap;
  uint64_t *W = WStack, *Chunks = CStack;
  if (NW > StackWords) {
    WHeap.resize(NW);
    CHeap.resize(NW + 2);
    W = WHeap.data();
    Chunks = CHeap.data();
  }
  std::memcpy(W, words(), NW * sizeof(uint64_t));
  unsigned Top = NW, NC = 0;
  while (Top != 0 && W[Top - 1] == 0)
    --Top;
  do {
    unsigned __int128 Rem = 0;
    for (unsigned I = Top; I-- > 0;) {
      unsigned __int128 Cur = (Rem << 64) | W[I];
      W[I] = static_cast<uint64_t>(Cur / ChunkBase);
      Rem = Cur % ChunkBase;
    }
    Chunks[NC++] = static_cast<uint64_t>(Rem);
    while (Top != 0 && W[Top - 1] == 0)
      --Top;
  } while (Top != 0);
  // The leading chunk prints bare, the rest zero-padded to 19 digits.
  char Buf[20];
  const char *B = formatU64(Chunks[NC - 1], Buf + sizeof(Buf));
  Out(Ctx, B, static_cast<size_t>(Buf + sizeof(Buf) - B));
  for (unsigned I = NC - 1; I-- > 0;) {
    char *E = Buf + sizeof(Buf);
    char *D = formatU64(Chunks[I], E);
    while (E - D < 19)
      *--D = '0';
    Out(Ctx, D, 19);
  }
}

std::string IntValue::toHexString() const {
  static const char Digits[] = "0123456789abcdef";
  std::string S;
  unsigned NumNibbles = (Width + 3) / 4;
  for (unsigned I = NumNibbles; I-- > 0;) {
    unsigned Nibble = (word(I / 16) >> ((I % 16) * 4)) & 0xf;
    S += Digits[Nibble];
  }
  if (S.empty())
    S = "0";
  return "0x" + S;
}

size_t IntValue::hash() const {
  size_t H = std::hash<unsigned>()(Width);
  for (unsigned I = 0, E = numWords(); I != E; ++I)
    H = H * 1000003u + std::hash<uint64_t>()(words()[I]);
  return H;
}
