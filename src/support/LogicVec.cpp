//===- support/LogicVec.cpp - IEEE 1164 nine-valued logic ----------------===//

#include "support/LogicVec.h"

using namespace llhd;

static constexpr unsigned NumLogic = 9;

Logic llhd::logicFromChar(char C) {
  switch (C) {
  case 'U': case 'u': return Logic::U;
  case 'X': case 'x': return Logic::X;
  case '0':           return Logic::L0;
  case '1':           return Logic::L1;
  case 'Z': case 'z': return Logic::Z;
  case 'W': case 'w': return Logic::W;
  case 'L': case 'l': return Logic::L;
  case 'H': case 'h': return Logic::H;
  case '-':           return Logic::DC;
  }
  assert(false && "invalid IEEE 1164 character");
  return Logic::X;
}

// IEEE 1164 resolution table, indexed [A][B].
// Order: U X 0 1 Z W L H -
Logic llhd::resolveLogic(Logic A, Logic B) {
  using enum Logic;
  static const Logic Table[NumLogic][NumLogic] = {
      //          U  X   0   1   Z  W  L  H  -
      /* U */ {U, U, U, U, U, U, U, U, U},
      /* X */ {U, X, X, X, X, X, X, X, X},
      /* 0 */ {U, X, L0, X, L0, L0, L0, L0, X},
      /* 1 */ {U, X, X, L1, L1, L1, L1, L1, X},
      /* Z */ {U, X, L0, L1, Z, W, L, H, X},
      /* W */ {U, X, L0, L1, W, W, W, W, X},
      /* L */ {U, X, L0, L1, L, W, L, W, X},
      /* H */ {U, X, L0, L1, H, W, W, H, X},
      /* - */ {U, X, X, X, X, X, X, X, X},
  };
  return Table[static_cast<unsigned>(A)][static_cast<unsigned>(B)];
}

Logic llhd::logicToX01(Logic A) {
  switch (A) {
  case Logic::L0: case Logic::L: return Logic::L0;
  case Logic::L1: case Logic::H: return Logic::L1;
  default:                       return Logic::X;
  }
}

Logic llhd::logicAnd(Logic A, Logic B) {
  Logic X01A = logicToX01(A), X01B = logicToX01(B);
  if (X01A == Logic::L0 || X01B == Logic::L0)
    return Logic::L0;
  if (A == Logic::U || B == Logic::U)
    return Logic::U;
  if (X01A == Logic::X || X01B == Logic::X)
    return Logic::X;
  return Logic::L1;
}

Logic llhd::logicOr(Logic A, Logic B) {
  Logic X01A = logicToX01(A), X01B = logicToX01(B);
  if (X01A == Logic::L1 || X01B == Logic::L1)
    return Logic::L1;
  if (A == Logic::U || B == Logic::U)
    return Logic::U;
  if (X01A == Logic::X || X01B == Logic::X)
    return Logic::X;
  return Logic::L0;
}

Logic llhd::logicXor(Logic A, Logic B) {
  if (A == Logic::U || B == Logic::U)
    return Logic::U;
  Logic X01A = logicToX01(A), X01B = logicToX01(B);
  if (X01A == Logic::X || X01B == Logic::X)
    return Logic::X;
  return X01A == X01B ? Logic::L0 : Logic::L1;
}

Logic llhd::logicNot(Logic A) {
  switch (logicToX01(A)) {
  case Logic::L0: return Logic::L1;
  case Logic::L1: return Logic::L0;
  default:        return A == Logic::U ? Logic::U : Logic::X;
  }
}

//===----------------------------------------------------------------------===//
// Packed nibble tables
//===----------------------------------------------------------------------===//

// The 9x9 IEEE tables, flattened to 256-entry nibble-pair lookups indexed
// (A << 4) | B so packed operands feed the table without decoding.
namespace {

struct PairTable {
  uint8_t T[256];
  template <typename Fn> explicit PairTable(Fn F) {
    for (unsigned A = 0; A != 16; ++A)
      for (unsigned B = 0; B != 16; ++B)
        T[(A << 4) | B] =
            A < NumLogic && B < NumLogic
                ? static_cast<uint8_t>(
                      F(static_cast<Logic>(A), static_cast<Logic>(B)))
                : 0;
  }
};

struct UnaryTable {
  uint8_t T[16];
  template <typename Fn> explicit UnaryTable(Fn F) {
    for (unsigned A = 0; A != 16; ++A)
      T[A] = A < NumLogic
                 ? static_cast<uint8_t>(F(static_cast<Logic>(A)))
                 : 0;
  }
};

const PairTable ResolveTable{[](Logic A, Logic B) {
  return resolveLogic(A, B);
}};
const PairTable AndTable{[](Logic A, Logic B) { return logicAnd(A, B); }};
const PairTable OrTable{[](Logic A, Logic B) { return logicOr(A, B); }};
const PairTable XorTable{[](Logic A, Logic B) { return logicXor(A, B); }};
const UnaryTable NotTable{[](Logic A) { return logicNot(A); }};

} // namespace

//===----------------------------------------------------------------------===//
// LogicVec
//===----------------------------------------------------------------------===//

LogicVec::LogicVec(const IntValue &V) : LogicVec(V.width(), Logic::L0) {
  // Spread each source bit into the 0/1 nibble pair: nibble = 2 + bit.
  for (unsigned WI = 0, E = numWords(); WI != E; ++WI) {
    uint64_t Bits = V.word(WI / 4) >> ((WI % 4) * 16);
    uint64_t Nibbles = 0;
    for (unsigned I = 0; I != 16; ++I)
      Nibbles |= (uint64_t(2) + ((Bits >> I) & 1)) << (I * 4);
    words()[WI] = Nibbles;
  }
  words()[numWords() - 1] &= maskOf(Width);
}

LogicVec LogicVec::fromString(const std::string &Str) {
  LogicVec V(Str.size());
  for (unsigned I = 0, E = Str.size(); I != E; ++I)
    V.setBit(E - 1 - I, logicFromChar(Str[I]));
  return V;
}

bool LogicVec::isFullyDefined() const {
  for (unsigned I = 0, E = Width; I != E; ++I)
    if (logicToX01(bit(I)) == Logic::X)
      return false;
  return true;
}

IntValue LogicVec::toIntValue(bool *HadUnknown) const {
  IntValue V(Width, 0);
  if (HadUnknown)
    *HadUnknown = false;
  for (unsigned I = 0, E = Width; I != E; ++I) {
    Logic L = logicToX01(bit(I));
    if (L == Logic::L1)
      V.setBit(I, true);
    else if (L != Logic::L0 && HadUnknown)
      *HadUnknown = true;
  }
  return V;
}

LogicVec LogicVec::mapPairs(const LogicVec &RHS, const uint8_t *Table) const {
  assert(Width == RHS.Width && "width mismatch");
  LogicVec R(Width);
  const uint64_t *A = words(), *B = RHS.words();
  uint64_t *Out = R.words();
  for (unsigned WI = 0, E = numWords(); WI != E; ++WI) {
    uint64_t WA = A[WI], WB = B[WI], W = 0;
    for (unsigned I = 0; I != 16; ++I) {
      unsigned Idx = ((WA >> (I * 4)) & 0xF) << 4 | ((WB >> (I * 4)) & 0xF);
      W |= uint64_t(Table[Idx]) << (I * 4);
    }
    Out[WI] = W;
  }
  Out[numWords() - 1] &= maskOf(Width);
  return R;
}

LogicVec LogicVec::resolve(const LogicVec &RHS) const {
  return mapPairs(RHS, ResolveTable.T);
}

LogicVec LogicVec::logicalAnd(const LogicVec &RHS) const {
  return mapPairs(RHS, AndTable.T);
}

LogicVec LogicVec::logicalOr(const LogicVec &RHS) const {
  return mapPairs(RHS, OrTable.T);
}

LogicVec LogicVec::logicalXor(const LogicVec &RHS) const {
  return mapPairs(RHS, XorTable.T);
}

LogicVec LogicVec::logicalNot() const {
  LogicVec R(Width);
  const uint64_t *A = words();
  uint64_t *Out = R.words();
  for (unsigned WI = 0, E = numWords(); WI != E; ++WI) {
    uint64_t WA = A[WI], W = 0;
    for (unsigned I = 0; I != 16; ++I)
      W |= uint64_t(NotTable.T[(WA >> (I * 4)) & 0xF]) << (I * 4);
    Out[WI] = W;
  }
  Out[numWords() - 1] &= maskOf(Width);
  return R;
}

LogicVec LogicVec::extractBits(unsigned Offset, unsigned Length) const {
  assert(Offset + Length <= Width && "extract out of range");
  LogicVec R(Length);
  if (Length == 0)
    return R; // Offset may equal the width: no source words to touch.
  if (Offset % 16 == 0) {
    // Word-aligned: straight word copy.
    for (unsigned WI = 0, E = R.numWords(); WI != E; ++WI)
      R.words()[WI] = words()[Offset / 16 + WI];
    R.words()[R.numWords() - 1] &= maskOf(Length);
    return R;
  }
  for (unsigned I = 0; I != Length; ++I)
    R.setBit(I, bit(Offset + I));
  return R;
}

LogicVec LogicVec::insertBits(unsigned Offset, const LogicVec &Src) const {
  assert(Offset + Src.width() <= Width && "insert out of range");
  LogicVec R = *this;
  for (unsigned I = 0; I != Src.width(); ++I)
    R.setBit(Offset + I, Src.bit(I));
  return R;
}

std::string LogicVec::toString() const {
  std::string S;
  S.reserve(Width);
  formatBits([&S](const char *P, size_t N) { S.append(P, N); });
  return S;
}

size_t LogicVec::hash() const {
  size_t H = std::hash<unsigned>()(Width);
  for (unsigned WI = 0, E = numWords(); WI != E; ++WI)
    H = H * 1000003u + std::hash<uint64_t>()(words()[WI]);
  return H;
}
