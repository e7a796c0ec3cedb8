//===- support/LogicVec.h - IEEE 1164 nine-valued logic ---------*- C++ -*-===//
//
// Nine-valued logic values and vectors for LLHD `lN` types, following the
// IEEE 1164 standard logic system (std_ulogic/std_logic).
//
// Elements are packed four bits per logic value, sixteen to a 64-bit word,
// with the same small-size scheme as IntValue: vectors of up to sixteen
// elements live in one inline word, wider ones in a heap word array. The
// IEEE 1164 tables operate on the packed nibbles directly (9x9 tables
// flattened to 256-entry nibble-pair lookups).
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SUPPORT_LOGICVEC_H
#define LLHD_SUPPORT_LOGICVEC_H

#include "support/IntValue.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace llhd {

/// One IEEE 1164 logic value.
enum class Logic : uint8_t {
  U,  ///< Uninitialised.
  X,  ///< Forcing unknown.
  L0, ///< Forcing 0.
  L1, ///< Forcing 1.
  Z,  ///< High impedance.
  W,  ///< Weak unknown.
  L,  ///< Weak 0.
  H,  ///< Weak 1.
  DC, ///< Don't care ('-').
};

/// Renders a logic value as its IEEE 1164 character (U X 0 1 Z W L H -).
inline char logicToChar(Logic L) {
  return "UX01ZWLH-"[static_cast<unsigned>(L)];
}
/// Parses an IEEE 1164 character; asserts on invalid input.
Logic logicFromChar(char C);

/// IEEE 1164 `resolved` function: combines two drivers of one signal.
Logic resolveLogic(Logic A, Logic B);
/// IEEE 1164 `and`/`or`/`xor`/`not` tables.
Logic logicAnd(Logic A, Logic B);
Logic logicOr(Logic A, Logic B);
Logic logicXor(Logic A, Logic B);
Logic logicNot(Logic A);
/// `to_x01`: maps weak values onto their forcing equivalent, everything
/// else that is not 0/1 onto X.
Logic logicToX01(Logic A);

/// A fixed-width vector of nine-valued logic, bit 0 first (little-endian,
/// matching IntValue bit order), packed four bits per element. Nibbles
/// above the width are kept zero (Logic::U) so word-wise comparison and
/// hashing are canonical.
class LogicVec {
public:
  LogicVec() : Width(0), Word(0) {}
  /// Builds a vector of \p Width copies of \p Fill.
  explicit LogicVec(unsigned Width, Logic Fill = Logic::U) : Width(Width) {
    uint64_t Pattern = uint64_t(0x1111111111111111ull) *
                       static_cast<uint64_t>(Fill);
    if (isInline()) {
      Word = Pattern & maskOf(Width);
    } else {
      unsigned N = numWords();
      Ptr = new uint64_t[N];
      for (unsigned I = 0; I != N; ++I)
        Ptr[I] = Pattern;
      Ptr[N - 1] &= maskOf(Width);
    }
  }
  /// Builds from a two-state integer (bits become 0/1).
  explicit LogicVec(const IntValue &V);
  /// Parses from a string of 1164 characters, most-significant first.
  static LogicVec fromString(const std::string &Str);

  LogicVec(const LogicVec &RHS) : Width(RHS.Width) {
    if (isInline()) {
      Word = RHS.Word;
    } else {
      Ptr = new uint64_t[numWords()];
      std::memcpy(Ptr, RHS.Ptr, numWords() * sizeof(uint64_t));
    }
  }
  LogicVec(LogicVec &&RHS) noexcept : Width(RHS.Width), Word(RHS.Word) {
    RHS.Width = 0;
    RHS.Word = 0;
  }
  LogicVec &operator=(const LogicVec &RHS) {
    if (this == &RHS)
      return *this;
    if (!isInline() && !RHS.isInline() && numWords() == RHS.numWords()) {
      Width = RHS.Width;
      std::memcpy(Ptr, RHS.Ptr, numWords() * sizeof(uint64_t));
      return *this;
    }
    if (!isInline())
      delete[] Ptr;
    Width = RHS.Width;
    if (isInline()) {
      Word = RHS.Word;
    } else {
      Ptr = new uint64_t[numWords()];
      std::memcpy(Ptr, RHS.Ptr, numWords() * sizeof(uint64_t));
    }
    return *this;
  }
  LogicVec &operator=(LogicVec &&RHS) noexcept {
    if (this == &RHS)
      return *this;
    if (!isInline())
      delete[] Ptr;
    Width = RHS.Width;
    Word = RHS.Word;
    RHS.Width = 0;
    RHS.Word = 0;
    return *this;
  }
  ~LogicVec() {
    if (!isInline())
      delete[] Ptr;
  }

  unsigned width() const { return Width; }
  /// True if the elements live in the inline word (width <= 16).
  bool isInline() const { return Width <= 16; }
  unsigned numWords() const { return Width <= 16 ? 1 : (Width + 15) / 16; }

  Logic bit(unsigned I) const {
    assert(I < Width && "bit index out of range");
    return static_cast<Logic>((words()[I / 16] >> ((I % 16) * 4)) & 0xF);
  }
  void setBit(unsigned I, Logic L) {
    assert(I < Width && "bit index out of range");
    uint64_t &W = words()[I / 16];
    unsigned Sh = (I % 16) * 4;
    W = (W & ~(uint64_t(0xF) << Sh)) |
        (static_cast<uint64_t>(L) << Sh);
  }

  /// True if every bit is a forcing or weak 0/1.
  bool isFullyDefined() const;

  /// Converts to a two-state integer; non-01 bits read as 0 and set
  /// \p HadUnknown if provided.
  IntValue toIntValue(bool *HadUnknown = nullptr) const;

  LogicVec resolve(const LogicVec &RHS) const;
  LogicVec logicalAnd(const LogicVec &RHS) const;
  LogicVec logicalOr(const LogicVec &RHS) const;
  LogicVec logicalXor(const LogicVec &RHS) const;
  LogicVec logicalNot() const;

  LogicVec extractBits(unsigned Offset, unsigned Length) const;
  LogicVec insertBits(unsigned Offset, const LogicVec &Src) const;

  bool operator==(const LogicVec &RHS) const {
    if (Width != RHS.Width)
      return false;
    if (isInline())
      return Word == RHS.Word;
    return std::memcmp(Ptr, RHS.Ptr, numWords() * sizeof(uint64_t)) == 0;
  }
  bool operator!=(const LogicVec &RHS) const { return !(*this == RHS); }

  /// Renders most-significant bit first, e.g. "01XZ".
  std::string toString() const;
  /// Streams toString()'s bytes into \p Out (support/Format.h) in
  /// stack-buffered pieces.
  template <typename Sink> void formatBits(Sink &&Out) const {
    char Buf[64];
    size_t N = 0;
    for (unsigned I = Width; I-- > 0;) {
      Buf[N++] = logicToChar(bit(I));
      if (N == sizeof(Buf)) {
        Out(Buf, N);
        N = 0;
      }
    }
    if (N)
      Out(Buf, N);
  }

  size_t hash() const;

  /// Live-nibble mask of the top word of a \p W-element vector.
  static uint64_t maskOf(unsigned W) {
    unsigned Rem = W % 16;
    if (Rem == 0)
      return W == 0 ? 0 : ~uint64_t(0);
    return ~uint64_t(0) >> (64 - Rem * 4);
  }

private:
  const uint64_t *words() const { return isInline() ? &Word : Ptr; }
  uint64_t *words() { return isInline() ? &Word : Ptr; }

  /// Applies a 256-entry nibble-pair table to both operands, word-wise.
  LogicVec mapPairs(const LogicVec &RHS, const uint8_t *Table) const;

  unsigned Width;
  union {
    uint64_t Word; ///< Width <= 16 (also width 0).
    uint64_t *Ptr; ///< Width > 16: numWords() heap words.
  };
};

} // namespace llhd

#endif // LLHD_SUPPORT_LOGICVEC_H
