//===- support/Format.h - Allocation-free decimal formatting ----*- C++ -*-===//
//
// The digit formatter behind every runtime value's text form. Values
// render into a *sink*: any callable taking (const char *, size_t), called
// one or more times with consecutive pieces of the text. toString()
// passes a sink that appends to a std::string; the trace digest passes
// one that hashes the bytes in place, so both see exactly the same bytes
// and the digest never builds a string.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SUPPORT_FORMAT_H
#define LLHD_SUPPORT_FORMAT_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace llhd {

/// "00", "01", ..., "99": two decimal digits per table lookup.
struct DigitPairTable {
  char C[200];
  constexpr DigitPairTable() : C() {
    for (int I = 0; I != 100; ++I) {
      C[2 * I] = static_cast<char>('0' + I / 10);
      C[2 * I + 1] = static_cast<char>('0' + I % 10);
    }
  }
};
inline constexpr DigitPairTable DigitPairs;

/// Writes the decimal digits of \p V so that they end just before \p End
/// and returns the first digit. At most 20 characters are written.
inline char *formatU64(uint64_t V, char *End) {
  while (V >= 100) {
    unsigned R = static_cast<unsigned>(V % 100);
    V /= 100;
    End -= 2;
    std::memcpy(End, DigitPairs.C + 2 * R, 2);
  }
  if (V >= 10) {
    End -= 2;
    std::memcpy(End, DigitPairs.C + 2 * V, 2);
  } else {
    *--End = static_cast<char>('0' + V);
  }
  return End;
}

/// Streams the decimal form of \p V into \p Out.
template <typename Sink> void writeU64(uint64_t V, Sink &&Out) {
  char Buf[20];
  const char *B = formatU64(V, Buf + sizeof(Buf));
  Out(B, static_cast<size_t>(Buf + sizeof(Buf) - B));
}

} // namespace llhd

#endif // LLHD_SUPPORT_FORMAT_H
