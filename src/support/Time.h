//===- support/Time.h - Simulation time values ------------------*- C++ -*-===//
//
// LLHD `time` values: a physical time in femtoseconds plus two sub-physical
// orderings, the delta step (signal propagation rounds at a fixed physical
// time) and the epsilon step (ordering within one delta, used by `del`).
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_SUPPORT_TIME_H
#define LLHD_SUPPORT_TIME_H

#include "support/Format.h"

#include <cstdint>
#include <string>
#include <tuple>

namespace llhd {

/// A point in (or span of) simulation time.
struct Time {
  uint64_t Fs = 0;    ///< Physical time in femtoseconds.
  uint32_t Delta = 0; ///< Delta step within the physical time.
  uint32_t Eps = 0;   ///< Epsilon step within the delta.

  constexpr Time() = default;
  constexpr Time(uint64_t Fs, uint32_t Delta = 0, uint32_t Eps = 0)
      : Fs(Fs), Delta(Delta), Eps(Eps) {}

  /// Convenience constructors for common units.
  static constexpr Time fs(uint64_t V) { return Time(V); }
  static constexpr Time ps(uint64_t V) { return Time(V * 1000); }
  static constexpr Time ns(uint64_t V) { return Time(V * 1000000); }
  static constexpr Time us(uint64_t V) { return Time(V * 1000000000); }
  static constexpr Time delta(uint32_t D = 1) { return Time(0, D); }
  static constexpr Time eps(uint32_t E = 1) { return Time(0, 0, E); }

  bool isZero() const { return Fs == 0 && Delta == 0 && Eps == 0; }

  /// Adds a time span to a time point. A nonzero physical span resets the
  /// delta/epsilon counters of the result (a new physical instant starts
  /// at delta 0).
  Time advance(const Time &Span) const {
    if (Span.Fs != 0)
      return Time(Fs + Span.Fs, Span.Delta, Span.Eps);
    if (Span.Delta != 0)
      return Time(Fs, Delta + Span.Delta, Span.Eps);
    return Time(Fs, Delta, Eps + Span.Eps);
  }

  auto tie() const { return std::tie(Fs, Delta, Eps); }
  bool operator==(const Time &RHS) const { return tie() == RHS.tie(); }
  bool operator!=(const Time &RHS) const { return tie() != RHS.tie(); }
  bool operator<(const Time &RHS) const { return tie() < RHS.tie(); }
  bool operator<=(const Time &RHS) const { return tie() <= RHS.tie(); }
  bool operator>(const Time &RHS) const { return tie() > RHS.tie(); }
  bool operator>=(const Time &RHS) const { return tie() >= RHS.tie(); }

  /// Renders like the assembly format, e.g. "1ns", "100ps 2d 1e".
  std::string toString() const;
  /// Streams toString()'s bytes into \p Out (support/Format.h). The unit
  /// is the largest that divides the femtosecond count evenly.
  template <typename Sink> void format(Sink &&Out) const {
    static constexpr struct {
      const char *Suffix;
      size_t Len;
      uint64_t Scale;
    } Units[] = {{"s", 1, 1000000000000000ull}, {"ms", 2, 1000000000000ull},
                 {"us", 2, 1000000000ull},      {"ns", 2, 1000000ull},
                 {"ps", 2, 1000ull},            {"fs", 2, 1ull}};
    for (const auto &U : Units) {
      if (Fs % U.Scale == 0) {
        writeU64(Fs / U.Scale, Out);
        Out(U.Suffix, U.Len);
        break;
      }
    }
    if (Delta != 0) {
      Out(" ", 1);
      writeU64(Delta, Out);
      Out("d", 1);
    }
    if (Eps != 0) {
      Out(" ", 1);
      writeU64(Eps, Out);
      Out("e", 1);
    }
  }

  /// Parses a physical time with unit suffix (fs/ps/ns/us/ms/s) and
  /// optional "Nd"/"Ne" suffixes, e.g. "2ns", "0s 1d". Returns false on
  /// malformed input.
  static bool parse(const std::string &Str, Time &Out);
};

} // namespace llhd

#endif // LLHD_SUPPORT_TIME_H
