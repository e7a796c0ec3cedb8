//===- support/Time.cpp - Simulation time values -------------------------===//

#include "support/Time.h"

#include <cctype>

using namespace llhd;

std::string Time::toString() const {
  std::string S;
  format([&S](const char *P, size_t N) { S.append(P, N); });
  return S;
}

bool Time::parse(const std::string &Str, Time &Out) {
  Out = Time();
  size_t I = 0;
  auto skipSpace = [&] {
    while (I < Str.size() && std::isspace(static_cast<unsigned char>(Str[I])))
      ++I;
  };
  // Rejects (instead of silently wrapping) numbers beyond uint64_t.
  auto parseNum = [&](uint64_t &N) {
    if (I >= Str.size() || !std::isdigit(static_cast<unsigned char>(Str[I])))
      return false;
    N = 0;
    while (I < Str.size() && std::isdigit(static_cast<unsigned char>(Str[I]))) {
      unsigned Digit = Str[I++] - '0';
      if (N > (~uint64_t(0) - Digit) / 10)
        return false;
      N = N * 10 + Digit;
    }
    return true;
  };

  skipSpace();
  uint64_t N;
  if (!parseNum(N))
    return false;

  // Physical unit suffix.
  uint64_t Scale;
  if (Str.compare(I, 2, "fs") == 0) {
    Scale = 1;
    I += 2;
  } else if (Str.compare(I, 2, "ps") == 0) {
    Scale = 1000;
    I += 2;
  } else if (Str.compare(I, 2, "ns") == 0) {
    Scale = 1000000;
    I += 2;
  } else if (Str.compare(I, 2, "us") == 0) {
    Scale = 1000000000ull;
    I += 2;
  } else if (Str.compare(I, 2, "ms") == 0) {
    Scale = 1000000000000ull;
    I += 2;
  } else if (I < Str.size() && Str[I] == 's') {
    Scale = 1000000000000000ull;
    I += 1;
  } else {
    return false;
  }
  // Large ms/s counts can exceed the femtosecond range; fail instead of
  // wrapping uint64_t (e.g. "20000s" > ~18446s of femtoseconds).
  if (N != 0 && N > ~uint64_t(0) / Scale)
    return false;
  Out.Fs = N * Scale;

  // Optional delta and epsilon counts: "<n>d" then "<n>e". The counters
  // are 32-bit; larger literals are malformed, not truncated.
  skipSpace();
  if (I < Str.size() && std::isdigit(static_cast<unsigned char>(Str[I]))) {
    size_t Save = I;
    if (parseNum(N) && N <= ~uint32_t(0) && I < Str.size() &&
        Str[I] == 'd') {
      Out.Delta = static_cast<uint32_t>(N);
      ++I;
    } else {
      I = Save;
    }
  }
  skipSpace();
  if (I < Str.size() && std::isdigit(static_cast<unsigned char>(Str[I]))) {
    size_t Save = I;
    if (parseNum(N) && N <= ~uint32_t(0) && I < Str.size() &&
        Str[I] == 'e') {
      Out.Eps = static_cast<uint32_t>(N);
      ++I;
    } else {
      I = Save;
    }
  }
  // Strict tail: nothing but whitespace may remain ("1ns xyz" is
  // malformed, as is a dangling "3" after the epsilon count).
  skipSpace();
  return I == Str.size();
}
