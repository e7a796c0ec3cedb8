//===- bench/BenchUtil.h - Shared bench helpers ------------------*- C++ -*-===//

#ifndef LLHD_BENCH_BENCHUTIL_H
#define LLHD_BENCH_BENCHUTIL_H

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>

namespace llhd_bench {

/// Wall-clock seconds of one callable.
template <typename Fn> double timeIt(Fn &&F) {
  auto Start = std::chrono::steady_clock::now();
  F();
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(End - Start).count();
}

/// Validates a bench's command line before anything runs. \p Spec lists
/// the accepted flags: "name" is a bare switch, "name=" takes a string
/// and "name=#" a non-negative number, parsed in full. Returns -1 to go
/// on, else the exit code: 0 after printing \p Usage for --help, 64
/// after printing it for an unknown flag or a malformed number.
inline int checkArgs(int Argc, char **Argv, const char *Usage,
                     std::initializer_list<const char *> Spec) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--help") {
      fputs(Usage, stdout);
      return 0;
    }
    std::string Problem = "unknown flag '" + A + "'";
    size_t Eq = A.find('=');
    std::string Name = A.substr(0, Eq);
    for (const char *S : Spec) {
      std::string Flag = "--" + std::string(S);
      if (Eq == std::string::npos ? Flag == Name : Flag == Name + "=") {
        Problem.clear();
      } else if (Eq != std::string::npos && Flag == Name + "=#") {
        const char *V = A.c_str() + Eq + 1;
        char *End = nullptr;
        double D = strtod(V, &End);
        bool Ok = *V && *End == '\0' && std::isfinite(D) && D >= 0;
        Problem = Ok ? "" : "malformed number in '" + A + "'";
      }
      if (Problem.empty())
        break;
    }
    if (!Problem.empty()) {
      fprintf(stderr, "%s: %s\n%s", Argv[0], Problem.c_str(), Usage);
      return 64;
    }
  }
  return -1;
}

/// Parses "--scale=<float>" style flags.
inline double argFloat(int Argc, char **Argv, const std::string &Name,
                       double Default) {
  std::string Prefix = "--" + Name + "=";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind(Prefix, 0) == 0)
      return std::stod(A.substr(Prefix.size()));
  }
  return Default;
}

/// Parses "--name=<string>" style flags.
inline std::string argStr(int Argc, char **Argv, const std::string &Name,
                          const std::string &Default) {
  std::string Prefix = "--" + Name + "=";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind(Prefix, 0) == 0)
      return A.substr(Prefix.size());
  }
  return Default;
}

inline bool argFlag(int Argc, char **Argv, const std::string &Name) {
  std::string Flag = "--" + Name;
  for (int I = 1; I < Argc; ++I)
    if (Flag == Argv[I])
      return true;
  return false;
}

/// Counts non-empty lines (the "LoC" metric of Tables 2 and 4).
inline unsigned locOf(const std::string &Src) {
  unsigned N = 0;
  bool NonEmpty = false;
  for (char C : Src) {
    if (C == '\n') {
      N += NonEmpty;
      NonEmpty = false;
    } else if (C != ' ' && C != '\t') {
      NonEmpty = true;
    }
  }
  return N + NonEmpty;
}

} // namespace llhd_bench

#endif // LLHD_BENCH_BENCHUTIL_H
