//===- jit/HostCompiler.h - Shared-object compilation ------------*- C++ -*-===//
//
// Compiles a generated C++ translation unit with the host toolchain and
// loads the resulting shared object. Discovery order for the compiler:
//
//   1. $LLHD_JIT_CXX — used verbatim when set; the empty string disables
//      JIT compilation entirely (the no-host-compiler test hook).
//   2. The compiler CMake recorded at configure time (LLHD_HOST_CXX),
//      when it still exists and is executable.
//   3. The first of c++ / g++ / clang++ found on PATH.
//
// The compiler is spawned directly (posix_spawnp, no shell), so paths
// need no quoting. Every failure mode — no compiler, unwritable or full
// temp dir, a failing compiler invocation, an unloadable or
// ABI-mismatched object — returns a result carrying the attempted
// command and the captured diagnostics instead of aborting, so the
// engine can log and fall back to interpretation.
//
// Loaded objects are cached process-wide by a hash of (compiler, flags,
// source) and never dlclosed: bound function pointers must outlive
// every engine. The cache (and the whole compile-and-load path) is
// serialized behind a mutex, so concurrent callers — batch instances
// racing to JIT one program — get exactly one compilation per distinct
// source. Setting $LLHD_JIT_CACHE
// to a directory additionally persists compiled objects across
// processes, published with an atomic tmp+rename so concurrent
// processes never observe a partial object.
//
//===----------------------------------------------------------------------===//

#ifndef LLHD_JIT_HOSTCOMPILER_H
#define LLHD_JIT_HOSTCOMPILER_H

#include <string>

namespace llhd {
namespace jit {

/// Outcome of one compile-and-load attempt.
struct CompileResult {
  /// dlopen handle, null on failure. Process lifetime; never dlclosed.
  void *Handle = nullptr;
  bool CompilerFound = false;
  std::string Compiler; ///< The discovered compiler, empty when none.
  std::string Command;  ///< The full invocation attempted, for logs.
  /// Captured compiler stderr/stdout, also on success; empty when the
  /// object came from a cache.
  std::string Diagnostics;
  std::string Error;    ///< Human-readable failure reason, empty on success.

  bool ok() const { return Handle != nullptr; }
};

class HostCompiler {
public:
  /// The compiler the next compile() will use; empty when disabled or
  /// none found.
  static std::string findCompiler();

  /// Compiles \p Source into a shared object in a fresh temp dir
  /// (respecting $LLHD_JIT_TMPDIR / $TMPDIR), dlopens it, and verifies
  /// the embedded ABI version. The temp dir is removed afterwards
  /// unless $LLHD_JIT_KEEP is set. Thread-safe: one compilation per
  /// distinct (compiler, flags, source) process-wide; with $LLHD_JIT_CACHE
  /// set, objects are reused across processes. Never throws, never
  /// aborts.
  static CompileResult compile(const std::string &Source);
};

} // namespace jit
} // namespace llhd

#endif // LLHD_JIT_HOSTCOMPILER_H
