//===- CppBackend.h - AOT native backend via C++ source emission --------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "true native" backend the paper's LLVM pipeline corresponds to:
/// the compiled `vm::KernelProgram` is emitted as C++ translation units
/// (CppEmitter.h), one per CPU the process may run on at most, which the
/// host toolchain compiles concurrently and links into one shared
/// object, `dlopen`ed behind the standard
/// `ExecutionEngine` interface — so the serving layer, the CLI and
/// every bench run native kernels unmodified. The kernel evaluates
/// blocks of W rows in W-lane vector code, W being the pipeline's
/// `ExecutionConfig::VectorWidth` (capped at one 64-byte register, so
/// 16 f64 lanes run as 8), with the arithmetic of the VM's block engine
/// for every query kind; the per-block upward pass of an MPE or sampling
/// kernel hands each row its lane for the shared downward pass
/// (vm::completeRows). CPU only; requesting
/// the GPU target fails with a validateTarget diagnostic. Unavailable
/// hosts (no compiler on PATH, non-POSIX) are reported through
/// isAvailable() so callers can skip gracefully.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_BACKEND_CPPBACKEND_H
#define SPNC_BACKEND_CPPBACKEND_H

#include "backend/Backend.h"

#include <mutex>
#include <optional>

namespace spnc {
namespace backend {

/// Host-toolchain configuration of the CppBackend.
struct CppBackendOptions {
  /// Host C++ compiler; empty selects $CXX, falling back to "c++".
  std::string CompilerPath;
  /// Optimization/codegen flags passed to every compile
  /// ("-std=c++17 ... -fPIC -c") and to the link ("... -fPIC -shared").
  /// Part of the artifact fingerprint.
  std::vector<std::string> ExtraFlags = {"-O2", "-march=native"};
  /// Directory for emitted sources and shared objects; empty uses a
  /// fresh mkdtemp directory per kernel, removed when the engine dies.
  std::string WorkDir;
  /// Keep the generated units, objects, .so and compiler logs instead of
  /// cleaning up (debugging aid; implied for kernels built under
  /// WorkDir).
  bool KeepArtifacts = false;
};

/// Compiles kernels ahead-of-time into native shared objects.
class CppBackend : public Backend {
public:
  CppBackend() = default;
  explicit CppBackend(CppBackendOptions TheOptions)
      : Options(std::move(TheOptions)) {}

  std::string getName() const override { return "cpp"; }

  std::vector<runtime::Target> supportedTargets() const override {
    return {runtime::Target::CPU};
  }

  uint64_t artifactFingerprint() const override;

  /// Probes the host toolchain once (result cached): a POSIX host with
  /// a working compiler on PATH.
  bool isAvailable(std::string *Reason = nullptr) const override;

  /// Emits, compiles, links and loads \p Program; with \p Stats,
  /// records the cpp-emit, cpp-compile and cpp-link-load stages.
  Expected<std::shared_ptr<runtime::ExecutionEngine>>
  materialize(vm::KernelProgram Program,
              const runtime::PipelineConfig &Config,
              runtime::CompileStats *Stats = nullptr) const override;

  const CppBackendOptions &getOptions() const { return Options; }

  /// The compiler command actually invoked ($CXX / "c++" resolution
  /// applied).
  std::string resolveCompiler() const;

private:
  CppBackendOptions Options;
  /// Availability probe result, filled on first isAvailable() call.
  mutable std::mutex ProbeMutex;
  mutable std::optional<std::string> ProbeFailure;
  mutable bool Probed = false;
};

} // namespace backend
} // namespace spnc

#endif // SPNC_BACKEND_CPPBACKEND_H
