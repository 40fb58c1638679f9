//===- Backend.h - Abstract compilation backend interface ---------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seam between the target-independent compilation pipeline and the
/// ways a compiled kernel can actually run. A `Backend` turns the
/// pipeline's portable `vm::KernelProgram` into a loaded
/// `ExecutionEngine` (`materialize`, the one step each backend
/// implements) — the bytecode engine (`VmBackend`), or a natively
/// compiled shared object (`CppBackend`) — and contributes an
/// `artifactFingerprint()` to the kernel-cache key so kernels produced
/// by different backends never alias.
///
/// Like runtime/ExecutionEngine.h, this header is deliberately
/// header-only and link-free: the interface lives above the runtime
/// pipeline it consumes, while concrete backends (and lookupBackend) are
/// free to pull in whatever execution machinery they need. Target
/// validation is part of the interface — `validateTarget` turns a
/// request for an unsupported target into a clear diagnostic instead of
/// a silent fallback.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_BACKEND_BACKEND_H
#define SPNC_BACKEND_BACKEND_H

#include "runtime/ExecutionEngine.h"
#include "runtime/Pipeline.h"
#include "support/Expected.h"

#include <memory>
#include <string>
#include <vector>

namespace spnc {
namespace backend {

/// Abstract compilation backend. Implementations must be immutable
/// after construction: `compile` and `materialize` may be called
/// concurrently from many threads (the kernel cache does exactly that).
class Backend {
public:
  virtual ~Backend() = default;

  /// Stable, unique backend name; the user-facing `--backend` spelling
  /// (see lookupBackend). Thread-safe.
  virtual std::string getName() const = 0;

  /// The targets this backend can produce engines for. Thread-safe;
  /// constant for the backend's lifetime.
  virtual std::vector<runtime::Target> supportedTargets() const = 0;

  /// True when \p TheTarget is in supportedTargets().
  bool supportsTarget(runtime::Target TheTarget) const {
    for (runtime::Target T : supportedTargets())
      if (T == TheTarget)
        return true;
    return false;
  }

  /// Checks \p TheTarget against supportedTargets(); on mismatch
  /// returns a diagnostic naming the backend, the requested target and
  /// the supported set — requesting Target::GPU from a CPU-only
  /// backend fails loudly instead of silently falling back.
  std::optional<Error> validateTarget(runtime::Target TheTarget) const {
    if (supportsTarget(TheTarget))
      return std::nullopt;
    std::string Supported;
    for (runtime::Target T : supportedTargets()) {
      if (!Supported.empty())
        Supported += ", ";
      Supported += runtime::targetName(T);
    }
    return makeError("backend '" + getName() + "' does not support target '" +
                     runtime::targetName(TheTarget) +
                     "'; supported targets: " + Supported);
  }

  /// Stable fingerprint over everything that changes the produced
  /// artifact beyond the (model, query, pipeline-config) key: the
  /// backend identity, its code-emission version, host-toolchain
  /// flags, ... Folded into kernel-cache keys. Thread-safe.
  virtual uint64_t artifactFingerprint() const = 0;

  /// True when the backend can run on this host. Backends with external
  /// requirements (a host compiler, dlopen) override this; \p Reason,
  /// when non-null, receives a human-readable explanation on false.
  /// Thread-safe.
  virtual bool isAvailable(std::string *Reason = nullptr) const {
    (void)Reason;
    return true;
  }

  /// Compiles \p Model for \p Query by running \p Pipeline and lowering
  /// the resulting program into a loaded engine. The pipeline is
  /// caller-prepared (validated config, diagnostics already switched
  /// on). The target and the backend's availability are
  /// checked before the pipeline runs, so an unsupported target
  /// (validateTarget diagnostic) or a missing toolchain ("<name> backend
  /// unavailable: <reason>") fails without spending pipeline time.
  /// Fails on pipeline and backend-specific lowering errors too.
  /// Thread-safe.
  Expected<std::shared_ptr<runtime::ExecutionEngine>>
  compile(const runtime::CompilationPipeline &Pipeline,
          const spn::Model &Model, const spn::QueryConfig &Query,
          runtime::CompileStats *Stats = nullptr) const {
    if (std::optional<Error> Err =
            validateTarget(Pipeline.getConfig().getOptions().TheTarget))
      return *Err;
    std::string Reason;
    if (!isAvailable(&Reason))
      return makeError(getName() + " backend unavailable: " + Reason);
    Expected<vm::KernelProgram> Program =
        Pipeline.compile(Model, Query, Stats);
    if (!Program)
      return Program.getError();
    return materialize(Program.takeValue(), Pipeline.getConfig(), Stats);
  }

  /// Turns a compiled portable program (the pipeline's output, or a
  /// `.spnk` disk-cache hit) into a loaded engine under \p Config. With
  /// \p Stats, a backend that builds on the host adds its build stages.
  /// May fail for backends that re-lower the program on the host
  /// (missing toolchain); the kernel cache treats such failures like
  /// disk corruption and recompiles. Thread-safe.
  virtual Expected<std::shared_ptr<runtime::ExecutionEngine>>
  materialize(vm::KernelProgram Program,
              const runtime::PipelineConfig &Config,
              runtime::CompileStats *Stats = nullptr) const = 0;
};

} // namespace backend
} // namespace spnc

#endif // SPNC_BACKEND_BACKEND_H
