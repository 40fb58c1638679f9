//===- VmBackend.h - Bytecode-VM compilation backend --------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The default backend: the existing bytecode path, re-homed behind the
/// `Backend` interface. Compilation is exactly the pipeline's portable
/// `vm::KernelProgram`; materialization constructs the interpreting
/// engine the validated target selects — `vm::CpuExecutor` for the CPU,
/// `gpusim::GpuExecutor` for the simulated GPU (what used to be
/// `CompilationPipeline::makeEngine`).
///
/// Header-only on purpose: the runtime layer (Compiler, KernelCache)
/// instantiates the VM backend as its default without a link-time
/// dependency on the backend library above it.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_BACKEND_VMBACKEND_H
#define SPNC_BACKEND_VMBACKEND_H

#include "backend/Backend.h"
#include "gpusim/GpuSimulator.h"
#include "support/Hashing.h"
#include "vm/Executor.h"
#include "vm/ProgramBinary.h"

namespace spnc {
namespace backend {

/// Executes kernels on the VM's block bytecode engine (the CPU executor
/// or the simulated GPU device). Always available; supports both
/// targets.
class VmBackend : public Backend {
public:
  std::string getName() const override { return "vm"; }

  std::vector<runtime::Target> supportedTargets() const override {
    return {runtime::Target::CPU, runtime::Target::GPU};
  }

  /// The artifact is the portable program itself, interpreted; the
  /// binary-format version is the only thing that can change it.
  uint64_t artifactFingerprint() const override {
    WordHasher Hash;
    Hash.addFields(xxh64("vm", 2), vm::kProgramBinaryVersion);
    return Hash.finish();
  }

  Expected<std::shared_ptr<runtime::ExecutionEngine>>
  materialize(vm::KernelProgram Program,
              const runtime::PipelineConfig &Config,
              runtime::CompileStats * = nullptr) const override {
    const runtime::CompilerOptions &O = Config.getOptions();
    if (std::optional<Error> Err = validateTarget(O.TheTarget))
      return *Err;
    std::shared_ptr<runtime::ExecutionEngine> Engine;
    if (O.TheTarget == runtime::Target::GPU)
      Engine = std::make_shared<gpusim::GpuExecutor>(
          std::move(Program), O.Device, O.GpuBlockSize);
    else
      Engine = std::make_shared<vm::CpuExecutor>(std::move(Program),
                                                 O.Execution);
    return Engine;
  }
};

} // namespace backend
} // namespace spnc

#endif // SPNC_BACKEND_VMBACKEND_H
