//===- Compiler.h - End-to-end SPNC compilation driver ------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the compiler: takes an SPFlow-equivalent SPN
/// model plus a query description and produces a loaded, executable
/// kernel for the CPU or the (simulated) GPU — the equivalent of the
/// paper's single-API-call Python interface (§IV-A1). `compileModel` and
/// `loadCompiledKernel` are thin wrappers over the staged
/// `CompilationPipeline` (Pipeline.h) and the `ExecutionEngine` layer
/// (ExecutionEngine.h); compile-time statistics (per-stage, per-pass and
/// per-codegen-stage wall clock) feed the compile-time experiments
/// (paper §V-B).
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_RUNTIME_COMPILER_H
#define SPNC_RUNTIME_COMPILER_H

#include "runtime/ExecutionEngine.h"
#include "runtime/Pipeline.h"
#include "support/Expected.h"
#include "support/LogicalResult.h"

#include <cassert>
#include <memory>
#include <string>

namespace spnc {
namespace runtime {

/// A compiled, loaded query kernel ready for execution. A thin handle on
/// a shared, immutable ExecutionEngine plus the weight table that makes
/// the engine answer for one model: the kernel cache shares one engine
/// among structurally-isomorphic models, each with its own table
/// (docs/merging.md). Copying a CompiledKernel shares the engine, and
/// `run` is safe to call from multiple threads.
class CompiledKernel {
public:
  CompiledKernel() = default;
  /// A kernel over \p TheEngine answering under weight table
  /// \p TheTableIndex (-1: the parameters the engine was built from).
  explicit CompiledKernel(std::shared_ptr<ExecutionEngine> TheEngine,
                          int32_t TheTableIndex = -1)
      : Engine(std::move(TheEngine)), TableIndex(TheTableIndex) {}

  /// Runs \p Request on the engine; false when the kernel does not
  /// serve it (see ExecutionEngine::run). A joint/marginal request that
  /// names no weight table runs under the kernel's own.
  bool run(const RunRequest &Request,
           ExecutionStats *Stats = nullptr) const {
    if (TableIndex < 0 || Request.hasTables() ||
        !spn::isLikelihood(Request.Kind))
      return Engine->run(Request, Stats);
    RunRequest Own = Request;
    Own.Table = TableIndex;
    return Engine->run(Own, Stats);
  }

  /// Shorthand for a joint request: \p Output receives one
  /// (log-)probability per sample of \p Input ([sample][feature]
  /// doubles; NaN features are marginalized when the kernel was compiled
  /// for them), \p Stats the per-call statistics (wall clock, and the
  /// simulated device breakdown for GPU engines) when provided.
  void execute(const double *Input, double *Output, size_t NumSamples,
               ExecutionStats *Stats = nullptr) const {
    [[maybe_unused]] bool Served = run(
        {.Input = Input, .Output = Output, .NumSamples = NumSamples}, Stats);
    assert(Served && "kernel does not serve joint requests");
  }

  /// Shorthand for a joint request whose row I is evaluated under the
  /// weight table \p TableIndices[I] of the shared engine
  /// (docs/merging.md). Returns false, writing nothing, when the kernel
  /// has no weight tables or an index is unknown.
  bool executeIndexed(const double *Input, const uint32_t *TableIndices,
                      double *Output, size_t NumSamples,
                      ExecutionStats *Stats = nullptr) const {
    return run({.Input = Input,
                .Output = Output,
                .NumSamples = NumSamples,
                .TableIndices = TableIndices},
               Stats);
  }

  Target getTarget() const { return Engine->getTarget(); }

  /// The engine's weight table this kernel answers under, -1 for the
  /// parameters the engine was built from.
  int32_t getTableIndex() const { return TableIndex; }

  /// The compiled program the engine was built from, holding the
  /// parameters of the model that compiled it (saveCompiledKernel writes
  /// this kernel's own binding); only valid for kernels backed by a
  /// compiled engine (always the case for compileModel /
  /// loadCompiledKernel / KernelCache results).
  const vm::KernelProgram &getProgram() const {
    const vm::KernelProgram *Program = Engine->getProgram();
    assert(Program && "engine has no compiled program");
    return *Program;
  }

  /// The underlying engine (shared with every copy of this kernel).
  const ExecutionEngine &getEngine() const { return *Engine; }
  const std::shared_ptr<ExecutionEngine> &getEngineShared() const {
    return Engine;
  }

private:
  std::shared_ptr<ExecutionEngine> Engine;
  int32_t TableIndex = -1;
};

/// Compiles \p TheModel for the query \p Config under \p Options. The
/// single-call analog of the paper's Python API; equivalent to building a
/// CompilationPipeline and running it once.
Expected<CompiledKernel> compileModel(const spn::Model &TheModel,
                                      const spn::QueryConfig &Config,
                                      const CompilerOptions &Options,
                                      CompileStats *Stats = nullptr);

/// Saves the kernel's compiled program, bound to the kernel's own weight
/// table, to \p Path in the current `.spnk` format
/// (vm::kProgramBinaryVersion, see docs/spnk-format.md) — the
/// analog of keeping the emitted object file around, enabling
/// compile-once/run-many. The write is atomic (replaceFileAtomically):
/// the blob goes to a temporary sibling of this writer's own that is
/// renamed over \p Path only after a complete write, so a failure never
/// leaves a truncated kernel behind. On failure, \p ErrorMessage (when
/// non-null) receives an errno-based reason. Thread-safe, also for one
/// path.
LogicalResult saveCompiledKernel(const CompiledKernel &Kernel,
                                 const std::string &Path,
                                 std::string *ErrorMessage = nullptr);

/// Loads a program saved by saveCompiledKernel and wraps it in an
/// executor. Only the current format version loads, and the content
/// checksum and every index in the program are checked before it is
/// trusted: truncated, bit-rotted or malformed files fail with an error
/// instead of executing garbage or reading out of bounds (see
/// vm::decodeProgram). With Target::Auto (the default) the engine
/// matching the recorded lowering target is selected: kernels lowered
/// with table lookups run on the CPU executor, select-cascade kernels on
/// the GPU simulator. An explicit target always wins — programs are
/// target-independent and run on either engine — but a warning is
/// printed when it contradicts the recorded lowering.
Expected<CompiledKernel> loadCompiledKernel(
    const std::string &Path, Target TheTarget = Target::Auto,
    vm::ExecutionConfig Execution = {},
    gpusim::GpuDeviceConfig Device = {}, unsigned GpuBlockSize = 0);

} // namespace runtime
} // namespace spnc

#endif // SPNC_RUNTIME_COMPILER_H
