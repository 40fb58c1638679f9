//===- Pipeline.h - Staged compilation pipeline -------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staged compilation pipeline behind `runtime::compileModel`: a
/// `CompilationPipeline` is built once from a validated `PipelineConfig`
/// and runs the paper's fixed stage list (§IV): translate -> ir-pipeline
/// -> codegen, plus binary-encode on the GPU target. Three built-in
/// diagnostics (ir-dump, verify, stage-report) can be switched on; each
/// observes the module after a stage and never changes the compiled
/// program. The pipeline times every stage into `CompileStats` and
/// produces a portable `vm::KernelProgram`; turning that program into a
/// loaded `ExecutionEngine` is the job of a `backend::Backend`
/// (backend/Backend.h). Benchmarks, the CLI and the kernel cache all
/// drive this one object instead of re-assembling pass lists and
/// options by hand.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_RUNTIME_PIPELINE_H
#define SPNC_RUNTIME_PIPELINE_H

#include "codegen/Codegen.h"
#include "frontend/Model.h"
#include "frontend/Query.h"
#include "gpusim/GpuSimulator.h"
#include "ir/PassManager.h"
#include "partition/Partitioner.h"
#include "runtime/ExecutionEngine.h"
#include "support/Expected.h"
#include "vm/Executor.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace spnc {
namespace runtime {

/// All user-facing knobs of the compiler, mirroring the parameters the
/// paper's Python interface exposes (§V-B1).
struct CompilerOptions {
  Target TheTarget = Target::CPU;
  /// Optimization level 0..3 (paper Figs. 11/13): 0 disables the IR
  /// canonicalization/CSE and all codegen optimization; higher levels
  /// enable progressively more work.
  unsigned OptLevel = 1;
  /// Maximum SPN operations per task; 0 disables partitioning
  /// (paper Figs. 10/12).
  uint32_t MaxPartitionSize = 0;
  /// CPU execution configuration (vectorization design space, Fig. 6).
  vm::ExecutionConfig Execution;
  /// GPU device model and block size (0 = occupancy-optimal default,
  /// paper §V-A1).
  gpusim::GpuDeviceConfig Device;
  unsigned GpuBlockSize = 0;
  /// Keep intermediate buffers on the GPU between tasks (paper §IV-C).
  bool GpuTransferElimination = true;
  /// Write returned task results directly into kernel outputs
  /// (paper §IV-A5); disable only for the ablation.
  bool AvoidBufferCopies = true;
  partition::PartitionOptions Partitioning;
};

/// Wall clock of one executed pipeline stage.
struct StageTiming {
  std::string Name;
  uint64_t WallNs = 0;
};

/// Operation count of the module observed after a named stage (recorded
/// by the built-in "stage-report" diagnostic stages).
struct StageOpCount {
  /// The stage after which the module was measured.
  std::string Stage;
  /// Operations in the module at that point.
  size_t NumOps = 0;
};

/// Compile-time measurements (the paper's §V-B1 breakdown).
struct CompileStats {
  /// Wall clock per named pipeline stage, in execution order (includes
  /// the enabled diagnostic stages).
  std::vector<StageTiming> Stages;
  /// Module op counts per stage; populated by enableStageReport().
  std::vector<StageOpCount> OpCounts;
  /// Per-pass wall clock of the IR pipeline.
  std::vector<ir::PassTiming> PassTimings;
  /// Codegen stage breakdown (isel / regalloc / peephole / scheduling).
  codegen::CodegenTimings Codegen;
  /// Model-to-HiSPN translation time.
  uint64_t TranslationNs = 0;
  /// Device binary assembly time (the CUBIN-encoding analog, GPU only).
  uint64_t BinaryEncodeNs = 0;
  /// End-to-end compilation wall clock, including the teardown of the
  /// IR module and its context after the last stage (so it exceeds the
  /// sum of Stages).
  uint64_t TotalNs = 0;
  size_t NumTasks = 0;
  size_t NumInstructions = 0;
};

/// A validated, immutable compiler configuration. `create` is the single
/// validation point for every user-facing knob: a PipelineConfig always
/// describes a buildable pipeline (Target::Auto is resolved to the CPU,
/// zero thread counts are normalized, out-of-range knobs are rejected
/// with a message).
class PipelineConfig {
public:
  /// Validates \p Options; fails with a descriptive message on any
  /// out-of-range knob (e.g. OptLevel > 3, unsupported vector width,
  /// and for a GPU target a simulated-device field that is zero, NaN,
  /// infinite or negative where the simulator cannot use it; the
  /// message names the field). Thread-safe.
  static Expected<PipelineConfig> create(CompilerOptions Options);

  /// The validated, normalized options. Thread-safe; the reference is
  /// valid for the config's lifetime.
  const CompilerOptions &getOptions() const { return Options; }

  /// Stable structural hash over the knobs the pipeline or the target's
  /// engine reads, and no others (the partitioner's options only when
  /// partitioning is on, the GPU device options only on the GPU target,
  /// the CPU execution options only on the CPU); one of the four
  /// kernel-cache key components. Thread-safe; never fails.
  uint64_t hash() const;

private:
  explicit PipelineConfig(CompilerOptions O) : Options(std::move(O)) {}
  CompilerOptions Options;
};

/// Introspectable description of one pipeline stage.
struct PipelineStage {
  /// Stable stage name, unique within a pipeline. Core stages:
  /// "translate", "ir-pipeline", "codegen", "binary-encode"; the
  /// built-in diagnostics are named "ir-dump:<stage>", "verify:<stage>"
  /// and "stage-report:<stage>" after the core stage they observe.
  std::string Name;
  /// Human-readable summary of the work the stage will perform under the
  /// pipeline's configuration (e.g. the pass list of "ir-pipeline").
  std::string Detail;
  /// True for the observing stages (IR dumps, verification, op-count
  /// reports), which never change the compilation result.
  bool Diagnostic = false;
};

/// The staged compile path (paper §IV): translate -> IR pipeline ->
/// codegen -> binary encode (GPU). The stage list is fixed by the
/// configuration; after each core stage the enabled diagnostics run, in
/// the order ir-dump, verify, stage-report. Built once from a validated
/// config and reusable across models; `compile` may be called
/// concurrently from multiple threads. Enabling a diagnostic is NOT
/// thread-safe: do it before the first compile().
class CompilationPipeline {
public:
  /// Validates \p Options and builds the pipeline. Fails exactly when
  /// PipelineConfig::create fails (invalid knobs); a returned pipeline
  /// is always runnable. Thread-safe.
  static Expected<CompilationPipeline> create(CompilerOptions Options);

  /// Builds the pipeline from an already-validated config; never fails.
  explicit CompilationPipeline(PipelineConfig TheConfig);

  /// The validated configuration. Thread-safe; valid for the pipeline's
  /// lifetime.
  const PipelineConfig &getConfig() const { return Config; }

  /// The stages compile() runs, in execution order, diagnostics
  /// included. Thread-safe once the diagnostics are set up.
  const std::vector<PipelineStage> &getStages() const { return Stages; }

  /// Built-in diagnostic: a "verify:<stage>" stage after every core
  /// stage runs `ir::verify` over the module and fails the compilation
  /// naming the stage and the first verifier diagnostic; the
  /// ir-pipeline stage's pass manager also verifies after each pass
  /// (slow for very large graphs). Never fails; a repeated call is a
  /// no-op.
  std::optional<Error> enableVerifyAfterEachStage();

  /// Built-in diagnostic: an "ir-dump:<stage>" stage after the core
  /// stage \p AfterStage prints the module in generic form — to stderr,
  /// or to \p OutputPath when non-empty (overwritten per compile). A
  /// repeated call for one stage replaces its output path. Fails when
  /// \p AfterStage is not a core stage of this pipeline; the message
  /// lists the core stages.
  std::optional<Error> addIrDumpStage(const std::string &AfterStage,
                                      std::string OutputPath = "");

  /// Built-in diagnostic: a "stage-report:<stage>" stage after every
  /// core stage records the module's op count at that point into
  /// `CompileStats::OpCounts` (timings are always recorded, report or
  /// not). Never fails; a repeated call is a no-op.
  std::optional<Error> enableStageReport();

  /// Runs every stage over \p Model for \p Query resolved against it
  /// (spn::resolveQuery), returning the engine-ready program.
  /// Per-stage timings and the pass/codegen breakdowns are recorded into
  /// \p Stats when provided (\p Stats is untouched on failure). Fails on
  /// malformed models or IR verification errors; the pipeline itself is
  /// unchanged by failure and may be reused. Thread-safe: concurrent
  /// `compile` calls on one pipeline are allowed (each call uses private
  /// state).
  Expected<vm::KernelProgram> compile(const spn::Model &Model,
                                      const spn::QueryConfig &Query,
                                      CompileStats *Stats = nullptr) const;

private:
  /// What one entry of `Stages` runs.
  enum class StageKind : uint8_t {
    Translate,
    IrPipeline,
    Codegen,
    BinaryEncode,
    IrDump,
    Verify,
    StageReport,
  };

  /// Rebuilds `Stages` and `Kinds` from the configuration and the
  /// enabled diagnostics.
  void buildStages();

  PipelineConfig Config;
  bool VerifyEachStage = false;
  bool StageReport = false;
  /// Output path per core stage with an IR dump; an empty path prints
  /// to stderr.
  std::map<std::string, std::string> IrDumps;
  std::vector<PipelineStage> Stages;
  /// Parallel to `Stages`.
  std::vector<StageKind> Kinds;
};

/// The check of a "verify:<stage>" diagnostic: runs `ir::verify` over
/// \p Module and, on failure, returns an error naming \p Stage and the
/// first verifier diagnostic. Thread-safe for distinct modules.
std::optional<Error> verifyAfterStage(ir::Operation *Module,
                                      const std::string &Stage);

} // namespace runtime
} // namespace spnc

#endif // SPNC_RUNTIME_PIPELINE_H
