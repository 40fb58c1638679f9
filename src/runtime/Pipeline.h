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
/// and populates an open stage registry with the default stage set
/// (translate -> ir-pipeline -> codegen -> binary-encode). Additional
/// named stages — diagnostic or transforming — can be registered with
/// `registerStage`, anchored before/after any existing stage; three
/// built-in diagnostic stages (verify-after-each, ir-dump, stage-report)
/// exercise that hook. The pipeline runs its stages with per-stage
/// wall-clock timing feeding `CompileStats` and produces a portable
/// `vm::KernelProgram`; turning that program into a loaded
/// `ExecutionEngine` is the job of a `backend::Backend`
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
#include "ir/BuiltinOps.h"
#include "ir/Context.h"
#include "ir/PassManager.h"
#include "runtime/ExecutionEngine.h"
#include "support/Expected.h"
#include "transforms/Passes.h"
#include "vm/Executor.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
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
  /// Verify the IR after each pass (slow for very large graphs).
  bool VerifyIR = false;
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
  /// Operations in the module at that point (0 once the module has been
  /// consumed or before it exists).
  size_t NumOps = 0;
};

/// Compile-time measurements (the paper's §V-B1 breakdown).
struct CompileStats {
  /// Wall clock per named pipeline stage, in execution order (includes
  /// registered diagnostic stages).
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
  /// the CPU execution options only on the CPU); one of the three
  /// kernel-cache key components. Thread-safe; never fails.
  uint64_t hash() const;

private:
  explicit PipelineConfig(CompilerOptions O) : Options(std::move(O)) {}
  CompilerOptions Options;
};

/// Introspectable description of one pipeline stage.
struct PipelineStage {
  /// Stable stage name, unique within a pipeline. Default stages:
  /// "translate", "ir-pipeline", "codegen", "binary-encode"; the
  /// built-in diagnostics register as "verify:<stage>",
  /// "ir-dump:<stage>" and "stage-report:<stage>".
  std::string Name;
  /// Human-readable summary of the work the stage will perform under the
  /// pipeline's configuration (e.g. the pass list of "ir-pipeline").
  std::string Detail;
  /// True for observing stages (verification, dumps, reporting) that
  /// never change the compilation result. Diagnostic stages are skipped
  /// when further diagnostics are anchored "after each stage".
  bool Diagnostic = false;
};

namespace detail {

/// Mutable state threaded through the stages of one compile() run. Each
/// run owns a fresh context, which is what keeps a shared pipeline object
/// safe to use from concurrent compiles. Registered stage runners receive
/// this context and may inspect or transform any of it; fields are
/// populated progressively (Module after "translate", Kernel after
/// "ir-pipeline", Program after "codegen").
struct StageContext {
  StageContext(const spn::Model &Model, spn::QueryConfig Query,
               const CompilerOptions &Options, CompileStats &Stats)
      : Model(Model), Query(Query), Options(Options), Stats(Stats) {}

  const spn::Model &Model;
  spn::QueryConfig Query;
  const CompilerOptions &Options;
  CompileStats &Stats;

  ir::Context Ctx;
  ir::OwningOpRef<ir::ModuleOp> Module;
  lospn::KernelOp Kernel{nullptr};
  vm::KernelProgram Program;
};

} // namespace detail

/// Where a registered stage is inserted relative to the stages already in
/// the registry.
class StageAnchor {
public:
  enum class Placement {
    /// Append at the end of the current stage list (the default).
    End,
    /// Insert immediately before the referenced stage.
    Before,
    /// Insert immediately after the referenced stage.
    After,
  };

  StageAnchor() = default;

  static StageAnchor end() { return StageAnchor(); }
  static StageAnchor before(std::string Reference) {
    return StageAnchor(Placement::Before, std::move(Reference));
  }
  static StageAnchor after(std::string Reference) {
    return StageAnchor(Placement::After, std::move(Reference));
  }

  Placement getPlacement() const { return Where; }
  const std::string &getReference() const { return Reference; }

private:
  StageAnchor(Placement Where, std::string Reference)
      : Where(Where), Reference(std::move(Reference)) {}

  Placement Where = Placement::End;
  std::string Reference;
};

/// The work of one registered stage: invoked once per compile() with the
/// run's private context; returning an Error aborts the compilation with
/// that diagnostic. Runners on one pipeline may be invoked concurrently
/// (one compile per thread), so they must not mutate shared state without
/// synchronization.
using StageRunner =
    std::function<std::optional<Error>(detail::StageContext &)>;

/// The staged compile path (paper §IV): translate -> IR pipeline ->
/// codegen -> binary encode (GPU), held in an open, ordered stage
/// registry. Built once from a validated config and reusable across
/// models; `compile` may be called concurrently from multiple threads.
/// Stage registration is NOT thread-safe: register every custom stage
/// before the first compile().
class CompilationPipeline {
public:
  /// Validates \p Options and builds the pipeline with the default stage
  /// registrations. Fails exactly when PipelineConfig::create fails
  /// (invalid knobs); a returned pipeline is always runnable.
  /// Thread-safe.
  static Expected<CompilationPipeline> create(CompilerOptions Options);

  /// Builds the pipeline from an already-validated config; never fails.
  explicit CompilationPipeline(PipelineConfig TheConfig);

  /// The validated configuration. Thread-safe; valid for the pipeline's
  /// lifetime.
  const PipelineConfig &getConfig() const { return Config; }

  /// The registered stages, in execution order. Thread-safe once
  /// registration is finished.
  const std::vector<PipelineStage> &getStages() const { return Stages; }

  /// True when a stage named \p Name is registered.
  bool hasStage(const std::string &Name) const;

  /// Registers \p Runner as the named stage \p Info, inserted where
  /// \p Anchor says. Fails with a diagnostic when the stage name is
  /// already registered or the anchor references an unknown stage; the
  /// registry is unchanged on failure. Not thread-safe — call before
  /// the first compile().
  std::optional<Error> registerStage(PipelineStage Info, StageRunner Runner,
                                     StageAnchor Anchor = StageAnchor::end());

  /// Built-in diagnostic: inserts a "verify:<stage>" stage after every
  /// currently registered non-diagnostic stage. Each one runs the IR
  /// `ir::verify` over the module (when it exists at that point) and
  /// fails the compilation naming the offending stage and the first
  /// verifier diagnostic. Fails only if the verify stages were already
  /// registered.
  std::optional<Error> enableVerifyAfterEachStage();

  /// Built-in diagnostic: inserts an "ir-dump:<stage>" stage after
  /// \p AfterStage that prints the module in generic form — to stderr,
  /// or to \p OutputPath when non-empty (overwritten per compile).
  /// Fails when \p AfterStage is not registered or the dump stage
  /// already exists.
  std::optional<Error> addIrDumpStage(const std::string &AfterStage,
                                      std::string OutputPath = "");

  /// Built-in diagnostic: inserts a "stage-report:<stage>" stage after
  /// every currently registered non-diagnostic stage, recording the
  /// module's op count at that point into `CompileStats::OpCounts`
  /// (timings are always recorded, report or not). Fails only if the
  /// report stages were already registered.
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
  void buildStages();

  PipelineConfig Config;
  std::vector<PipelineStage> Stages;
  std::vector<StageRunner> Runners;
};

} // namespace runtime
} // namespace spnc

#endif // SPNC_RUNTIME_PIPELINE_H
