//===- Pipeline.cpp - Staged compilation pipeline ------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "runtime/Pipeline.h"

#include "frontend/HiSPNTranslation.h"
#include "ir/Printer.h"
#include "ir/Transforms.h"
#include "ir/Verifier.h"
#include "support/FileIO.h"
#include "support/Hashing.h"
#include "support/RawOStream.h"
#include "support/StringUtils.h"
#include "support/Timer.h"
#include "vm/ProgramBinary.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

using namespace spnc;
using namespace spnc::ir;
using namespace spnc::runtime;

//===----------------------------------------------------------------------===//
// PipelineConfig
//===----------------------------------------------------------------------===//

/// Rejects a simulated device whose fields the GPU simulator would
/// divide by, or turn into a NaN, infinite or negative time: counts and
/// rates must be positive, fixed costs non-negative, all of them finite.
static std::optional<Error> checkDevice(const gpusim::GpuDeviceConfig &D) {
  auto Fail = [](const char *Field, double Value, const char *Rule) {
    return makeError(formatString(
        "invalid GPU device: %s is %g, must be %s", Field, Value, Rule));
  };
  const std::pair<const char *, double> Positive[] = {
      {"NumSMs", D.NumSMs},
      {"MaxThreadsPerSM", D.MaxThreadsPerSM},
      {"PeakSpeedup", D.PeakSpeedup},
      {"PcieBandwidthGBs", D.PcieBandwidthGBs},
      {"DeviceBandwidthGBs", D.DeviceBandwidthGBs}};
  for (auto [Field, Value] : Positive)
    if (!std::isfinite(Value) || Value <= 0.0)
      return Fail(Field, Value, "finite and positive");
  const std::pair<const char *, double> NonNegative[] = {
      {"TransferLatencyUs", D.TransferLatencyUs},
      {"KernelLaunchOverheadUs", D.KernelLaunchOverheadUs},
      {"BlockScheduleOverheadNs", D.BlockScheduleOverheadNs}};
  for (auto [Field, Value] : NonNegative)
    if (!std::isfinite(Value) || Value < 0.0)
      return Fail(Field, Value, "finite and non-negative");
  return std::nullopt;
}

Expected<PipelineConfig> PipelineConfig::create(CompilerOptions Options) {
  // Compiling under Auto selects the CPU; only kernel loading defers the
  // decision to the saved binary.
  if (Options.TheTarget == Target::Auto)
    Options.TheTarget = Target::CPU;
  if (Options.OptLevel > 3)
    return makeError("invalid optimization level " +
                     std::to_string(Options.OptLevel) +
                     " (supported: 0-3)");
  unsigned W = Options.Execution.VectorWidth;
  if (W != 1 && W != 4 && W != 8 && W != 16)
    return makeError("invalid vector width " + std::to_string(W) +
                     " (supported: 1, 4, 8, 16)");
  if (Options.Execution.NumThreads == 0)
    Options.Execution.NumThreads = 1;
  if (Options.GpuBlockSize > Options.Device.MaxThreadsPerBlock)
    return makeError("GPU block size " +
                     std::to_string(Options.GpuBlockSize) +
                     " exceeds the device limit of " +
                     std::to_string(Options.Device.MaxThreadsPerBlock) +
                     " threads per block");
  if (Options.TheTarget == Target::GPU)
    if (std::optional<Error> Err = checkDevice(Options.Device))
      return *Err;
  return PipelineConfig(std::move(Options));
}

uint64_t PipelineConfig::hash() const {
  // Only what the pipeline and the target's engine read, so options
  // neither reads never split the kernel cache.
  const CompilerOptions &O = Options;
  WordHasher Hash;
  Hash.addFields(O.TheTarget, O.OptLevel, O.MaxPartitionSize,
                 O.AvoidBufferCopies);
  // The partitioner runs only with a size bound, which the pipeline
  // sets from MaxPartitionSize.
  if (O.MaxPartitionSize > 0)
    Hash.addFields(O.Partitioning.Slack, O.Partitioning.Strategy);
  if (O.TheTarget == Target::GPU)
    Hash.addFields(O.GpuBlockSize, O.GpuTransferElimination,
                   O.Device.NumSMs, O.Device.MaxThreadsPerBlock,
                   O.Device.MaxThreadsPerSM, O.Device.MaxBlocksPerSM,
                   O.Device.RegistersPerSM, O.Device.PeakSpeedup,
                   O.Device.PcieBandwidthGBs, O.Device.TransferLatencyUs,
                   O.Device.KernelLaunchOverheadUs,
                   O.Device.BlockScheduleOverheadNs,
                   O.Device.DeviceBandwidthGBs, O.Device.NumStreams);
  else
    Hash.addFields(O.Execution.VectorWidth, O.Execution.UseVecLib,
                   O.Execution.UseShuffle, O.Execution.NumThreads,
                   O.Execution.ChunkSize);
  return Hash.finish();
}

using runtime::detail::StageContext;

//===----------------------------------------------------------------------===//
// CompilationPipeline
//===----------------------------------------------------------------------===//

Expected<CompilationPipeline>
CompilationPipeline::create(CompilerOptions Options) {
  Expected<PipelineConfig> Config =
      PipelineConfig::create(std::move(Options));
  if (!Config)
    return Config.getError();
  return CompilationPipeline(Config.takeValue());
}

CompilationPipeline::CompilationPipeline(PipelineConfig TheConfig)
    : Config(std::move(TheConfig)) {
  buildStages();
}

namespace {

/// The pass list of the target-independent IR pipeline (paper §IV-A),
/// as human-readable text for stage introspection.
std::string describeIrPipeline(const CompilerOptions &Options) {
  std::string Detail;
  auto Append = [&](const std::string &Pass) {
    if (!Detail.empty())
      Detail += ", ";
    Detail += Pass;
  };
  if (Options.OptLevel >= 1)
    Append("canonicalize");
  Append("lower-hispn-to-lospn");
  if (Options.MaxPartitionSize > 0)
    Append("partition-tasks(max=" +
           std::to_string(Options.MaxPartitionSize) + ")");
  if (Options.OptLevel >= 1) {
    Append("canonicalize");
    Append("cse");
  }
  Append("bufferize");
  if (Options.TheTarget == Target::GPU && Options.GpuTransferElimination)
    Append("gpu-transfer-elimination");
  return Detail;
}

/// Operations in the module threaded through \p C, 0 when no module
/// exists at this point of the run.
size_t countModuleOps(StageContext &C) {
  if (!C.Module)
    return 0;
  size_t NumOps = 0;
  C.Module.get().getOperation()->walk([&](Operation *) { ++NumOps; });
  return NumOps;
}

} // namespace

bool CompilationPipeline::hasStage(const std::string &Name) const {
  return std::any_of(
      Stages.begin(), Stages.end(),
      [&](const PipelineStage &Stage) { return Stage.Name == Name; });
}

std::optional<Error>
CompilationPipeline::registerStage(PipelineStage Info, StageRunner Runner,
                                   StageAnchor Anchor) {
  if (Info.Name.empty())
    return makeError("pipeline stage name must not be empty");
  if (hasStage(Info.Name))
    return makeError("duplicate pipeline stage name '" + Info.Name +
                     "': every stage must be registered under a unique "
                     "name");
  size_t Index = Stages.size();
  if (Anchor.getPlacement() != StageAnchor::Placement::End) {
    auto It = std::find_if(Stages.begin(), Stages.end(),
                           [&](const PipelineStage &Stage) {
                             return Stage.Name == Anchor.getReference();
                           });
    if (It == Stages.end())
      return makeError(
          "cannot anchor stage '" + Info.Name + "' " +
          (Anchor.getPlacement() == StageAnchor::Placement::Before
               ? "before"
               : "after") +
          " unknown stage '" + Anchor.getReference() + "'");
    Index = static_cast<size_t>(It - Stages.begin());
    if (Anchor.getPlacement() == StageAnchor::Placement::After)
      ++Index;
  }
  Stages.insert(Stages.begin() + static_cast<ptrdiff_t>(Index),
                std::move(Info));
  Runners.insert(Runners.begin() + static_cast<ptrdiff_t>(Index),
                 std::move(Runner));
  return std::nullopt;
}

std::optional<Error> CompilationPipeline::enableVerifyAfterEachStage() {
  // Snapshot first: registering mutates the stage list we iterate.
  std::vector<std::string> Anchors;
  for (const PipelineStage &Stage : Stages)
    if (!Stage.Diagnostic)
      Anchors.push_back(Stage.Name);
  for (const std::string &Anchor : Anchors) {
    PipelineStage Info{"verify:" + Anchor,
                       "IR verification after '" + Anchor + "'",
                       /*Diagnostic=*/true};
    std::optional<Error> Err = registerStage(
        std::move(Info),
        [Anchor](StageContext &C) -> std::optional<Error> {
          if (!C.Module)
            return std::nullopt;
          std::string FirstDiagnostic;
          if (failed(ir::verify(C.Module.get().getOperation(),
                                &FirstDiagnostic)))
            return makeError(
                "IR verification failed after stage '" + Anchor + "'" +
                (FirstDiagnostic.empty() ? std::string()
                                         : ": " + FirstDiagnostic));
          return std::nullopt;
        },
        StageAnchor::after(Anchor));
    if (Err)
      return Err;
  }
  return std::nullopt;
}

std::optional<Error>
CompilationPipeline::addIrDumpStage(const std::string &AfterStage,
                                    std::string OutputPath) {
  PipelineStage Info{"ir-dump:" + AfterStage,
                     OutputPath.empty()
                         ? "module dump after '" + AfterStage +
                               "' to stderr"
                         : "module dump after '" + AfterStage + "' to '" +
                               OutputPath + "'",
                     /*Diagnostic=*/true};
  return registerStage(
      std::move(Info),
      [AfterStage,
       Path = std::move(OutputPath)](StageContext &C) -> std::optional<Error> {
        if (!C.Module)
          return std::nullopt;
        if (Path.empty()) {
          FileOStream OS(stderr);
          OS << "// IR after stage '" << AfterStage << "'\n";
          ir::printOperation(C.Module.get().getOperation(), OS);
          return std::nullopt;
        }
        std::string Reason;
        if (failed(writeRenderedFile(Path, &Reason, [&](RawOStream &OS) {
              ir::printOperation(C.Module.get().getOperation(), OS);
            })))
          return makeError("IR dump: " + Reason);
        return std::nullopt;
      },
      StageAnchor::after(AfterStage));
}

std::optional<Error> CompilationPipeline::enableStageReport() {
  std::vector<std::string> Anchors;
  for (const PipelineStage &Stage : Stages)
    if (!Stage.Diagnostic)
      Anchors.push_back(Stage.Name);
  for (const std::string &Anchor : Anchors) {
    PipelineStage Info{"stage-report:" + Anchor,
                       "module op count after '" + Anchor + "'",
                       /*Diagnostic=*/true};
    std::optional<Error> Err = registerStage(
        std::move(Info),
        [Anchor](StageContext &C) -> std::optional<Error> {
          C.Stats.OpCounts.push_back({Anchor, countModuleOps(C)});
          return std::nullopt;
        },
        StageAnchor::after(Anchor));
    if (Err)
      return Err;
  }
  return std::nullopt;
}

void CompilationPipeline::buildStages() {
  const CompilerOptions &O = Config.getOptions();
  // The default registration set. Names are unique and the anchors refer
  // to already-registered stages, so none of these can fail.
  auto MustRegister = [&](PipelineStage Info, StageRunner Runner) {
    std::optional<Error> Err =
        registerStage(std::move(Info), std::move(Runner));
    (void)Err;
    assert(!Err && "default stage registration failed");
  };

  // Stage 1: translation into the HiSPN dialect (paper §IV-A2). For
  // likelihood queries the translation tags every sum/leaf op with its
  // canonical parameter base index (docs/merging.md).
  MustRegister({"translate", "model -> HiSPN dialect"},
               [](StageContext &C) -> std::optional<Error> {
    C.Module = spn::translateToHiSPN(C.Ctx, C.Model, C.Query);
    if (!C.Module)
      return makeError("translation to HiSPN failed (invalid model?)");
    return std::nullopt;
  });

  // Stage 2: the target-independent IR pipeline (paper §IV-A).
  MustRegister({"ir-pipeline", describeIrPipeline(O)},
               [](StageContext &C) -> std::optional<Error> {
    const CompilerOptions &O = C.Options;
    PassManager PM(C.Ctx, O.VerifyIR);
    if (O.OptLevel >= 1)
      PM.addPass(createCanonicalizerPass()); // HiSPN-level early opts
    PM.addPass(transforms::createHiSPNToLoSPNLoweringPass(
        C.Query.DataType == spn::ComputeType::F64 ? 64 : 32));
    // Task partitioning would split the kernel; MPE/sampling tracebacks
    // need the whole graph in one task's register file.
    if (O.MaxPartitionSize > 0 && !spn::needsTraceback(C.Query.Kind)) {
      partition::PartitionOptions PartOptions = O.Partitioning;
      PartOptions.MaxPartitionSize = O.MaxPartitionSize;
      PM.addPass(transforms::createTaskPartitioningPass(PartOptions));
    }
    if (O.OptLevel >= 1) {
      PM.addPass(createCanonicalizerPass());
      PM.addPass(createCSEPass());
    }
    transforms::BufferizationOptions BufOptions;
    // A traceback task must store its root value to the output itself:
    // every engine's per-row upward pass runs the task, never a copy.
    BufOptions.AvoidCopies =
        O.AvoidBufferCopies || spn::needsTraceback(C.Query.Kind);
    PM.addPass(transforms::createBufferizationPass(BufOptions));
    if (O.TheTarget == Target::GPU && O.GpuTransferElimination)
      PM.addPass(transforms::createGpuBufferTransferEliminationPass());

    if (failed(PM.run(C.Module.get().getOperation())))
      return makeError("compilation pipeline failed");
    C.Stats.PassTimings = PM.getTimings();

    for (Operation *Op : C.Module.get().getBody())
      if (isa_op<lospn::KernelOp>(Op))
        C.Kernel = lospn::KernelOp(Op);
    if (!C.Kernel)
      return makeError("pipeline produced no kernel");
    return std::nullopt;
  });

  // Stage 3: code generation (paper §IV-B / §IV-C).
  MustRegister({"codegen", O.TheTarget == Target::GPU
                               ? "LoSPN -> bytecode (select-cascade leaves)"
                               : "LoSPN -> bytecode (table-lookup leaves)"},
               [](StageContext &C) -> std::optional<Error> {
    const CompilerOptions &O = C.Options;
    codegen::CodegenOptions CGOptions;
    CGOptions.OptLevel = O.OptLevel;
    CGOptions.EmitSelectCascades = O.TheTarget == Target::GPU;
    CGOptions.Query = C.Query.Kind;
    Expected<vm::KernelProgram> Program =
        codegen::emitKernelProgram(C.Kernel, CGOptions, &C.Stats.Codegen);
    if (!Program)
      return Program.getError();
    C.Program = Program.takeValue();
    C.Stats.NumTasks = C.Program.Tasks.size();
    C.Stats.NumInstructions = C.Program.totalInstructions();
    return std::nullopt;
  });

  // Stage 4 (GPU only): assemble and reload the device binary, the
  // analog of the PTX -> CUBIN translation that dominates GPU compile
  // time in the paper (§V-B1).
  if (O.TheTarget == Target::GPU) {
    MustRegister({"binary-encode", "device binary round-trip"},
                 [](StageContext &C) -> std::optional<Error> {
      std::vector<uint8_t> Blob = vm::encodeProgram(C.Program);
      Expected<vm::KernelProgram> Reloaded = vm::decodeProgram(Blob);
      if (!Reloaded)
        return makeError("device binary round-trip failed");
      C.Program = Reloaded.takeValue();
      return std::nullopt;
    });
  }
}

Expected<vm::KernelProgram>
CompilationPipeline::compile(const spn::Model &Model,
                             const spn::QueryConfig &Query,
                             CompileStats *Stats) const {
  Timer TotalTimer;
  CompileStats LocalStats;
  CompileStats &S = Stats ? *Stats : LocalStats;
  S = CompileStats();

  vm::KernelProgram Program;
  {
    StageContext C(Model, spn::resolveQuery(Model, Query),
                   Config.getOptions(), S);
    for (size_t I = 0; I < Runners.size(); ++I) {
      Timer StageTimer;
      if (std::optional<Error> Err = Runners[I](C))
        return *Err;
      uint64_t Ns = StageTimer.elapsedNs();
      S.Stages.push_back({Stages[I].Name, Ns});
      // Keep the dedicated stat fields of the §V-B1 breakdown populated.
      if (Stages[I].Name == "translate")
        S.TranslationNs = Ns;
      else if (Stages[I].Name == "binary-encode")
        S.BinaryEncodeNs = Ns;
    }
    Program = std::move(C.Program);
  } // Tears down the IR module and its context: part of the compile.
  S.TotalNs = TotalTimer.elapsedNs();
  return Program;
}
