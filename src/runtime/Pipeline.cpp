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
#include "transforms/Passes.h"
#include "vm/ProgramBinary.h"

#include <cmath>
#include <cstdio>
#include <functional>
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

//===----------------------------------------------------------------------===//
// CompilationPipeline
//===----------------------------------------------------------------------===//

namespace {

/// Mutable state threaded through the stages of one compile() run. Each
/// run owns a fresh context, which is what keeps a shared pipeline object
/// safe to use from concurrent compiles. Fields are populated
/// progressively (Module after "translate", Kernel after "ir-pipeline",
/// Program after "codegen").
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

/// One pass of the target-independent IR pipeline (paper §IV-A).
struct IrPass {
  /// The pass's entry in the "ir-pipeline" stage detail.
  std::string Label;
  /// Builds the pass for a resolved query.
  std::function<std::unique_ptr<Pass>(const spn::QueryConfig &)> Create;
  /// False for a pass that MPE and sampling queries skip.
  bool ForTraceback = true;
};

/// The IR pipeline under \p O: the one list that both the stage detail
/// and every compile's pass manager are built from.
std::vector<IrPass> irPasses(const CompilerOptions &O) {
  using Query = const spn::QueryConfig &;
  std::vector<IrPass> Passes;
  if (O.OptLevel >= 1) // HiSPN-level early opts
    Passes.push_back(
        {"canonicalize", [](Query) { return createCanonicalizerPass(); }});
  Passes.push_back({"lower-hispn-to-lospn", [](Query Q) {
                      return transforms::createHiSPNToLoSPNLoweringPass(
                          Q.DataType == spn::ComputeType::F64 ? 64 : 32);
                    }});
  // Task partitioning would split the kernel; MPE/sampling tracebacks
  // need the whole graph in one task's register file.
  if (O.MaxPartitionSize > 0) {
    partition::PartitionOptions PartOptions = O.Partitioning;
    PartOptions.MaxPartitionSize = O.MaxPartitionSize;
    Passes.push_back({"partition-tasks(max=" +
                          std::to_string(O.MaxPartitionSize) +
                          "; likelihood queries only)",
                      [PartOptions](Query) {
                        return transforms::createTaskPartitioningPass(
                            PartOptions);
                      },
                      /*ForTraceback=*/false});
  }
  if (O.OptLevel >= 1) {
    Passes.push_back(
        {"canonicalize", [](Query) { return createCanonicalizerPass(); }});
    Passes.push_back({"cse", [](Query) { return createCSEPass(); }});
  }
  Passes.push_back({"bufferize", [AvoidCopies = O.AvoidBufferCopies](Query Q) {
                      transforms::BufferizationOptions BufOptions;
                      // A traceback task must store its root value to the
                      // output itself: every engine's per-row upward pass
                      // runs the task, never a copy.
                      BufOptions.AvoidCopies =
                          AvoidCopies || spn::needsTraceback(Q.Kind);
                      return transforms::createBufferizationPass(BufOptions);
                    }});
  if (O.TheTarget == Target::GPU && O.GpuTransferElimination)
    Passes.push_back({"gpu-transfer-elimination", [](Query) {
                        return transforms::
                            createGpuBufferTransferEliminationPass();
                      }});
  return Passes;
}

// The core stages (paper §IV).

/// Translation into the HiSPN dialect (paper §IV-A2). For likelihood
/// queries the translation tags every sum/leaf op with its canonical
/// parameter base index (docs/merging.md).
std::optional<Error> translate(StageContext &C) {
  C.Module = spn::translateToHiSPN(C.Ctx, C.Model, C.Query);
  if (!C.Module)
    return makeError("translation to HiSPN failed (invalid model?)");
  return std::nullopt;
}

/// The target-independent IR pipeline (paper §IV-A).
std::optional<Error> runIrPipeline(StageContext &C) {
  PassManager PM(C.Ctx, C.Options.VerifyIR);
  for (IrPass &P : irPasses(C.Options))
    if (P.ForTraceback || !spn::needsTraceback(C.Query.Kind))
      PM.addPass(P.Create(C.Query));
  if (failed(PM.run(C.Module.get().getOperation())))
    return makeError("compilation pipeline failed");
  C.Stats.PassTimings = PM.getTimings();

  for (Operation *Op : C.Module.get().getBody())
    if (isa_op<lospn::KernelOp>(Op))
      C.Kernel = lospn::KernelOp(Op);
  if (!C.Kernel)
    return makeError("pipeline produced no kernel");
  return std::nullopt;
}

/// Code generation (paper §IV-B / §IV-C).
std::optional<Error> generateCode(StageContext &C) {
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
}

/// GPU only: assemble and reload the device binary, the analog of the
/// PTX -> CUBIN translation that dominates GPU compile time in the
/// paper (§V-B1).
std::optional<Error> encodeBinary(StageContext &C) {
  std::vector<uint8_t> Blob = vm::encodeProgram(C.Program);
  Expected<vm::KernelProgram> Reloaded = vm::decodeProgram(Blob);
  if (!Reloaded)
    return makeError("device binary round-trip failed");
  C.Program = Reloaded.takeValue();
  return std::nullopt;
}

// The diagnostics, each observing the module after a core stage (the
// verify check is the public verifyAfterStage). Translation either
// builds the module or fails the compile, so every diagnostic finds one.

/// Prints the module after the core stage \p Stage in generic form: to
/// stderr, or to \p Path when non-empty.
std::optional<Error> dumpIr(StageContext &C, const std::string &Stage,
                            const std::string &Path) {
  if (Path.empty()) {
    FileOStream OS(stderr);
    OS << "// IR after stage '" << Stage << "'\n";
    ir::printOperation(C.Module.get().getOperation(), OS);
    return std::nullopt;
  }
  std::string Reason;
  if (failed(writeRenderedFile(Path, &Reason, [&](RawOStream &OS) {
        ir::printOperation(C.Module.get().getOperation(), OS);
      })))
    return makeError("IR dump: " + Reason);
  return std::nullopt;
}

/// Operations in the module threaded through \p C.
size_t countModuleOps(StageContext &C) {
  size_t NumOps = 0;
  C.Module.get().getOperation()->walk([&](Operation *) { ++NumOps; });
  return NumOps;
}

} // namespace

std::optional<Error>
spnc::runtime::verifyAfterStage(Operation *Module, const std::string &Stage) {
  std::string FirstDiagnostic;
  if (succeeded(ir::verify(Module, &FirstDiagnostic)))
    return std::nullopt;
  return makeError("IR verification failed after stage '" + Stage + "'" +
                   (FirstDiagnostic.empty() ? std::string()
                                            : ": " + FirstDiagnostic));
}

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

void CompilationPipeline::buildStages() {
  const CompilerOptions &O = Config.getOptions();
  Stages.clear();
  Kinds.clear();
  auto Add = [&](StageKind Kind, std::string Name, std::string Detail,
                 bool Diagnostic) {
    Stages.push_back({std::move(Name), std::move(Detail), Diagnostic});
    Kinds.push_back(Kind);
  };
  // A core stage, then its enabled diagnostics in their fixed order.
  auto AddCore = [&](StageKind Kind, const std::string &Name,
                     std::string Detail) {
    Add(Kind, Name, std::move(Detail), /*Diagnostic=*/false);
    if (auto Dump = IrDumps.find(Name); Dump != IrDumps.end())
      Add(StageKind::IrDump, "ir-dump:" + Name,
          "module dump after '" + Name + "' to " +
              (Dump->second.empty() ? "stderr" : "'" + Dump->second + "'"),
          /*Diagnostic=*/true);
    if (VerifyEachStage)
      Add(StageKind::Verify, "verify:" + Name,
          "IR verification after '" + Name + "'", /*Diagnostic=*/true);
    if (StageReport)
      Add(StageKind::StageReport, "stage-report:" + Name,
          "module op count after '" + Name + "'", /*Diagnostic=*/true);
  };

  std::string IrPipelineDetail;
  for (const IrPass &P : irPasses(O))
    IrPipelineDetail += (IrPipelineDetail.empty() ? "" : ", ") + P.Label;
  AddCore(StageKind::Translate, "translate", "model -> HiSPN dialect");
  AddCore(StageKind::IrPipeline, "ir-pipeline", IrPipelineDetail);
  AddCore(StageKind::Codegen, "codegen",
          O.TheTarget == Target::GPU
              ? "LoSPN -> bytecode (select-cascade leaves)"
              : "LoSPN -> bytecode (table-lookup leaves)");
  if (O.TheTarget == Target::GPU)
    AddCore(StageKind::BinaryEncode, "binary-encode",
            "device binary round-trip");
}

std::optional<Error> CompilationPipeline::enableVerifyAfterEachStage() {
  VerifyEachStage = true;
  buildStages();
  return std::nullopt;
}

std::optional<Error>
CompilationPipeline::addIrDumpStage(const std::string &AfterStage,
                                    std::string OutputPath) {
  std::string CoreStages;
  bool Known = false;
  for (const PipelineStage &Stage : Stages) {
    if (Stage.Diagnostic)
      continue;
    Known |= Stage.Name == AfterStage;
    CoreStages += (CoreStages.empty() ? "" : ", ") + Stage.Name;
  }
  if (!Known)
    return makeError("cannot dump the IR after unknown stage '" +
                     AfterStage + "' (stages: " + CoreStages + ")");
  IrDumps[AfterStage] = std::move(OutputPath);
  buildStages();
  return std::nullopt;
}

std::optional<Error> CompilationPipeline::enableStageReport() {
  StageReport = true;
  buildStages();
  return std::nullopt;
}

Expected<vm::KernelProgram>
CompilationPipeline::compile(const spn::Model &Model,
                             const spn::QueryConfig &Query,
                             CompileStats *Stats) const {
  Timer TotalTimer;
  CompileStats S;
  vm::KernelProgram Program;
  {
    StageContext C(Model, spn::resolveQuery(Model, Query),
                   Config.getOptions(), S);
    // The core stage the diagnostics that follow it observe.
    const std::string *Observed = nullptr;
    for (size_t I = 0; I < Stages.size(); ++I) {
      const std::string &Name = Stages[I].Name;
      if (!Stages[I].Diagnostic)
        Observed = &Name;
      Timer StageTimer;
      std::optional<Error> Err;
      switch (Kinds[I]) {
      case StageKind::Translate:
        Err = translate(C);
        break;
      case StageKind::IrPipeline:
        Err = runIrPipeline(C);
        break;
      case StageKind::Codegen:
        Err = generateCode(C);
        break;
      case StageKind::BinaryEncode:
        Err = encodeBinary(C);
        break;
      case StageKind::IrDump:
        Err = dumpIr(C, *Observed, IrDumps.at(*Observed));
        break;
      case StageKind::Verify:
        Err = verifyAfterStage(C.Module.get().getOperation(), *Observed);
        break;
      case StageKind::StageReport:
        S.OpCounts.push_back({*Observed, countModuleOps(C)});
        break;
      }
      if (Err)
        return *Err;
      uint64_t Ns = StageTimer.elapsedNs();
      S.Stages.push_back({Name, Ns});
      // Keep the dedicated stat fields of the §V-B1 breakdown populated.
      if (Kinds[I] == StageKind::Translate)
        S.TranslationNs = Ns;
      else if (Kinds[I] == StageKind::BinaryEncode)
        S.BinaryEncodeNs = Ns;
    }
    Program = std::move(C.Program);
  } // Tears down the IR module and its context: part of the compile.
  S.TotalNs = TotalTimer.elapsedNs();
  if (Stats)
    *Stats = std::move(S);
  return Program;
}
