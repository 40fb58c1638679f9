//===- pipeline_test.cpp - End-to-end compilation pipeline tests --------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The central correctness property of the whole system: every execution
/// configuration (scalar / vectorized / gather / shuffle / log / linear /
/// GPU / all optimization levels / partitioned) must agree with the
/// reference model evaluator. Also the pipeline's fixed stage list, the
/// pass list its "ir-pipeline" detail names, and the built-in
/// diagnostics (ir-dump, verify, stage-report).
///
//===----------------------------------------------------------------------===//

#include "frontend/HiSPNTranslation.h"
#include "ir/Operation.h"
#include "runtime/Compiler.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

using namespace spnc;
using namespace spnc::runtime;

namespace {

/// Compiles and runs a model over samples; checks results against the
/// reference evaluator within f32 tolerance.
void expectMatchesReference(const spn::Model &Model,
                            const std::vector<double> &Data,
                            size_t NumSamples,
                            const CompilerOptions &Options,
                            spn::QueryConfig Query = {}) {
  CompileStats Stats;
  Expected<CompiledKernel> Kernel =
      compileModel(Model, Query, Options, &Stats);
  ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError().message();

  std::vector<double> Output(NumSamples, 0.0);
  Kernel->execute(Data.data(), Output.data(), NumSamples);

  unsigned NumFeatures = Model.getNumFeatures();
  for (size_t S = 0; S < NumSamples; ++S) {
    double Reference = Model.evalLogLikelihood(
        std::span<const double>(&Data[S * NumFeatures], NumFeatures));
    double Actual = Query.LogSpace ? Output[S] : std::log(Output[S]);
    EXPECT_NEAR(Actual, Reference,
                std::max(5e-3, std::fabs(Reference) * 5e-3))
        << "sample " << S;
  }
}

class PipelineTest : public ::testing::Test {
protected:
  void SetUp() override {
    workloads::SpeakerModelOptions ModelOptions;
    ModelOptions.TargetOperations = 600;
    ModelOptions.Seed = 42;
    Model = std::make_unique<spn::Model>(
        workloads::generateSpeakerModel(ModelOptions));
    std::string Error;
    ASSERT_TRUE(Model->validate(&Error)) << Error;
    Data = workloads::generateSpeechData(ModelOptions, kNumSamples, 99);
  }

  static constexpr size_t kNumSamples = 103; // odd: a padded last block
  std::unique_ptr<spn::Model> Model;
  std::vector<double> Data;
};

/// A model whose product's children share a feature, so translation
/// rejects it.
spn::Model makeNonDecomposableModel() {
  spn::Model Broken(2);
  spn::Node *G0 = Broken.makeGaussian(0, 0.0, 1.0);
  spn::Node *G1 = Broken.makeGaussian(0, 1.0, 1.0);
  Broken.setRoot(Broken.makeProduct({G0, G1}));
  return Broken;
}

} // namespace

TEST_F(PipelineTest, ScalarCpuMatchesReference) {
  CompilerOptions Options;
  Options.VerifyIR = true;
  expectMatchesReference(*Model, Data, kNumSamples, Options);
}

TEST_F(PipelineTest, VectorizedCpuMatchesReference) {
  CompilerOptions Options;
  Options.VerifyIR = true;
  Options.Execution.VectorWidth = 8;
  expectMatchesReference(*Model, Data, kNumSamples, Options);
}

TEST_F(PipelineTest, GatherLoadsMatchReference) {
  CompilerOptions Options;
  Options.Execution.VectorWidth = 8;
  Options.Execution.UseShuffle = false;
  expectMatchesReference(*Model, Data, kNumSamples, Options);
}

TEST_F(PipelineTest, NoVecLibMatchesReference) {
  CompilerOptions Options;
  Options.Execution.VectorWidth = 8;
  Options.Execution.UseVecLib = false;
  expectMatchesReference(*Model, Data, kNumSamples, Options);
}

TEST_F(PipelineTest, GpuMatchesReference) {
  CompilerOptions Options;
  Options.VerifyIR = true;
  Options.TheTarget = Target::GPU;
  expectMatchesReference(*Model, Data, kNumSamples, Options);
}

TEST_F(PipelineTest, PartitionedKernelMatchesReference) {
  CompilerOptions Options;
  Options.VerifyIR = true;
  Options.MaxPartitionSize = 64;
  expectMatchesReference(*Model, Data, kNumSamples, Options);
}

TEST_F(PipelineTest, PartitionedVectorizedMatchesReference) {
  CompilerOptions Options;
  Options.MaxPartitionSize = 64;
  Options.Execution.VectorWidth = 8;
  expectMatchesReference(*Model, Data, kNumSamples, Options);
}

TEST_F(PipelineTest, PartitionedGpuMatchesReference) {
  CompilerOptions Options;
  Options.TheTarget = Target::GPU;
  Options.MaxPartitionSize = 64;
  expectMatchesReference(*Model, Data, kNumSamples, Options);
}

TEST_F(PipelineTest, AllOptLevelsMatchReference) {
  for (unsigned OptLevel = 0; OptLevel <= 3; ++OptLevel) {
    CompilerOptions Options;
    Options.OptLevel = OptLevel;
    Options.VerifyIR = true;
    expectMatchesReference(*Model, Data, kNumSamples, Options);
  }
}

TEST_F(PipelineTest, LinearSpaceMatchesReference) {
  CompilerOptions Options;
  Options.VerifyIR = true;
  spn::QueryConfig Query;
  Query.LogSpace = false;
  // Linear f32 underflows on deep graphs; force f64 compute.
  Query.DataType = spn::ComputeType::F64;
  expectMatchesReference(*Model, Data, kNumSamples, Options, Query);
}

TEST_F(PipelineTest, MarginalInferenceMatchesReference) {
  workloads::SpeakerModelOptions ModelOptions;
  ModelOptions.TargetOperations = 600;
  ModelOptions.Seed = 42;
  std::vector<double> Noisy =
      workloads::generateNoisySpeechData(ModelOptions, kNumSamples, 7);
  spn::QueryConfig Query;
  Query.SupportMarginal = true;
  CompilerOptions Options;
  Options.VerifyIR = true;
  expectMatchesReference(*Model, Noisy, kNumSamples, Options, Query);

  // Vectorized and GPU marginal paths.
  Options.Execution.VectorWidth = 8;
  expectMatchesReference(*Model, Noisy, kNumSamples, Options, Query);
  CompilerOptions GpuOptions;
  GpuOptions.TheTarget = Target::GPU;
  expectMatchesReference(*Model, Noisy, kNumSamples, GpuOptions, Query);
}

TEST_F(PipelineTest, MultiThreadedMatchesReference) {
  CompilerOptions Options;
  Options.Execution.NumThreads = 4;
  Options.Execution.ChunkSize = 17;
  expectMatchesReference(*Model, Data, kNumSamples, Options);
}

TEST_F(PipelineTest, CopyAvoidanceAblationMatchesReference) {
  CompilerOptions Options;
  Options.VerifyIR = true;
  Options.MaxPartitionSize = 64;
  Options.AvoidBufferCopies = false;
  expectMatchesReference(*Model, Data, kNumSamples, Options);
}

TEST_F(PipelineTest, GpuWithoutTransferEliminationMatchesReference) {
  CompilerOptions Options;
  Options.TheTarget = Target::GPU;
  Options.MaxPartitionSize = 64;
  Options.GpuTransferElimination = false;
  expectMatchesReference(*Model, Data, kNumSamples, Options);
}

TEST_F(PipelineTest, SingleLeafModelCompiles) {
  spn::Model Tiny(1, "leaf");
  Tiny.setRoot(Tiny.makeGaussian(0, 1.0, 2.0));
  for (Target TheTarget : {Target::CPU, Target::GPU}) {
    CompilerOptions Options;
    Options.TheTarget = TheTarget;
    Options.VerifyIR = true;
    Expected<CompiledKernel> Kernel =
        compileModel(Tiny, spn::QueryConfig(), Options);
    ASSERT_TRUE(static_cast<bool>(Kernel))
        << Kernel.getError().message();
    double Input[2] = {1.0, 3.5};
    double Output[2];
    Kernel->execute(Input, Output, 2);
    for (int S = 0; S < 2; ++S)
      EXPECT_NEAR(Output[S],
                  Tiny.evalLogLikelihood(
                      std::span<const double>(&Input[S], 1)),
                  1e-5);
  }
}

TEST_F(PipelineTest, ZeroAndSingleSampleBatches) {
  CompilerOptions Options;
  Options.Execution.VectorWidth = 8; // one padded block, one live row
  Expected<CompiledKernel> Kernel =
      compileModel(*Model, spn::QueryConfig(), Options);
  ASSERT_TRUE(static_cast<bool>(Kernel));
  // Zero samples: a no-op, must not crash.
  Kernel->execute(Data.data(), nullptr, 0);
  // One sample: smaller than any vector width.
  double Output = 0;
  Kernel->execute(Data.data(), &Output, 1);
  EXPECT_NEAR(Output,
              Model->evalLogLikelihood(
                  std::span<const double>(Data.data(), 26)),
              5e-3);
}

TEST_F(PipelineTest, GpuBatchSmallerThanBlock) {
  CompilerOptions Options;
  Options.TheTarget = Target::GPU;
  Options.GpuBlockSize = 256;
  Expected<CompiledKernel> Kernel =
      compileModel(*Model, spn::QueryConfig(), Options);
  ASSERT_TRUE(static_cast<bool>(Kernel));
  double Output[3];
  runtime::ExecutionStats Stats;
  Kernel->execute(Data.data(), Output, 3, &Stats); // 3 samples < 256 block
  for (int S = 0; S < 3; ++S)
    EXPECT_NEAR(Output[S],
                Model->evalLogLikelihood(
                    std::span<const double>(&Data[S * 26], 26)),
                5e-3);
  EXPECT_EQ(Stats.Gpu.NumLaunches, 1u);
}

TEST_F(PipelineTest, AllNaNSampleUnderMarginalQuery) {
  spn::QueryConfig Query;
  Query.SupportMarginal = true;
  CompilerOptions Options;
  Expected<CompiledKernel> Kernel =
      compileModel(*Model, Query, Options);
  ASSERT_TRUE(static_cast<bool>(Kernel));
  std::vector<double> AllNaN(26, std::nan(""));
  double Output = 1;
  Kernel->execute(AllNaN.data(), &Output, 1);
  // Everything marginalized: the probability integrates to 1.
  EXPECT_NEAR(Output, 0.0, 1e-5);
}

TEST_F(PipelineTest, CompileStatsArePopulated) {
  CompilerOptions Options;
  CompileStats Stats;
  spn::QueryConfig Query;
  Expected<CompiledKernel> Kernel =
      compileModel(*Model, Query, Options, &Stats);
  ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError().message();
  EXPECT_GT(Stats.TotalNs, 0u);
  EXPECT_GT(Stats.TranslationNs, 0u);
  EXPECT_FALSE(Stats.PassTimings.empty());
  EXPECT_EQ(Stats.NumTasks, 1u);
  EXPECT_GT(Stats.NumInstructions, 0u);
}

TEST_F(PipelineTest, FailedCompileLeavesStatsUntouched) {
  spn::Model Broken = makeNonDecomposableModel();
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  ASSERT_FALSE(Pipeline->enableStageReport());

  // The stats of an earlier, successful compile survive a failed one.
  CompileStats Stats;
  ASSERT_TRUE(static_cast<bool>(
      Pipeline->compile(*Model, spn::QueryConfig(), &Stats)));
  CompileStats Before = Stats;
  ASSERT_FALSE(static_cast<bool>(
      Pipeline->compile(Broken, spn::QueryConfig(), &Stats)));
  ASSERT_EQ(Stats.Stages.size(), Before.Stages.size());
  for (size_t I = 0; I < Stats.Stages.size(); ++I) {
    EXPECT_EQ(Stats.Stages[I].Name, Before.Stages[I].Name);
    EXPECT_EQ(Stats.Stages[I].WallNs, Before.Stages[I].WallNs);
  }
  ASSERT_EQ(Stats.OpCounts.size(), Before.OpCounts.size());
  for (size_t I = 0; I < Stats.OpCounts.size(); ++I)
    EXPECT_EQ(Stats.OpCounts[I].NumOps, Before.OpCounts[I].NumOps);
  EXPECT_EQ(Stats.PassTimings.size(), Before.PassTimings.size());
  EXPECT_EQ(Stats.TranslationNs, Before.TranslationNs);
  EXPECT_EQ(Stats.TotalNs, Before.TotalNs);
  EXPECT_EQ(Stats.NumTasks, Before.NumTasks);
  EXPECT_EQ(Stats.NumInstructions, Before.NumInstructions);
}

//===----------------------------------------------------------------------===//
// The stage list and its built-in diagnostics
//===----------------------------------------------------------------------===//

namespace {

spn::Model makeSmallModel() {
  workloads::SpeakerModelOptions Options;
  Options.TargetOperations = 150;
  Options.Seed = 11;
  return workloads::generateSpeakerModel(Options);
}

std::vector<std::string> stageNames(const CompilationPipeline &Pipeline) {
  std::vector<std::string> Names;
  for (const PipelineStage &Stage : Pipeline.getStages())
    Names.push_back(Stage.Name);
  return Names;
}

/// Corrupts \p Module: moves the terminator of the first multi-op block
/// it finds away from the block's end, which the structural verifier
/// must flag. False when there is no such block.
bool corruptModule(ir::Operation *Module) {
  ir::Operation *Victim = nullptr;
  Module->walk([&](ir::Operation *Op) {
    if (Victim)
      return;
    ir::Block *TheBlock = Op->getBlock();
    if (Op->isTerminator() && TheBlock && TheBlock->size() > 1 &&
        TheBlock->back() == Op)
      Victim = Op;
  });
  if (!Victim)
    return false;
  Victim->moveBefore(*Victim->getBlock()->begin());
  return true;
}

} // namespace

TEST(StageRegistryTest, DefaultStagesRegistered) {
  Expected<CompilationPipeline> Cpu =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Cpu));
  EXPECT_EQ(stageNames(*Cpu),
            (std::vector<std::string>{"translate", "ir-pipeline",
                                      "codegen"}));

  CompilerOptions GpuOptions;
  GpuOptions.TheTarget = Target::GPU;
  Expected<CompilationPipeline> Gpu =
      CompilationPipeline::create(GpuOptions);
  ASSERT_TRUE(static_cast<bool>(Gpu));
  EXPECT_EQ(stageNames(*Gpu),
            (std::vector<std::string>{"translate", "ir-pipeline",
                                      "codegen", "binary-encode"}));
}

TEST(StageRegistryTest, UnknownAnchorRejectedWithDiagnostic) {
  // An IR dump is anchored after a core stage; any other name is
  // rejected with a message naming it and listing the core stages, and
  // the stage list stays as it was.
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  ASSERT_FALSE(Pipeline->enableVerifyAfterEachStage());
  std::vector<std::string> Before = stageNames(*Pipeline);
  for (std::string Bad : {"no-such-stage", "verify:translate", ""}) {
    std::optional<Error> Err = Pipeline->addIrDumpStage(Bad);
    ASSERT_TRUE(Err.has_value()) << Bad;
    EXPECT_NE(Err->message().find("'" + Bad + "'"), std::string::npos)
        << Err->message();
    EXPECT_NE(Err->message().find("translate, ir-pipeline, codegen"),
              std::string::npos)
        << Err->message();
  }
  EXPECT_EQ(stageNames(*Pipeline), Before);
}

TEST(StageRegistryTest, RegisteredStagesRunInListOrder) {
  // The diagnostics follow each core stage in one fixed order (ir-dump,
  // verify, stage-report) whatever order they are switched on in, a
  // repeated switch adds nothing, and compile() runs exactly the listed
  // stages.
  CompilerOptions Options;
  Options.TheTarget = Target::GPU;
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(Options);
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  std::string Path =
      ::testing::TempDir() + "/pipeline_test_stage_order_dump.txt";
  ASSERT_FALSE(Pipeline->addIrDumpStage("ir-pipeline", Path));
  ASSERT_FALSE(Pipeline->enableVerifyAfterEachStage());
  ASSERT_FALSE(Pipeline->enableStageReport());
  ASSERT_FALSE(Pipeline->enableStageReport());
  ASSERT_FALSE(Pipeline->enableVerifyAfterEachStage());
  std::vector<std::string> Listed = {
      "translate",           "verify:translate",
      "stage-report:translate",
      "ir-pipeline",         "ir-dump:ir-pipeline",
      "verify:ir-pipeline",  "stage-report:ir-pipeline",
      "codegen",             "verify:codegen",
      "stage-report:codegen",
      "binary-encode",       "verify:binary-encode",
      "stage-report:binary-encode"};
  EXPECT_EQ(stageNames(*Pipeline), Listed);
  for (const PipelineStage &Stage : Pipeline->getStages())
    EXPECT_EQ(Stage.Diagnostic, Stage.Name.find(':') != std::string::npos)
        << Stage.Name;

  spn::Model Model = makeSmallModel();
  CompileStats Stats;
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(Model, spn::QueryConfig(), &Stats);
  std::remove(Path.c_str());
  ASSERT_TRUE(static_cast<bool>(Program)) << Program.getError().message();
  std::vector<std::string> Ran;
  for (const StageTiming &Stage : Stats.Stages)
    Ran.push_back(Stage.Name);
  EXPECT_EQ(Ran, Listed);
  EXPECT_EQ(Stats.OpCounts.size(), 4u);
}

TEST(StageRegistryTest, StageErrorAbortsCompilation) {
  // A failing stage ends the compile: no later stage runs, so the IR
  // dump after codegen is never written.
  spn::Model Broken = makeNonDecomposableModel();
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  std::string Path =
      ::testing::TempDir() + "/pipeline_test_aborted_dump.txt";
  std::remove(Path.c_str());
  ASSERT_FALSE(Pipeline->addIrDumpStage("codegen", Path));
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(Broken, spn::QueryConfig());
  ASSERT_FALSE(static_cast<bool>(Program));
  EXPECT_NE(Program.getError().message().find("translation to HiSPN failed"),
            std::string::npos)
      << Program.getError().message();
  EXPECT_FALSE(std::filesystem::exists(Path));
}

TEST(StageRegistryTest, VerifyAfterEachCatchesMalformedModule) {
  spn::Model Model = makeSmallModel();
  ir::Context Ctx;
  ir::OwningOpRef<ir::ModuleOp> Module = spn::translateToHiSPN(
      Ctx, Model, spn::resolveQuery(Model, spn::QueryConfig()));
  ASSERT_TRUE(static_cast<bool>(Module));
  ir::Operation *Op = Module.get().getOperation();
  EXPECT_FALSE(verifyAfterStage(Op, "translate"));

  ASSERT_TRUE(corruptModule(Op));
  std::optional<Error> Err = verifyAfterStage(Op, "translate");
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(
      Err->message().find("IR verification failed after stage 'translate'"),
      std::string::npos)
      << Err->message();
}

TEST(StageRegistryTest, VerifyAfterEachPassesOnHealthyPipeline) {
  CompilerOptions Options;
  Options.OptLevel = 2;
  Options.MaxPartitionSize = 64;
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(Options);
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  EXPECT_FALSE(Pipeline->enableVerifyAfterEachStage());
  // One verify stage per core stage, each directly after it.
  EXPECT_EQ(stageNames(*Pipeline),
            (std::vector<std::string>{"translate", "verify:translate",
                                      "ir-pipeline", "verify:ir-pipeline",
                                      "codegen", "verify:codegen"}));

  spn::Model Model = makeSmallModel();
  CompileStats Stats;
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(Model, spn::QueryConfig(), &Stats);
  ASSERT_TRUE(static_cast<bool>(Program)) << Program.getError().message();
  EXPECT_EQ(Stats.Stages.size(), 6u);
}

TEST(StageRegistryTest, StageReportRecordsOpCounts) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  EXPECT_FALSE(Pipeline->enableStageReport());
  spn::Model Model = makeSmallModel();
  CompileStats Stats;
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(Model, spn::QueryConfig(), &Stats);
  ASSERT_TRUE(static_cast<bool>(Program)) << Program.getError().message();
  ASSERT_EQ(Stats.OpCounts.size(), 3u);
  EXPECT_EQ(Stats.OpCounts[0].Stage, "translate");
  EXPECT_EQ(Stats.OpCounts[1].Stage, "ir-pipeline");
  EXPECT_EQ(Stats.OpCounts[2].Stage, "codegen");
  for (const StageOpCount &Count : Stats.OpCounts)
    EXPECT_GT(Count.NumOps, 0u);
}

TEST(StageRegistryTest, IrDumpStageWritesFile) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  std::string Path = ::testing::TempDir() + "/pipeline_test_ir_dump.txt";
  EXPECT_FALSE(Pipeline->addIrDumpStage("translate", Path));

  spn::Model Model = makeSmallModel();
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(Model, spn::QueryConfig());
  ASSERT_TRUE(static_cast<bool>(Program)) << Program.getError().message();
  std::FILE *File = std::fopen(Path.c_str(), "r");
  ASSERT_NE(File, nullptr);
  char Buffer[256] = {};
  size_t Read = std::fread(Buffer, 1, sizeof(Buffer) - 1, File);
  std::fclose(File);
  std::remove(Path.c_str());
  EXPECT_GT(Read, 0u);
  EXPECT_NE(std::string(Buffer).find("module"), std::string::npos);
}

TEST(StageRegistryTest, IrPipelineDetailNamesThePassesThatRun) {
  // The "ir-pipeline" detail and the pass manager come from one list:
  // the detail states that partitioning runs for likelihood queries
  // only, and each query runs exactly the passes the detail promises it.
  CompilerOptions Options;
  Options.OptLevel = 2;
  Options.MaxPartitionSize = 80;
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(Options);
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  const std::string &Detail = Pipeline->getStages()[1].Detail;
  EXPECT_EQ(Detail, "canonicalize, lower-hispn-to-lospn, "
                    "partition-tasks(max=80; likelihood queries only), "
                    "canonicalize, cse, bufferize");

  spn::Model Model = makeSmallModel();
  for (spn::QueryKind Kind : {spn::QueryKind::Joint, spn::QueryKind::Marginal,
                              spn::QueryKind::Mpe, spn::QueryKind::Sample}) {
    std::vector<std::string> Promised;
    for (size_t Begin = 0; Begin < Detail.size();) {
      size_t End = std::min(Detail.find(", ", Begin), Detail.size());
      std::string Label = Detail.substr(Begin, End - Begin);
      Begin = End + 2;
      if (Label.find("likelihood queries only") != std::string::npos &&
          !spn::isLikelihood(Kind))
        continue;
      Promised.push_back(Label.substr(0, Label.find('(')));
    }
    spn::QueryConfig Query;
    Query.Kind = Kind;
    CompileStats Stats;
    Expected<vm::KernelProgram> Program =
        Pipeline->compile(Model, Query, &Stats);
    ASSERT_TRUE(static_cast<bool>(Program)) << Program.getError().message();
    std::vector<std::string> Ran;
    for (const ir::PassTiming &Pass : Stats.PassTimings)
      Ran.push_back(Pass.PassName);
    EXPECT_EQ(Ran, Promised) << spn::queryKindName(Kind);
  }
}
