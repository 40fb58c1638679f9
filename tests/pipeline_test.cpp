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
/// reference model evaluator.
///
//===----------------------------------------------------------------------===//

#include "runtime/Compiler.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>

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
