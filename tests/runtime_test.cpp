//===- runtime_test.cpp - Compile driver and kernel caching tests ----------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "baselines/Baselines.h"
#include "runtime/Compiler.h"
#include "runtime/KernelCache.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

using namespace spnc;
using namespace spnc::runtime;

namespace {

class RuntimeTest : public ::testing::Test {
protected:
  void SetUp() override {
    workloads::SpeakerModelOptions Options;
    Options.TargetOperations = 300;
    Options.Seed = 31;
    Model = std::make_unique<spn::Model>(
        workloads::generateSpeakerModel(Options));
    Data = workloads::generateSpeechData(Options, kNumSamples, 5);
  }

  static constexpr size_t kNumSamples = 40;
  std::unique_ptr<spn::Model> Model;
  std::vector<double> Data;
};

TEST_F(RuntimeTest, CompileFailsOnInvalidModel) {
  spn::Model Broken(2);
  spn::Node *G0 = Broken.makeGaussian(0, 0.0, 1.0);
  spn::Node *G1 = Broken.makeGaussian(0, 1.0, 1.0);
  Broken.setRoot(Broken.makeProduct({G0, G1})); // not decomposable
  unsigned Errors = 0;
  // Suppress the diagnostic spam while counting it.
  Expected<CompiledKernel> Kernel =
      compileModel(Broken, spn::QueryConfig(), CompilerOptions());
  EXPECT_FALSE(static_cast<bool>(Kernel));
  EXPECT_NE(Kernel.getError().message().find("invalid"),
            std::string::npos);
  (void)Errors;
}

TEST_F(RuntimeTest, SaveAndLoadCompiledKernel) {
  CompilerOptions Options;
  Options.OptLevel = 2;
  Expected<CompiledKernel> Kernel =
      compileModel(*Model, spn::QueryConfig(), Options);
  ASSERT_TRUE(static_cast<bool>(Kernel));
  std::vector<double> Original(kNumSamples);
  Kernel->execute(Data.data(), Original.data(), kNumSamples);

  std::string Path = ::testing::TempDir() + "/kernel.spnk";
  ASSERT_TRUE(succeeded(saveCompiledKernel(*Kernel, Path)));

  // CPU reload with a different execution configuration.
  vm::ExecutionConfig Vectorized;
  Vectorized.VectorWidth = 8;
  Expected<CompiledKernel> Loaded =
      loadCompiledKernel(Path, Target::CPU, Vectorized);
  ASSERT_TRUE(static_cast<bool>(Loaded))
      << Loaded.getError().message();
  std::vector<double> Reloaded(kNumSamples);
  Loaded->execute(Data.data(), Reloaded.data(), kNumSamples);
  for (size_t S = 0; S < kNumSamples; ++S)
    EXPECT_NEAR(Reloaded[S], Original[S],
                std::fabs(Original[S]) * 1e-4 + 1e-4);

  // The same program runs on the simulated GPU executor too.
  Expected<CompiledKernel> OnGpu = loadCompiledKernel(
      Path, Target::GPU, {}, gpusim::GpuDeviceConfig(), 64);
  ASSERT_TRUE(static_cast<bool>(OnGpu));
  std::vector<double> GpuOut(kNumSamples);
  runtime::ExecutionStats GpuStats;
  OnGpu->execute(Data.data(), GpuOut.data(), kNumSamples, &GpuStats);
  for (size_t S = 0; S < kNumSamples; ++S)
    EXPECT_NEAR(GpuOut[S], Original[S],
                std::fabs(Original[S]) * 1e-4 + 1e-4);
  EXPECT_TRUE(GpuStats.HasGpuStats);
  EXPECT_GT(GpuStats.Gpu.totalNs(), 0u);

  std::remove(Path.c_str());
}

TEST_F(RuntimeTest, LoadRejectsMissingAndCorruptFiles) {
  Expected<CompiledKernel> Missing =
      loadCompiledKernel("/nonexistent/kernel.spnk");
  EXPECT_FALSE(static_cast<bool>(Missing));

  std::string Path = ::testing::TempDir() + "/garbage.spnk";
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(File, nullptr);
  std::fputs("not a kernel program", File);
  std::fclose(File);
  Expected<CompiledKernel> Garbage = loadCompiledKernel(Path);
  EXPECT_FALSE(static_cast<bool>(Garbage));
  std::remove(Path.c_str());
}

TEST_F(RuntimeTest, StatsReflectPipelineConfiguration) {
  CompilerOptions NoPartition;
  CompileStats StatsA;
  ASSERT_TRUE(static_cast<bool>(
      compileModel(*Model, spn::QueryConfig(), NoPartition, &StatsA)));
  EXPECT_EQ(StatsA.NumTasks, 1u);

  CompilerOptions Partitioned;
  Partitioned.MaxPartitionSize = 64;
  CompileStats StatsB;
  ASSERT_TRUE(static_cast<bool>(
      compileModel(*Model, spn::QueryConfig(), Partitioned, &StatsB)));
  EXPECT_GT(StatsB.NumTasks, 1u);
  // The partition pass shows up in the pass timings.
  bool SawPartitionPass = false;
  for (const ir::PassTiming &Pass : StatsB.PassTimings)
    if (Pass.PassName == "partition-tasks")
      SawPartitionPass = true;
  EXPECT_TRUE(SawPartitionPass);

  CompilerOptions ForGpu;
  ForGpu.TheTarget = Target::GPU;
  CompileStats StatsC;
  ASSERT_TRUE(static_cast<bool>(
      compileModel(*Model, spn::QueryConfig(), ForGpu, &StatsC)));
  EXPECT_GT(StatsC.BinaryEncodeNs, 0u); // CUBIN-analog stage ran
  EXPECT_EQ(StatsA.BinaryEncodeNs, 0u); // but not for the CPU
}

TEST_F(RuntimeTest, OptLevelZeroSkipsIrOptimization) {
  CompilerOptions O0;
  O0.OptLevel = 0;
  CompileStats Stats;
  ASSERT_TRUE(static_cast<bool>(
      compileModel(*Model, spn::QueryConfig(), O0, &Stats)));
  for (const ir::PassTiming &Pass : Stats.PassTimings) {
    EXPECT_NE(Pass.PassName, "canonicalize");
    EXPECT_NE(Pass.PassName, "cse");
  }
}

TEST_F(RuntimeTest, PipelineExposesStagesAndTimings) {
  CompilerOptions Cpu;
  Expected<CompilationPipeline> Pipeline = CompilationPipeline::create(Cpu);
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  ASSERT_EQ(Pipeline->getStages().size(), 3u);
  EXPECT_EQ(Pipeline->getStages()[0].Name, "translate");
  EXPECT_EQ(Pipeline->getStages()[1].Name, "ir-pipeline");
  EXPECT_EQ(Pipeline->getStages()[2].Name, "codegen");
  // Stage details describe the configured work, e.g. the pass list.
  EXPECT_NE(Pipeline->getStages()[1].Detail.find("bufferize"),
            std::string::npos);

  CompileStats Stats;
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(*Model, spn::QueryConfig(), &Stats);
  ASSERT_TRUE(static_cast<bool>(Program));
  ASSERT_EQ(Stats.Stages.size(), Pipeline->getStages().size());
  uint64_t StageSum = 0;
  for (size_t I = 0; I < Stats.Stages.size(); ++I) {
    EXPECT_EQ(Stats.Stages[I].Name, Pipeline->getStages()[I].Name);
    StageSum += Stats.Stages[I].WallNs;
  }
  EXPECT_GT(StageSum, 0u);
  EXPECT_GE(Stats.TotalNs, StageSum);

  // The GPU pipeline appends the device binary round-trip stage.
  CompilerOptions Gpu;
  Gpu.TheTarget = Target::GPU;
  Expected<CompilationPipeline> GpuPipeline =
      CompilationPipeline::create(Gpu);
  ASSERT_TRUE(static_cast<bool>(GpuPipeline));
  ASSERT_EQ(GpuPipeline->getStages().size(), 4u);
  EXPECT_EQ(GpuPipeline->getStages()[3].Name, "binary-encode");
}

TEST_F(RuntimeTest, PipelineConfigRejectsInvalidOptions) {
  CompilerOptions Bad;
  Bad.OptLevel = 9;
  EXPECT_FALSE(static_cast<bool>(CompilationPipeline::create(Bad)));

  CompilerOptions BadWidth;
  BadWidth.Execution.VectorWidth = 3;
  EXPECT_FALSE(static_cast<bool>(CompilationPipeline::create(BadWidth)));

  CompilerOptions BadBlock;
  BadBlock.TheTarget = Target::GPU;
  BadBlock.GpuBlockSize = 100000;
  EXPECT_FALSE(static_cast<bool>(CompilationPipeline::create(BadBlock)));
}

TEST_F(RuntimeTest, SaveReportsErrnoReason) {
  Expected<CompiledKernel> Kernel =
      compileModel(*Model, spn::QueryConfig(), CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Kernel));
  std::string Message;
  EXPECT_TRUE(failed(saveCompiledKernel(
      *Kernel, "/nonexistent-dir/kernel.spnk", &Message)));
  EXPECT_NE(Message.find("/nonexistent-dir/kernel.spnk.tmp"),
            std::string::npos);
  EXPECT_NE(Message.find("No such file or directory"),
            std::string::npos);
}

TEST_F(RuntimeTest, SaveRejectsUnregisteredTableIndex) {
  // A kernel naming a weight table its engine does not hold: saving it
  // fails with the index instead of binding an empty table.
  KernelCache Cache;
  Expected<CompiledKernel> Kernel =
      Cache.getOrCompile(*Model, spn::QueryConfig(), CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Kernel));
  ASSERT_EQ(Kernel->getTableIndex(), 0);
  CompiledKernel Stray(Kernel->getEngineShared(), 7);
  std::string Path = ::testing::TempDir() + "/stray.spnk";
  std::string Message;
  EXPECT_TRUE(failed(saveCompiledKernel(Stray, Path, &Message)));
  EXPECT_NE(Message.find("weight table 7"), std::string::npos) << Message;
  std::FILE *Written = std::fopen(Path.c_str(), "rb");
  EXPECT_EQ(Written, nullptr);
  if (Written)
    std::fclose(Written);
}

TEST_F(RuntimeTest, SaveNeverLeavesTruncatedKernelBehind) {
  Expected<CompiledKernel> Kernel =
      compileModel(*Model, spn::QueryConfig(), CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Kernel));
  std::string Path = ::testing::TempDir() + "/atomic.spnk";
  ASSERT_TRUE(succeeded(saveCompiledKernel(*Kernel, Path)));
  // The temporary sibling used for the atomic rename is gone.
  std::FILE *Temp = std::fopen((Path + ".tmp").c_str(), "rb");
  EXPECT_EQ(Temp, nullptr);
  if (Temp)
    std::fclose(Temp);
  std::remove(Path.c_str());
}

TEST_F(RuntimeTest, LoadDefaultsToRecordedLoweringTarget) {
  // A CPU compile records the table-lookup lowering; Auto selects the
  // CPU engine on load.
  Expected<CompiledKernel> CpuKernel =
      compileModel(*Model, spn::QueryConfig(), CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(CpuKernel));
  EXPECT_EQ(CpuKernel->getProgram().Lowering,
            vm::LoweringKind::TableLookup);
  std::string CpuPath = ::testing::TempDir() + "/auto_cpu.spnk";
  ASSERT_TRUE(succeeded(saveCompiledKernel(*CpuKernel, CpuPath)));
  Expected<CompiledKernel> CpuLoaded = loadCompiledKernel(CpuPath);
  ASSERT_TRUE(static_cast<bool>(CpuLoaded));
  EXPECT_EQ(CpuLoaded->getTarget(), Target::CPU);
  std::remove(CpuPath.c_str());

  // A GPU compile records the select-cascade lowering; Auto selects the
  // simulated GPU engine on load.
  CompilerOptions Gpu;
  Gpu.TheTarget = Target::GPU;
  Expected<CompiledKernel> GpuKernel =
      compileModel(*Model, spn::QueryConfig(), Gpu);
  ASSERT_TRUE(static_cast<bool>(GpuKernel));
  EXPECT_EQ(GpuKernel->getProgram().Lowering,
            vm::LoweringKind::SelectCascade);
  std::string GpuPath = ::testing::TempDir() + "/auto_gpu.spnk";
  ASSERT_TRUE(succeeded(saveCompiledKernel(*GpuKernel, GpuPath)));
  Expected<CompiledKernel> GpuLoaded = loadCompiledKernel(GpuPath);
  ASSERT_TRUE(static_cast<bool>(GpuLoaded));
  EXPECT_EQ(GpuLoaded->getTarget(), Target::GPU);

  // An explicit target always wins over the recorded lowering.
  Expected<CompiledKernel> Forced =
      loadCompiledKernel(GpuPath, Target::CPU);
  ASSERT_TRUE(static_cast<bool>(Forced));
  EXPECT_EQ(Forced->getTarget(), Target::CPU);
  std::remove(GpuPath.c_str());
}

TEST_F(RuntimeTest, EnginesDescribeThemselves) {
  CompilerOptions Cpu;
  Cpu.Execution.VectorWidth = 8;
  Expected<CompiledKernel> CpuKernel =
      compileModel(*Model, spn::QueryConfig(), Cpu);
  ASSERT_TRUE(static_cast<bool>(CpuKernel));
  EXPECT_NE(CpuKernel->getEngine().describe().find("simd w=8"),
            std::string::npos);

  CompilerOptions Gpu;
  Gpu.TheTarget = Target::GPU;
  Expected<CompiledKernel> GpuKernel =
      compileModel(*Model, spn::QueryConfig(), Gpu);
  ASSERT_TRUE(static_cast<bool>(GpuKernel));
  EXPECT_NE(GpuKernel->getEngine().describe().find("gpusim"),
            std::string::npos);
}

TEST_F(RuntimeTest, ConcurrentExecutionMatchesReferenceOnBothEngines) {
  // One shared engine per target, hammered from several threads; every
  // thread's results must match the interpreter reference. This is the
  // thread-safety contract of ExecutionEngine::execute (per-call stats,
  // no mutable engine state).
  baselines::SPFlowInterpreter Interpreter(*Model);
  std::vector<double> Reference(kNumSamples);
  Interpreter.execute(Data.data(), Reference.data(), kNumSamples);

  for (Target TheTarget : {Target::CPU, Target::GPU}) {
    CompilerOptions Options;
    Options.TheTarget = TheTarget;
    Options.Execution.VectorWidth = 4;
    Expected<CompiledKernel> KernelOrError =
        compileModel(*Model, spn::QueryConfig(), Options);
    ASSERT_TRUE(static_cast<bool>(KernelOrError));
    const CompiledKernel Kernel = KernelOrError.takeValue();

    constexpr unsigned kNumThreads = 8;
    constexpr unsigned kRunsPerThread = 4;
    std::atomic<unsigned> Mismatches{0};
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < kNumThreads; ++T)
      Threads.emplace_back([&] {
        std::vector<double> Output(kNumSamples);
        for (unsigned Run = 0; Run < kRunsPerThread; ++Run) {
          ExecutionStats Stats;
          Kernel.execute(Data.data(), Output.data(), kNumSamples,
                         &Stats);
          if (Stats.NumSamples != kNumSamples)
            ++Mismatches;
          if (Stats.HasGpuStats != (TheTarget == Target::GPU))
            ++Mismatches;
          for (size_t S = 0; S < kNumSamples; ++S)
            if (std::fabs(Output[S] - Reference[S]) >
                std::fabs(Reference[S]) * 1e-4 + 1e-4)
              ++Mismatches;
        }
      });
    for (std::thread &T : Threads)
      T.join();
    EXPECT_EQ(Mismatches.load(), 0u)
        << "target " << targetName(TheTarget);
  }
}

} // namespace
