//===- differential_test.cpp - Compiled-vs-interpreter differential suite ------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-stage analog of the paper's correctness claim (§IV: a sequence
/// of semantics-preserving lowerings): for a population of randomly
/// generated SPNs, the compiled CPU executor must reproduce the
/// SPFlow-style reference interpreter (InterpreterEngine) to within
/// 1e-9 on log-likelihoods — for joint and marginal queries, with and
/// without task partitioning. The CPU legs compute in f64 (the query
/// pins the compute type), so their bound is a genuine
/// few-ulps-of-reassociation budget, not an f32 allowance. The GPU
/// legs run the same population through the simulated-GPU executor in
/// f32 with a matching relative tolerance.
///
//===----------------------------------------------------------------------===//

#include "backend/CppBackend.h"
#include "backend/CppEmitter.h"
#include "baselines/Baselines.h"
#include "runtime/Compiler.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

using namespace spnc;
using namespace spnc::runtime;

namespace {

constexpr double kTolerance = 1e-9;
constexpr size_t kNumModels = 50;
constexpr size_t kNumSamples = 16;

/// One randomly drawn model+data scenario of the population.
struct Scenario {
  spn::Model Model;
  std::vector<double> JointData;
  std::vector<double> MarginalData;
};

/// Draws the \p Index-th random SPN of the population: speaker-shaped
/// graphs of varying size/leaf mix (reusing the seeded workload
/// generators, so the population is identical on every platform).
Scenario makeScenario(size_t Index) {
  Rng SizeRng(0x5eed5eedULL + Index);
  workloads::SpeakerModelOptions Options;
  Options.Seed = 1000 + Index;
  Options.TargetOperations =
      static_cast<unsigned>(120 + (SizeRng.next() % 600));
  Options.ContinuousFeatureFraction =
      0.3 + 0.5 * static_cast<double>(SizeRng.next() % 100) / 100.0;
  Scenario S{workloads::generateSpeakerModel(Options),
             workloads::generateSpeechData(Options, kNumSamples,
                                           9000 + Index),
             workloads::generateNoisySpeechData(Options, kNumSamples,
                                                9500 + Index,
                                                /*DropProbability=*/0.3)};
  return S;
}

/// Log-likelihoods of \p Engine over \p Data.
std::vector<double> runEngine(const ExecutionEngine &Engine,
                              const std::vector<double> &Data) {
  std::vector<double> Output(kNumSamples, 0.0);
  EXPECT_TRUE(Engine.run({.Input = Data.data(),
                          .Output = Output.data(),
                          .NumSamples = kNumSamples}))
      << "engine refused a joint request: " << Engine.describe();
  return Output;
}

/// Compiles \p Model for the CPU in f64 and checks its log-likelihoods
/// against the reference interpreter on \p Data.
void expectMatchesInterpreter(const Scenario &S,
                              const std::vector<double> &Data,
                              bool Marginal, uint32_t MaxPartitionSize,
                              size_t Index) {
  CompilerOptions Options;
  Options.TheTarget = Target::CPU;
  // Vary the optimization level and vector width across the population
  // so the differential net also covers the codegen design space.
  Options.OptLevel = static_cast<unsigned>(Index % 4);
  Options.Execution.VectorWidth = Index % 2 == 0 ? 8 : 1;
  Options.MaxPartitionSize = MaxPartitionSize;

  spn::QueryConfig Query;
  Query.LogSpace = true;
  Query.SupportMarginal = Marginal;
  Query.DataType = spn::ComputeType::F64;

  Expected<CompiledKernel> Kernel =
      compileModel(S.Model, Query, Options);
  ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError().message();

  baselines::InterpreterEngine Interpreter(S.Model);
  std::vector<double> Reference = runEngine(Interpreter, Data);
  std::vector<double> Compiled = runEngine(Kernel->getEngine(), Data);

  for (size_t I = 0; I < kNumSamples; ++I) {
    ASSERT_TRUE(std::isfinite(Reference[I]))
        << "model " << Index << " sample " << I
        << ": reference not finite";
    EXPECT_NEAR(Compiled[I], Reference[I], kTolerance)
        << "model " << Index << " sample " << I
        << (Marginal ? " (marginal" : " (joint")
        << (MaxPartitionSize ? ", partitioned)" : ", unpartitioned)");
  }
}

/// Partition budget that actually splits these graphs (far below the
/// generated operation counts).
uint32_t partitionBudget(const Scenario &S) {
  size_t NumNodes = S.Model.computeStats().NumNodes;
  return static_cast<uint32_t>(NumNodes / 4 + 16);
}

/// Compiles \p Model for the simulated GPU and checks it against the
/// reference interpreter on \p Data. The GPU path computes in f32 (the
/// paper's device precision), so the bound is the f32-appropriate
/// relative+absolute allowance used by gpusim_test, not the f64 ulps
/// budget of the CPU legs.
void expectGpuMatchesInterpreter(const Scenario &S,
                                 const std::vector<double> &Data,
                                 bool Marginal,
                                 uint32_t MaxPartitionSize,
                                 size_t Index) {
  CompilerOptions Options;
  Options.TheTarget = Target::GPU;
  Options.OptLevel = static_cast<unsigned>(Index % 4);
  Options.MaxPartitionSize = MaxPartitionSize;

  spn::QueryConfig Query;
  Query.LogSpace = true;
  Query.SupportMarginal = Marginal;
  Query.DataType = spn::ComputeType::F32;

  Expected<CompiledKernel> Kernel =
      compileModel(S.Model, Query, Options);
  ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError().message();

  baselines::InterpreterEngine Interpreter(S.Model);
  std::vector<double> Reference = runEngine(Interpreter, Data);
  std::vector<double> Compiled = runEngine(Kernel->getEngine(), Data);

  for (size_t I = 0; I < kNumSamples; ++I) {
    ASSERT_TRUE(std::isfinite(Reference[I]))
        << "model " << Index << " sample " << I
        << ": reference not finite";
    double Bound = std::abs(Reference[I]) * 1e-4 + 1e-4;
    EXPECT_NEAR(Compiled[I], Reference[I], Bound)
        << "gpu model " << Index << " sample " << I
        << (Marginal ? " (marginal" : " (joint")
        << (MaxPartitionSize ? ", partitioned)" : ", unpartitioned)");
  }
}

TEST(DifferentialTest, JointUnpartitioned) {
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    expectMatchesInterpreter(S, S.JointData, /*Marginal=*/false,
                             /*MaxPartitionSize=*/0, I);
  }
}

TEST(DifferentialTest, JointPartitioned) {
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    expectMatchesInterpreter(S, S.JointData, /*Marginal=*/false,
                             partitionBudget(S), I);
  }
}

TEST(DifferentialTest, MarginalUnpartitioned) {
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    expectMatchesInterpreter(S, S.MarginalData, /*Marginal=*/true,
                             /*MaxPartitionSize=*/0, I);
  }
}

TEST(DifferentialTest, MarginalPartitioned) {
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    expectMatchesInterpreter(S, S.MarginalData, /*Marginal=*/true,
                             partitionBudget(S), I);
  }
}

// The GPU legs cover both query kinds and both partitioning regimes
// across the same 50-model population without quadrupling the suite's
// runtime: joint/unpartitioned and marginal/partitioned span the two
// axes.
TEST(DifferentialTest, GpuJointUnpartitioned) {
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    expectGpuMatchesInterpreter(S, S.JointData, /*Marginal=*/false,
                                /*MaxPartitionSize=*/0, I);
  }
}

TEST(DifferentialTest, GpuMarginalPartitioned) {
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    expectGpuMatchesInterpreter(S, S.MarginalData, /*Marginal=*/true,
                                partitionBudget(S), I);
  }
}

/// Registers \p Inst reads; a select or NaN blend also reads its Dst,
/// the value it keeps when its condition fails. A LogSumExpN reads the
/// register half of its operands, Args[A .. A+B); its weights,
/// Args[C .. C+B), are const-pool slots. A LogSumExpGroup reads its
/// children, Args[A .. A+B).
std::vector<uint32_t> readsOf(const vm::TaskProgram &Task,
                              const vm::Instruction &Inst) {
  using vm::OpCode;
  switch (Inst.Op) {
  case OpCode::Const:
  case OpCode::Load:
    return {};
  case OpCode::Store:
    return {Inst.Dst};
  case OpCode::Gaussian:
  case OpCode::GaussianLog:
  case OpCode::TableLookup:
    return {Inst.A};
  case OpCode::SelectInRange:
  case OpCode::NanBlend:
    return {Inst.A, Inst.Dst};
  case OpCode::FusedMulAdd:
    return {Inst.A, Inst.B, Inst.C};
  case OpCode::AddN:
  case OpCode::MulN:
  case OpCode::LogSumExpN:
  case OpCode::LogSumExpGroup:
    return std::vector<uint32_t>(Task.Args.begin() + Inst.A,
                                 Task.Args.begin() + Inst.A + Inst.B);
  case OpCode::Add:
  case OpCode::Mul:
  case OpCode::LogSumExp:
  case OpCode::Max:
    break;
  }
  return {Inst.A, Inst.B};
}

/// Registers \p Inst writes: none for a store, a LogSumExpGroup's
/// destinations, Args[A+B .. A+B+C), and Dst for every other opcode.
std::vector<uint32_t> writesOf(const vm::TaskProgram &Task,
                               const vm::Instruction &Inst) {
  if (Inst.Op == vm::OpCode::Store)
    return {};
  if (Inst.Op == vm::OpCode::LogSumExpGroup)
    return std::vector<uint32_t>(
        Task.Args.begin() + Inst.A + Inst.B,
        Task.Args.begin() + Inst.A + Inst.B + Inst.C);
  return {Inst.Dst};
}

/// The -O2 dead-code sweep must leave no pure def (a register an
/// instruction writes without reading it, every destination of a
/// LogSumExpGroup included) whose value is overwritten or never read
/// before it is read — e.g. the weight constants the leaf fold has
/// absorbed. The speaker population has no group, so a RAT-SPN (the
/// ratspn_tiny shape) joins it.
TEST(DifferentialTest, O2ProgramsHoldNoDeadDefs) {
  workloads::RatSpnOptions Rat;
  Rat.NumFeatures = 64;
  Rat.Depth = 3;
  Rat.Replicas = 2;
  Rat.SumsPerRegion = 4;
  Rat.LeafDistributions = 8;
  size_t NumGroups = 0;
  for (size_t I = 0; I <= kNumModels; ++I) {
    spn::Model Model = I < kNumModels ? makeScenario(I).Model
                                      : workloads::generateRatSpn(Rat, 0);
    uint32_t PartitionBudget =
        static_cast<uint32_t>(Model.computeStats().NumNodes / 4 + 16);
    for (bool LogSpace : {true, false})
      for (bool Marginal : {false, true})
        for (uint32_t Budget : {0u, PartitionBudget}) {
          CompilerOptions Options;
          Options.OptLevel = 2;
          Options.MaxPartitionSize = Budget;
          spn::QueryConfig Query;
          Query.LogSpace = LogSpace;
          Query.SupportMarginal = Marginal;
          Expected<CompilationPipeline> Pipeline =
              CompilationPipeline::create(Options);
          ASSERT_TRUE(static_cast<bool>(Pipeline));
          Expected<vm::KernelProgram> Program =
              Pipeline->compile(Model, Query);
          ASSERT_TRUE(static_cast<bool>(Program))
              << "model " << I << ": " << Program.getError().message();
          size_t NumDead = 0;
          std::string First;
          for (const vm::TaskProgram &Task : Program->Tasks) {
            const std::vector<vm::Instruction> &Code = Task.Code;
            for (size_t D = 0; D < Code.size(); ++D) {
              NumGroups += Code[D].Op == vm::OpCode::LogSumExpGroup;
              std::vector<uint32_t> Own = readsOf(Task, Code[D]);
              for (uint32_t Def : writesOf(Task, Code[D])) {
                if (std::count(Own.begin(), Own.end(), Def))
                  continue;
                bool Read = false;
                for (size_t U = D + 1; U < Code.size() && !Read; ++U) {
                  std::vector<uint32_t> Reads = readsOf(Task, Code[U]);
                  Read = std::count(Reads.begin(), Reads.end(), Def) != 0;
                  std::vector<uint32_t> Writes = writesOf(Task, Code[U]);
                  if (!Read &&
                      std::count(Writes.begin(), Writes.end(), Def) != 0)
                    break;
                }
                if (!Read && NumDead++ == 0)
                  First = "instruction " + std::to_string(D) + " (opcode " +
                          std::to_string(static_cast<int>(Code[D].Op)) +
                          ") defining r" + std::to_string(Def);
              }
            }
          }
          EXPECT_EQ(NumDead, 0u)
              << "model " << I << (LogSpace ? " log" : " linear")
              << (Marginal ? " marginal" : " joint")
              << (Budget ? " partitioned" : "") << ": first dead def is "
              << First;
        }
  }
  EXPECT_GT(NumGroups, 0u);
}

//===----------------------------------------------------------------------===//
// MPE differential legs (docs/queries.md): every compiled path must
// reproduce the interpreter oracle's completed assignment and
// max-product log-probability. Full-evidence rows exercise the pure
// upward max pass; the NaN-bearing marginal rows exercise the argmax
// traceback that completes the latent features.
//===----------------------------------------------------------------------===//

struct MpeResult {
  std::vector<double> Assignments;
  std::vector<double> LogProbs;
};

/// An MPE request over \p Data; fails the enclosing test when the
/// engine cannot serve MPE.
MpeResult runMpe(const ExecutionEngine &Engine,
                 const std::vector<double> &Data,
                 unsigned NumFeatures) {
  MpeResult R;
  R.Assignments.resize(kNumSamples * NumFeatures, 0.0);
  R.LogProbs.resize(kNumSamples, 0.0);
  EXPECT_TRUE(Engine.run({.Kind = vm::QueryKind::Mpe,
                          .Input = Data.data(),
                          .Output = R.LogProbs.data(),
                          .Rows = R.Assignments.data(),
                          .NumSamples = kNumSamples}))
      << "engine refused an MPE request: " << Engine.describe();
  return R;
}

/// Exact-match check (f64 paths): assignment and log-probability both
/// within the few-ulps kTolerance of the interpreter oracle.
void expectMpeMatchesOracle(const ExecutionEngine &Engine,
                            const Scenario &S,
                            const std::vector<double> &Data,
                            size_t Index, const char *Leg) {
  unsigned NumFeatures = S.Model.getNumFeatures();
  baselines::InterpreterEngine Oracle(S.Model);
  MpeResult Want = runMpe(Oracle, Data, NumFeatures);
  MpeResult Got = runMpe(Engine, Data, NumFeatures);
  for (size_t I = 0; I < kNumSamples; ++I) {
    ASSERT_TRUE(std::isfinite(Want.LogProbs[I]))
        << Leg << " model " << Index << " sample " << I
        << ": oracle MPE log-probability not finite";
    EXPECT_NEAR(Got.LogProbs[I], Want.LogProbs[I], kTolerance)
        << Leg << " model " << Index << " sample " << I;
    for (unsigned F = 0; F < NumFeatures; ++F)
      EXPECT_NEAR(Got.Assignments[I * NumFeatures + F],
                  Want.Assignments[I * NumFeatures + F], kTolerance)
          << Leg << " model " << Index << " sample " << I
          << " feature " << F;
  }
}

/// Compiles \p S for the CPU VM with the MPE query in f64, the
/// optimization level, vector width and copy avoidance varying with
/// \p Index.
CompiledKernel compileVmMpe(const Scenario &S, size_t Index) {
  CompilerOptions Options;
  Options.TheTarget = Target::CPU;
  Options.OptLevel = static_cast<unsigned>(Index % 4);
  Options.Execution.VectorWidth = Index % 2 == 0 ? 8 : 1;
  Options.AvoidBufferCopies = Index % 3 != 0;
  spn::QueryConfig Query;
  Query.Kind = spn::QueryKind::Mpe;
  Query.DataType = spn::ComputeType::F64;
  Expected<CompiledKernel> Kernel =
      compileModel(S.Model, Query, Options);
  EXPECT_TRUE(static_cast<bool>(Kernel))
      << "model " << Index << ": " << Kernel.getError().message();
  return Kernel ? Kernel.takeValue() : CompiledKernel();
}

TEST(DifferentialTest, MpeVmFullAndPartialEvidence) {
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    CompiledKernel Kernel = compileVmMpe(S, I);
    ASSERT_TRUE(Kernel.getEngineShared() != nullptr);
    expectMpeMatchesOracle(Kernel.getEngine(), S, S.JointData, I,
                           "vm/full");
    expectMpeMatchesOracle(Kernel.getEngine(), S, S.MarginalData, I,
                           "vm/partial");
  }
}

TEST(DifferentialTest, MpeCppBackendFullAndPartialEvidence) {
  backend::CppBackendOptions CppOptions;
  // One host compile per model.
  CppOptions.ExtraFlags = {"-O0", "-march=native"};
  backend::CppBackend Cpp(CppOptions);
  std::string SkipReason;
  if (!Cpp.isAvailable(&SkipReason))
    GTEST_SKIP() << SkipReason;
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    // 8-lane blocks, so each row's traceback reads its own lane.
    CompilerOptions Options;
    Options.TheTarget = Target::CPU;
    Options.Execution.VectorWidth = 8;
    spn::QueryConfig Query;
    Query.Kind = spn::QueryKind::Mpe;
    Query.DataType = spn::ComputeType::F64;
    Expected<CompilationPipeline> Pipeline =
        CompilationPipeline::create(Options);
    ASSERT_TRUE(static_cast<bool>(Pipeline));
    Expected<std::shared_ptr<ExecutionEngine>> Engine =
        Cpp.compile(*Pipeline, S.Model, Query);
    ASSERT_TRUE(static_cast<bool>(Engine))
        << "model " << I << ": " << Engine.getError().message();
    expectMpeMatchesOracle(**Engine, S, S.JointData, I,
                           "cpp/full");
    expectMpeMatchesOracle(**Engine, S, S.MarginalData, I,
                           "cpp/partial");
  }

  // An upward pass that spans several segment functions and units.
  workloads::SpeakerModelOptions Options;
  Options.Seed = 4242;
  Options.TargetOperations = 2000;
  Scenario S{workloads::generateSpeakerModel(Options),
             workloads::generateSpeechData(Options, kNumSamples, 9900),
             workloads::generateNoisySpeechData(Options, kNumSamples, 9901,
                                                /*DropProbability=*/0.3)};
  spn::QueryConfig Query;
  Query.Kind = spn::QueryKind::Mpe;
  Query.DataType = spn::ComputeType::F64;
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Pipeline));
  Expected<std::shared_ptr<ExecutionEngine>> Engine =
      Cpp.compile(*Pipeline, S.Model, Query);
  ASSERT_TRUE(static_cast<bool>(Engine))
      << "split model: " << Engine.getError().message();
  EXPECT_GT((*Engine)->getProgram()->Tasks[0].Code.size(),
            3 * backend::kCppSegmentInstructions);
  expectMpeMatchesOracle(**Engine, S, S.JointData, kNumModels,
                         "cpp/split/full");
  expectMpeMatchesOracle(**Engine, S, S.MarginalData, kNumModels,
                         "cpp/split/partial");
}

/// GPU leg: the simulated device computes the upward pass in f32, so a
/// near-tie may legitimately resolve to a different argmax than the f64
/// oracle. The check is therefore on quality, not identity: the
/// assignment the GPU returns must score (under the f64 oracle's
/// max-product evaluator) within the f32 allowance of the true optimum,
/// and the reported log-probability must match to the same allowance.
TEST(DifferentialTest, MpeGpuSimulatorNearOracle) {
  for (size_t I = 0; I < kNumModels; ++I) {
    Scenario S = makeScenario(I);
    unsigned NumFeatures = S.Model.getNumFeatures();
    CompilerOptions Options;
    Options.TheTarget = Target::GPU;
    spn::QueryConfig Query;
    Query.Kind = spn::QueryKind::Mpe;
    Query.DataType = spn::ComputeType::F32;
    Expected<CompiledKernel> Kernel =
        compileModel(S.Model, Query, Options);
    ASSERT_TRUE(static_cast<bool>(Kernel))
        << "model " << I << ": " << Kernel.getError().message();

    baselines::InterpreterEngine Oracle(S.Model);
    for (const std::vector<double> *Data :
         {&S.JointData, &S.MarginalData}) {
      MpeResult Want = runMpe(Oracle, *Data, NumFeatures);
      MpeResult Got = runMpe(Kernel->getEngine(), *Data, NumFeatures);
      for (size_t Smp = 0; Smp < kNumSamples; ++Smp) {
        double Bound = std::abs(Want.LogProbs[Smp]) * 1e-4 + 1e-4;
        EXPECT_NEAR(Got.LogProbs[Smp], Want.LogProbs[Smp], Bound)
            << "gpu model " << I << " sample " << Smp;
        // Score the GPU's completed assignment with the oracle: with
        // full evidence evalMpe is the max-product value of exactly
        // that assignment.
        std::vector<double> Scratch(NumFeatures);
        double GpuScore = S.Model.evalMpe(
            std::span<const double>(
                &Got.Assignments[Smp * NumFeatures], NumFeatures),
            std::span<double>(Scratch));
        EXPECT_NEAR(GpuScore, Want.LogProbs[Smp], Bound)
            << "gpu model " << I << " sample " << Smp
            << ": assignment scores off-optimum";
      }
    }
  }
}

/// The interpreter itself must agree with the model's reference
/// evaluator — anchors the differential chain to the ground truth.
TEST(DifferentialTest, InterpreterMatchesReferenceEvaluator) {
  Scenario S = makeScenario(0);
  baselines::InterpreterEngine Interpreter(S.Model);
  std::vector<double> Output = runEngine(Interpreter, S.JointData);
  unsigned NumFeatures = S.Model.getNumFeatures();
  for (size_t I = 0; I < kNumSamples; ++I) {
    double Reference = S.Model.evalLogLikelihood(std::span<const double>(
        &S.JointData[I * NumFeatures], NumFeatures));
    EXPECT_NEAR(Output[I], Reference, kTolerance) << "sample " << I;
  }
}

} // namespace
