//===- property_test.cpp - Cross-engine property sweeps --------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized property sweeps asserting the system's central
/// invariant: every compilation/execution configuration computes the same
/// probabilities as the reference model evaluator, over random models,
/// seeds, batch shapes, partition sizes and threading configurations.
///
//===----------------------------------------------------------------------===//

#include "backend/CppBackend.h"
#include "backend/VmBackend.h"
#include "baselines/Baselines.h"
#include "runtime/Compiler.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

using namespace spnc;
using namespace spnc::runtime;

namespace {

/// Draws one ancestral sample per evidence row on \p Engine.
bool drawSamples(const ExecutionEngine &Engine, const double *Evidence,
                 double *Out, size_t NumSamples, uint64_t Seed) {
  return Engine.run({.Kind = vm::QueryKind::Sample,
                     .Input = Evidence,
                     .Rows = Out,
                     .NumSamples = NumSamples,
                     .Seed = Seed});
}

/// Completes the evidence rows by MPE on \p Engine.
bool completeMpe(const ExecutionEngine &Engine, const double *Evidence,
                 double *Assignments, double *LogProbs, size_t NumSamples) {
  return Engine.run({.Kind = vm::QueryKind::Mpe,
                     .Input = Evidence,
                     .Output = LogProbs,
                     .Rows = Assignments,
                     .NumSamples = NumSamples});
}

struct SweepCase {
  uint64_t ModelSeed;
  unsigned VectorWidth;
  uint32_t MaxPartitionSize; // 0 = no partitioning
  unsigned OptLevel;
  Target TheTarget;
};

void PrintTo(const SweepCase &Case, std::ostream *Out) {
  *Out << "seed=" << Case.ModelSeed << " W=" << Case.VectorWidth
       << " part=" << Case.MaxPartitionSize << " O=" << Case.OptLevel
       << (Case.TheTarget == Target::GPU ? " gpu" : " cpu");
}

class EngineSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EngineSweepTest, MatchesReferenceEvaluator) {
  const SweepCase &Case = GetParam();
  workloads::SpeakerModelOptions ModelOptions;
  ModelOptions.TargetOperations = 350;
  ModelOptions.Seed = Case.ModelSeed;
  spn::Model Model = workloads::generateSpeakerModel(ModelOptions);
  const size_t NumSamples = 61; // prime: a padded last block at every W
  std::vector<double> Data = workloads::generateSpeechData(
      ModelOptions, NumSamples, Case.ModelSeed + 1000);

  CompilerOptions Options;
  Options.OptLevel = Case.OptLevel;
  Options.TheTarget = Case.TheTarget;
  Options.MaxPartitionSize = Case.MaxPartitionSize;
  Options.Execution.VectorWidth = Case.VectorWidth;
  Expected<CompiledKernel> Kernel =
      compileModel(Model, spn::QueryConfig(), Options);
  ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError().message();

  std::vector<double> Output(NumSamples);
  Kernel->execute(Data.data(), Output.data(), NumSamples);
  for (size_t S = 0; S < NumSamples; ++S) {
    double Reference = Model.evalLogLikelihood(
        std::span<const double>(&Data[S * 26], 26));
    EXPECT_NEAR(Output[S], Reference,
                std::max(5e-3, std::fabs(Reference) * 5e-3))
        << "sample " << S;
  }
}

std::vector<SweepCase> makeSweep() {
  std::vector<SweepCase> Cases;
  for (uint64_t Seed : {11u, 23u, 37u})
    for (unsigned Width : {1u, 8u})
      for (uint32_t Partition : {0u, 48u})
        Cases.push_back(SweepCase{Seed, Width, Partition, 2, Target::CPU});
  // GPU and extreme-width spot checks.
  Cases.push_back(SweepCase{11, 1, 0, 2, Target::GPU});
  Cases.push_back(SweepCase{23, 1, 48, 1, Target::GPU});
  Cases.push_back(SweepCase{37, 16, 0, 3, Target::CPU});
  Cases.push_back(SweepCase{11, 4, 48, 0, Target::CPU});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineSweepTest,
                         ::testing::ValuesIn(makeSweep()));

//===----------------------------------------------------------------------===//
// Threading / chunking matrix
//===----------------------------------------------------------------------===//

class ChunkingTest
    : public ::testing::TestWithParam<std::tuple<unsigned, uint32_t>> {};

TEST_P(ChunkingTest, ChunkedExecutionMatchesSingleThread) {
  auto [NumThreads, ChunkSize] = GetParam();
  workloads::SpeakerModelOptions ModelOptions;
  ModelOptions.TargetOperations = 300;
  ModelOptions.Seed = 5;
  spn::Model Model = workloads::generateSpeakerModel(ModelOptions);
  const size_t NumSamples = 157;
  std::vector<double> Data =
      workloads::generateSpeechData(ModelOptions, NumSamples, 77);

  CompilerOptions Single;
  Single.OptLevel = 2;
  Expected<CompiledKernel> Reference =
      compileModel(Model, spn::QueryConfig(), Single);
  ASSERT_TRUE(static_cast<bool>(Reference));
  std::vector<double> Expected(NumSamples);
  Reference->execute(Data.data(), Expected.data(), NumSamples);

  CompilerOptions Chunked = Single;
  Chunked.Execution.NumThreads = NumThreads;
  Chunked.Execution.ChunkSize = ChunkSize;
  Chunked.Execution.VectorWidth = 8;
  auto Kernel = compileModel(Model, spn::QueryConfig(), Chunked);
  ASSERT_TRUE(static_cast<bool>(Kernel));
  std::vector<double> Actual(NumSamples);
  Kernel->execute(Data.data(), Actual.data(), NumSamples);
  for (size_t S = 0; S < NumSamples; ++S)
    EXPECT_NEAR(Actual[S], Expected[S],
                std::fabs(Expected[S]) * 1e-4 + 1e-4)
        << "sample " << S;
}

INSTANTIATE_TEST_SUITE_P(
    Threads, ChunkingTest,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Values(1u, 13u, 64u, 1000u)));

//===----------------------------------------------------------------------===//
// RAT-SPN end-to-end
//===----------------------------------------------------------------------===//

TEST(RatSpnPropertyTest, PartitionedRatSpnMatchesReference) {
  workloads::RatSpnOptions Options;
  Options.NumFeatures = 32;
  Options.Depth = 3;
  Options.Replicas = 2;
  Options.SumsPerRegion = 3;
  Options.LeafDistributions = 4;
  for (unsigned Class = 0; Class < 2; ++Class) {
    spn::Model Model = workloads::generateRatSpn(Options, Class);
    std::vector<double> Data =
        workloads::generateImageData(32, 2, 19, Class + 50, nullptr);

    CompilerOptions Compile;
    Compile.OptLevel = 2;
    Compile.MaxPartitionSize = 100;
    Compile.Execution.VectorWidth = 8;
    auto Kernel = compileModel(Model, spn::QueryConfig(), Compile);
    ASSERT_TRUE(static_cast<bool>(Kernel));
    EXPECT_GT(Kernel->getProgram().Tasks.size(), 1u);

    std::vector<double> Output(19);
    Kernel->execute(Data.data(), Output.data(), 19);
    for (size_t S = 0; S < 19; ++S) {
      double Reference = Model.evalLogLikelihood(
          std::span<const double>(&Data[S * 32], 32));
      EXPECT_NEAR(Output[S], Reference,
                  std::max(5e-3, std::fabs(Reference) * 5e-3));
    }
  }
}

TEST(RatSpnPropertyTest, BatchSizeInvariance) {
  // The batch-size hint is an optimization hint only: results must be
  // identical for any number of input samples (paper §IV-B).
  workloads::SpeakerModelOptions ModelOptions;
  ModelOptions.TargetOperations = 300;
  ModelOptions.Seed = 9;
  spn::Model Model = workloads::generateSpeakerModel(ModelOptions);
  std::vector<double> Data =
      workloads::generateSpeechData(ModelOptions, 100, 4);

  for (uint32_t BatchSize : {1u, 7u, 64u, 4096u}) {
    spn::QueryConfig Query;
    Query.BatchSize = BatchSize;
    CompilerOptions Options;
    Options.Execution.VectorWidth = 8;
    auto Kernel = compileModel(Model, Query, Options);
    ASSERT_TRUE(static_cast<bool>(Kernel));
    for (size_t NumSamples : {1u, 3u, 100u}) {
      std::vector<double> Output(NumSamples);
      Kernel->execute(Data.data(), Output.data(), NumSamples);
      for (size_t S = 0; S < NumSamples; ++S) {
        double Reference = Model.evalLogLikelihood(
            std::span<const double>(&Data[S * 26], 26));
        EXPECT_NEAR(Output[S], Reference,
                    std::max(5e-3, std::fabs(Reference) * 5e-3));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// MPE and sampling properties (docs/queries.md)
//===----------------------------------------------------------------------===//

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The compiled engines the MPE/sampling contracts of docs/queries.md
/// cover "in every engine". The cpp backend comes last: on a host
/// without a compiler the test is skipped there, after the others ran.
const char *const kEngines[] = {"vm", "gpusim", "cpp"};

/// Compiles \p Model with the given query kind for \p Engine (one of
/// kEngines): f32 on the simulated GPU, f64 on the CPU engines. The cpp
/// backend builds 8-lane kernels at -O0, one quick host compile per
/// kernel.
CompiledKernel compileFor(const spn::Model &Model, spn::QueryKind Kind,
                          const std::string &Engine = "vm") {
  spn::QueryConfig Query;
  Query.Kind = Kind;
  Query.DataType = Engine == "gpusim" ? spn::ComputeType::F32
                                      : spn::ComputeType::F64;
  CompilerOptions Options;
  Options.TheTarget = Engine == "gpusim" ? Target::GPU : Target::CPU;
  Options.Execution.VectorWidth = 8;
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(Options);
  EXPECT_TRUE(static_cast<bool>(Pipeline));
  backend::CppBackendOptions Fast;
  Fast.ExtraFlags = {"-O0", "-march=native"};
  std::unique_ptr<backend::Backend> Backend;
  if (Engine == "cpp")
    Backend = std::make_unique<backend::CppBackend>(Fast);
  else
    Backend = std::make_unique<backend::VmBackend>();
  Expected<std::shared_ptr<ExecutionEngine>> Compiled =
      Backend->compile(*Pipeline, Model, Query);
  EXPECT_TRUE(static_cast<bool>(Compiled))
      << Engine << ": " << Compiled.getError().message();
  return Compiled ? CompiledKernel(Compiled.takeValue())
                  : CompiledKernel();
}

/// Why \p Engine cannot run on this host, empty when it can.
std::string unavailableReason(const std::string &Engine) {
  std::string Reason;
  if (Engine == "cpp" && !backend::CppBackend().isAvailable(&Reason))
    return Reason;
  return std::string();
}

/// MPE optimality: the completed assignment must score, in the
/// max-product semiring the query optimizes (scoring a full-evidence
/// row with evalMpe evaluates exactly that completion), at least as
/// high as 1000 random completions of the same evidence. Max-product
/// MPE is exact for this objective even on non-selective SPNs, so the
/// dominance is a hard invariant, not a statistical one.
TEST(MpePropertyTest, MpeDominatesRandomCompletions) {
  for (uint64_t Seed : {3u, 17u}) {
    workloads::SpeakerModelOptions ModelOptions;
    ModelOptions.TargetOperations = 200;
    ModelOptions.Seed = Seed;
    spn::Model Model = workloads::generateSpeakerModel(ModelOptions);
    unsigned NumFeatures = Model.getNumFeatures();
    std::vector<double> Data = workloads::generateNoisySpeechData(
        ModelOptions, 2, Seed + 7, /*DropProbability=*/0.5);
    for (size_t Row = 0; Row < 2; ++Row) {
      std::span<const double> Evidence(&Data[Row * NumFeatures],
                                       NumFeatures);
      std::vector<double> Best(NumFeatures);
      double BestScore =
          Model.evalMpe(Evidence, std::span<double>(Best));
      ASSERT_TRUE(std::isfinite(BestScore));
      // Re-scoring the completed assignment as full evidence must
      // reproduce the traceback's own score.
      std::vector<double> Scratch(NumFeatures);
      EXPECT_NEAR(Model.evalMpe(std::span<const double>(Best),
                                std::span<double>(Scratch)),
                  BestScore, 1e-9);
      Rng R(0xabcdef01ULL + Seed * 131 + Row);
      std::vector<double> Completion(NumFeatures);
      for (int Try = 0; Try < 1000; ++Try) {
        Model.sampleAncestral(Evidence, std::span<double>(Completion),
                              R);
        double Score =
            Model.evalMpe(std::span<const double>(Completion),
                          std::span<double>(Scratch));
        EXPECT_LE(Score, BestScore + 1e-9)
            << "seed " << Seed << " row " << Row << " completion "
            << Try << " beats the MPE assignment";
      }
    }
  }
}

/// Seeded sampling is bit-reproducible per engine: the same seed yields
/// byte-identical batches, a different seed yields a different batch.
/// The CPU engines, both f64, draw the same bytes.
TEST(SamplingPropertyTest, FixedSeedIsDeterministic) {
  workloads::SpeakerModelOptions ModelOptions;
  ModelOptions.TargetOperations = 200;
  ModelOptions.Seed = 29;
  spn::Model Model = workloads::generateSpeakerModel(ModelOptions);
  unsigned NumFeatures = Model.getNumFeatures();
  const size_t NumSamples = 32;
  std::vector<double> Evidence(NumSamples * NumFeatures, kNaN);

  // The interpreter oracle honours the same contract.
  baselines::InterpreterEngine Oracle(Model);
  std::vector<double> OracleFirst(NumSamples * NumFeatures);
  std::vector<double> OracleSecond(NumSamples * NumFeatures);
  ASSERT_TRUE(drawSamples(Oracle, Evidence.data(), OracleFirst.data(),
                          NumSamples, 42));
  ASSERT_TRUE(drawSamples(Oracle, Evidence.data(), OracleSecond.data(),
                          NumSamples, 42));
  EXPECT_EQ(OracleFirst, OracleSecond);

  std::vector<double> VmFirst;
  for (const char *Engine : kEngines) {
    if (std::string Reason = unavailableReason(Engine); !Reason.empty())
      GTEST_SKIP() << Reason;
    CompiledKernel Kernel = compileFor(Model, spn::QueryKind::Sample, Engine);
    ASSERT_TRUE(Kernel.getEngineShared() != nullptr);
    std::vector<double> First(NumSamples * NumFeatures);
    std::vector<double> Second(NumSamples * NumFeatures);
    std::vector<double> Other(NumSamples * NumFeatures);
    ASSERT_TRUE(drawSamples(Kernel.getEngine(),
                            Evidence.data(), First.data(), NumSamples, 42));
    ASSERT_TRUE(drawSamples(Kernel.getEngine(),
                            Evidence.data(), Second.data(), NumSamples, 42));
    ASSERT_TRUE(drawSamples(Kernel.getEngine(),
                            Evidence.data(), Other.data(), NumSamples, 43));
    EXPECT_EQ(First, Second)
        << Engine << ": same seed must be bit-reproducible";
    EXPECT_NE(First, Other)
        << Engine << ": a different seed must change the draw";
    if (std::string(Engine) == "vm") {
      VmFirst = First;
    } else if (std::string(Engine) == "cpp") {
      EXPECT_EQ(First, VmFirst) << "cpp drew other rows than the VM";
    }
  }
}

/// Empirical marginals of 50k unconditioned draws match the model's
/// exact marginals: chi-squared over the discrete feature's buckets
/// (df=1; 16.0 is far beyond the p=1e-4 critical value 15.1) and the
/// mixture mean of the Gaussian feature.
TEST(SamplingPropertyTest, EmpiricalMarginalsMatchExact) {
  spn::Model Model(2, "sampling-mixture");
  spn::Node *H0a = Model.makeHistogram(
      0, {spn::HistogramBucket{0, 1, 0.2}, spn::HistogramBucket{1, 2, 0.8}});
  spn::Node *H0b = Model.makeHistogram(
      0, {spn::HistogramBucket{0, 1, 0.7}, spn::HistogramBucket{1, 2, 0.3}});
  spn::Node *G1a = Model.makeGaussian(1, 0.0, 1.0);
  spn::Node *G1b = Model.makeGaussian(1, 3.0, 0.5);
  Model.setRoot(Model.makeSum({Model.makeProduct({H0a, G1a}),
                               Model.makeProduct({H0b, G1b})},
                              {0.4, 0.6}));

  CompiledKernel Kernel = compileFor(Model, spn::QueryKind::Sample);
  ASSERT_TRUE(Kernel.getEngineShared() != nullptr);
  const size_t NumSamples = 50000;
  std::vector<double> Evidence(NumSamples * 2, kNaN);
  std::vector<double> Out(NumSamples * 2);
  ASSERT_TRUE(drawSamples(Kernel.getEngine(),
                          Evidence.data(), Out.data(), NumSamples, 1234));

  // Exact bucket masses from the reference evaluator (NaN marginalizes
  // the Gaussian feature); drawn discrete values are bucket lower
  // bounds, i.e. 0.0 or 1.0.
  double Bucket0[2] = {0.5, kNaN};
  double Bucket1[2] = {1.5, kNaN};
  double P0 = std::exp(
      Model.evalLogLikelihood(std::span<const double>(Bucket0, 2)));
  double P1 = std::exp(
      Model.evalLogLikelihood(std::span<const double>(Bucket1, 2)));
  ASSERT_NEAR(P0 + P1, 1.0, 1e-12);

  size_t Counts[2] = {0, 0};
  double GaussianSum = 0.0;
  for (size_t S = 0; S < NumSamples; ++S) {
    double V = Out[S * 2];
    ASSERT_TRUE(V == 0.0 || V == 1.0) << "sample " << S
                                      << " outside the support: " << V;
    ++Counts[V == 0.0 ? 0 : 1];
    GaussianSum += Out[S * 2 + 1];
  }
  double Chi2 = 0.0;
  double Expected[2] = {P0 * NumSamples, P1 * NumSamples};
  for (int B = 0; B < 2; ++B)
    Chi2 += (Counts[B] - Expected[B]) * (Counts[B] - Expected[B]) /
            Expected[B];
  EXPECT_LT(Chi2, 16.0) << "counts " << Counts[0] << "/" << Counts[1]
                        << " vs expected " << Expected[0] << "/"
                        << Expected[1];

  // Mixture mean 0.4*0 + 0.6*3 = 1.8, sd ~1.65 => SE ~0.0074; 0.05 is
  // a ~6.7 sigma allowance.
  EXPECT_NEAR(GaussianSum / NumSamples, 1.8, 0.05);
}

/// Conditioning on full evidence: sampling draws nothing and every
/// engine echoes the evidence rows bitwise.
TEST(SamplingPropertyTest, FullEvidenceEchoesThrough) {
  workloads::SpeakerModelOptions ModelOptions;
  ModelOptions.TargetOperations = 200;
  ModelOptions.Seed = 31;
  spn::Model Model = workloads::generateSpeakerModel(ModelOptions);
  unsigned NumFeatures = Model.getNumFeatures();
  const size_t NumSamples = 16;
  std::vector<double> Evidence = workloads::generateSpeechData(
      ModelOptions, NumSamples, 777);

  std::vector<double> Out(NumSamples * NumFeatures);
  baselines::InterpreterEngine Oracle(Model);
  ASSERT_TRUE(drawSamples(Oracle, Evidence.data(), Out.data(), NumSamples, 5));
  EXPECT_EQ(Out, Evidence) << "interpreter";
  for (const char *Engine : kEngines) {
    if (std::string Reason = unavailableReason(Engine); !Reason.empty())
      GTEST_SKIP() << Reason;
    CompiledKernel Kernel = compileFor(Model, spn::QueryKind::Sample, Engine);
    ASSERT_TRUE(Kernel.getEngineShared() != nullptr);
    std::fill(Out.begin(), Out.end(), 0.0);
    ASSERT_TRUE(drawSamples(Kernel.getEngine(),
                            Evidence.data(), Out.data(), NumSamples, 5));
    EXPECT_EQ(Out, Evidence) << Engine;
  }
}

//===----------------------------------------------------------------------===//
// Argmax tie-breaking (docs/queries.md): ties resolve to the lowest
// child index / lowest bucket in every engine, pinned by constructed
// exact ties.
//===----------------------------------------------------------------------===//

TEST(MpeTieBreakTest, SumTieResolvesToLowestChildEverywhere) {
  // Both children are unit Gaussians under equal weights; with the
  // feature latent, both max-product terms are bit-identical, so the
  // argmax is a constructed exact tie. Lowest-child-wins means the
  // completion must be the first child's mean, -1.
  spn::Model Model(1, "sum-tie");
  spn::Node *GA = Model.makeGaussian(0, -1.0, 1.0);
  spn::Node *GB = Model.makeGaussian(0, 1.0, 1.0);
  Model.setRoot(Model.makeSum({GA, GB}, {0.5, 0.5}));

  double Evidence = kNaN;
  std::vector<double> Assignment(1, 0.0);
  Model.evalMpe(std::span<const double>(&Evidence, 1),
                std::span<double>(Assignment));
  EXPECT_EQ(Assignment[0], -1.0) << "reference oracle";

  double LogProb = 0.0;
  for (const char *Engine : kEngines) {
    if (std::string Reason = unavailableReason(Engine); !Reason.empty())
      GTEST_SKIP() << Reason;
    CompiledKernel Kernel = compileFor(Model, spn::QueryKind::Mpe, Engine);
    ASSERT_TRUE(Kernel.getEngineShared() != nullptr);
    Assignment[0] = 0.0;
    ASSERT_TRUE(completeMpe(Kernel.getEngine(),
                            &Evidence, Assignment.data(), &LogProb, 1));
    EXPECT_EQ(Assignment[0], -1.0) << Engine;
  }
}

TEST(MpeTieBreakTest, DiscreteModeTieResolvesToLowestBucket) {
  // Equal-mass histogram buckets: the mode scan must keep the first
  // (lowest) bucket, completing the latent feature with its lower
  // bound 0.
  spn::Model Model(1, "bucket-tie");
  spn::Node *H = Model.makeHistogram(
      0, {spn::HistogramBucket{0, 1, 0.5}, spn::HistogramBucket{1, 2, 0.5}});
  Model.setRoot(Model.makeSum({H}, {1.0}));

  double Evidence = kNaN;
  std::vector<double> Assignment(1, -1.0);
  Model.evalMpe(std::span<const double>(&Evidence, 1),
                std::span<double>(Assignment));
  EXPECT_EQ(Assignment[0], 0.0) << "reference oracle";

  double LogProb = 0.0;
  for (const char *Engine : kEngines) {
    if (std::string Reason = unavailableReason(Engine); !Reason.empty())
      GTEST_SKIP() << Reason;
    CompiledKernel Kernel = compileFor(Model, spn::QueryKind::Mpe, Engine);
    ASSERT_TRUE(Kernel.getEngineShared() != nullptr);
    Assignment[0] = -1.0;
    ASSERT_TRUE(completeMpe(Kernel.getEngine(),
                            &Evidence, Assignment.data(), &LogProb, 1));
    EXPECT_EQ(Assignment[0], 0.0) << Engine;
  }
}

} // namespace
