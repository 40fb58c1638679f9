//===- merge_test.cpp - Structural merging and merged-kernel tests --------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for merged models (docs/merging.md): the structural
/// signature/hash and isomorphism analysis of merge/Merge.h, the
/// content-vs-structural hash split on KernelCache, the one lowering
/// (every likelihood kernel shared per structure, bound per-model weight
/// tables, the -O2 weight fold replayed at bind time), differential
/// checks of shared kernels against the per-model interpreter oracle,
/// and the `.spnk` round trip of parameter and fold sites.
///
//===----------------------------------------------------------------------===//

#include "backend/CppBackend.h"
#include "backend/CppEmitter.h"
#include "baselines/Baselines.h"
#include "frontend/Serializer.h"
#include "merge/Merge.h"
#include "runtime/KernelCache.h"
#include "support/Casting.h"
#include "support/Random.h"
#include "vm/ParamTable.h"
#include "vm/ProgramBinary.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace spnc;
using namespace spnc::runtime;

namespace {

constexpr double kTolerance = 1e-9;

/// A small RAT-SPN family: classes share the random structure and
/// differ only in weights and leaf parameters — the canonical merge
/// group (paper §V-B: "the random structure for both tasks is identical
/// and only the weights differ").
workloads::RatSpnOptions smallRatOptions() {
  workloads::RatSpnOptions Options;
  Options.NumFeatures = 16;
  Options.Depth = 2;
  Options.Replicas = 2;
  Options.SumsPerRegion = 3;
  Options.LeafDistributions = 4;
  Options.Seed = 17;
  return Options;
}

spn::Model ratClass(unsigned ClassIndex) {
  return workloads::generateRatSpn(smallRatOptions(), ClassIndex);
}

std::vector<double> ratData(size_t NumSamples, uint64_t Seed) {
  return workloads::generateImageData(smallRatOptions().NumFeatures,
                                      /*NumClasses=*/2, NumSamples, Seed,
                                      /*Labels=*/nullptr);
}

/// Perturbs the first sum node's weights in place — a weight-only edit
/// that must change the content hash but not the structural hash.
void perturbFirstSumWeights(spn::Model &Model) {
  for (size_t I = 0; I < Model.getNumNodes(); ++I) {
    if (auto *Sum = dyn_cast<spn::SumNode>(
            Model.getNode(static_cast<unsigned>(I)))) {
      std::vector<double> Weights = Sum->getWeights();
      ASSERT_GE(Weights.size(), 2u);
      std::swap(Weights.front(), Weights.back());
      Sum->setWeights(std::move(Weights));
      return;
    }
  }
  FAIL() << "model has no sum node to perturb";
}

//===----------------------------------------------------------------------===//
// Structural signature / hash / isomorphism
//===----------------------------------------------------------------------===//

TEST(MergeTest, WeightEditChangesContentHashNotStructuralHash) {
  spn::Model Original = ratClass(0);
  spn::Model Edited = ratClass(0);
  perturbFirstSumWeights(Edited);

  EXPECT_NE(KernelCache::contentHash(Original),
            KernelCache::contentHash(Edited));
  EXPECT_EQ(KernelCache::structuralHash(Original),
            KernelCache::structuralHash(Edited));
  EXPECT_TRUE(merge::isStructurallyIsomorphic(Original, Edited));
}

TEST(MergeTest, IsomorphicClassesShareSignature) {
  spn::Model A = ratClass(0);
  spn::Model B = ratClass(1);
  EXPECT_NE(KernelCache::contentHash(A), KernelCache::contentHash(B));
  EXPECT_EQ(merge::structuralSignature(A), merge::structuralSignature(B));
  EXPECT_EQ(merge::structuralHash(A), merge::structuralHash(B));
  EXPECT_TRUE(merge::isStructurallyIsomorphic(A, B));
}

TEST(MergeTest, DifferentStructuresAreNotIsomorphic) {
  spn::Model A = ratClass(0);
  workloads::RatSpnOptions Other = smallRatOptions();
  Other.SumsPerRegion = 2; // different arity everywhere
  spn::Model C = workloads::generateRatSpn(Other, 0);
  EXPECT_NE(merge::structuralHash(A), merge::structuralHash(C));
  EXPECT_FALSE(merge::isStructurallyIsomorphic(A, C));

  // Speaker models differ from RAT-SPNs outright.
  workloads::SpeakerModelOptions Speaker;
  Speaker.TargetOperations = 200;
  Speaker.Seed = 5;
  spn::Model D = workloads::generateSpeakerModel(Speaker);
  EXPECT_FALSE(merge::isStructurallyIsomorphic(A, D));
}

TEST(MergeTest, ExtractParamsMatchesCountsAndDiffersByClass) {
  spn::Model A = ratClass(0);
  spn::Model B = ratClass(1);
  merge::ModelCounts Counts = merge::countModel(A);
  EXPECT_GT(Counts.NumNodes, 0u);
  EXPECT_GT(Counts.NumEdges, 0u);
  EXPECT_EQ(Counts.NumNodes,
            Counts.NumSums + Counts.NumProducts + Counts.NumLeaves);

  std::vector<double> ParamsA = *merge::extractParams(A);
  std::vector<double> ParamsB = *merge::extractParams(B);
  EXPECT_EQ(ParamsA.size(), Counts.NumParams);
  // Isomorphic models have same-shaped parameter vectors with
  // different values.
  ASSERT_EQ(ParamsA.size(), ParamsB.size());
  EXPECT_NE(ParamsA, ParamsB);
}

TEST(MergeTest, DiscoverMergeGroupsPartitionsBySignature) {
  spn::Model A0 = ratClass(0);
  spn::Model A1 = ratClass(1);
  workloads::RatSpnOptions Other = smallRatOptions();
  Other.SumsPerRegion = 2;
  spn::Model B0 = workloads::generateRatSpn(Other, 0);
  spn::Model A2 = ratClass(2);

  std::vector<const spn::Model *> Models = {&A0, &B0, &A1, &A2};
  std::vector<merge::MergeGroup> Groups =
      merge::discoverMergeGroups(Models);
  ASSERT_EQ(Groups.size(), 2u);
  // Groups in first-appearance order, members in input order.
  EXPECT_EQ(Groups[0].Hash, merge::structuralHash(A0));
  EXPECT_EQ(Groups[0].Members, (std::vector<size_t>{0, 2, 3}));
  EXPECT_EQ(Groups[1].Hash, merge::structuralHash(B0));
  EXPECT_EQ(Groups[1].Members, (std::vector<size_t>{1}));
}

//===----------------------------------------------------------------------===//
// Merged compilation through the kernel cache
//===----------------------------------------------------------------------===//

spn::QueryConfig f64Query(bool Marginal = false) {
  spn::QueryConfig Query;
  Query.LogSpace = true;
  Query.SupportMarginal = Marginal;
  Query.DataType = spn::ComputeType::F64;
  if (Marginal)
    Query.Kind = spn::QueryKind::Marginal;
  return Query;
}

TEST(MergeTest, IsomorphicModelsShareOneCacheEntry) {
  KernelCache Cache;
  spn::Model A = ratClass(0);
  spn::Model B = ratClass(1);
  CompilerOptions Options;

  Expected<KernelCache::MergedKernel> MergedA =
      Cache.getOrCompileMerged(A, f64Query(), Options);
  ASSERT_TRUE(static_cast<bool>(MergedA))
      << MergedA.getError().message();
  Expected<KernelCache::MergedKernel> MergedB =
      Cache.getOrCompileMerged(B, f64Query(), Options);
  ASSERT_TRUE(static_cast<bool>(MergedB))
      << MergedB.getError().message();

  // One compile, one cache entry, one engine; two weight tables.
  KernelCache::Stats Stats = Cache.getStats();
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(MergedA->Kernel.getEngineShared().get(),
            MergedB->Kernel.getEngineShared().get());
  EXPECT_EQ(MergedA->TableIndex, 0);
  EXPECT_EQ(MergedB->TableIndex, 1);

  // Re-registering a model is idempotent: same table index back.
  Expected<KernelCache::MergedKernel> Again =
      Cache.getOrCompileMerged(A, f64Query(), Options);
  ASSERT_TRUE(static_cast<bool>(Again));
  EXPECT_EQ(Again->TableIndex, 0);
}

TEST(MergeTest, MergedPathRejectsUnsupportedQueries) {
  KernelCache Cache;
  spn::Model A = ratClass(0);
  spn::Model B = ratClass(1);
  CompilerOptions Options;
  // MPE kernels bake their parameters: no weight table to hand out.
  spn::QueryConfig Mpe;
  Mpe.Kind = spn::QueryKind::Mpe;
  EXPECT_FALSE(
      static_cast<bool>(Cache.getOrCompileMerged(A, Mpe, Options)));

  // The simulated GPU binds weight tables like the CPU engines: two
  // classes share one kernel and each scores under its own table.
  CompilerOptions Gpu;
  Gpu.TheTarget = Target::GPU;
  Expected<KernelCache::MergedKernel> GpuA =
      Cache.getOrCompileMerged(A, f64Query(), Gpu);
  Expected<KernelCache::MergedKernel> GpuB =
      Cache.getOrCompileMerged(B, f64Query(), Gpu);
  ASSERT_TRUE(GpuA && GpuB);
  EXPECT_EQ(GpuA->Kernel.getEngineShared(), GpuB->Kernel.getEngineShared());
  EXPECT_NE(GpuA->TableIndex, GpuB->TableIndex);
  constexpr size_t kRows = 8;
  std::vector<double> Data = ratData(kRows, 0x9b0ULL);
  for (const auto &[Merged, Model] :
       {std::pair{&*GpuA, &A}, std::pair{&*GpuB, &B}}) {
    std::vector<double> Got(kRows), Want(kRows);
    Merged->Kernel.execute(Data.data(), Got.data(), kRows);
    baselines::InterpreterEngine(*Model).execute(Data.data(), Want.data(),
                                                 kRows);
    for (size_t I = 0; I < kRows; ++I)
      EXPECT_NEAR(Got[I], Want[I], kTolerance) << "row " << I;
  }
}

//===----------------------------------------------------------------------===//
// Differential: merged kernel vs per-model interpreter oracle
//===----------------------------------------------------------------------===//

/// Runs every class of the merge group (RAT-SPNs of shape \p Rat)
/// through the ONE merged kernel (per-model weight table) and checks
/// each against its own interpreter oracle at the f64 tolerance.
void expectMergedMatchesOracles(
    KernelCache &Cache, const CompilerOptions &Options, bool Marginal,
    const char *Leg,
    const workloads::RatSpnOptions &Rat = smallRatOptions()) {
  constexpr unsigned kClasses = 3;
  constexpr size_t kNumSamples = 16;
  std::vector<double> Data = workloads::generateImageData(
      Rat.NumFeatures, /*NumClasses=*/2, kNumSamples, 0xda7aULL,
      /*Labels=*/nullptr);
  if (Marginal)
    for (size_t I = 0; I < Data.size(); I += 3)
      Data[I] = std::numeric_limits<double>::quiet_NaN();

  for (unsigned Class = 0; Class < kClasses; ++Class) {
    spn::Model Model = workloads::generateRatSpn(Rat, Class);
    Expected<KernelCache::MergedKernel> Merged =
        Cache.getOrCompileMerged(Model, f64Query(Marginal), Options);
    ASSERT_TRUE(static_cast<bool>(Merged))
        << Leg << ": " << Merged.getError().message();
    ASSERT_GE(Merged->TableIndex, 0);

    std::vector<uint32_t> Tables(
        kNumSamples, static_cast<uint32_t>(Merged->TableIndex));
    std::vector<double> Got(kNumSamples, 0.0);
    ASSERT_TRUE(Merged->Kernel.executeIndexed(
        Data.data(), Tables.data(), Got.data(), kNumSamples))
        << Leg << " class " << Class << ": engine refused the batch";

    baselines::InterpreterEngine Oracle(Model);
    std::vector<double> Want(kNumSamples, 0.0);
    Oracle.execute(Data.data(), Want.data(), kNumSamples);
    for (size_t I = 0; I < kNumSamples; ++I) {
      ASSERT_TRUE(std::isfinite(Want[I]))
          << Leg << " class " << Class << " sample " << I;
      EXPECT_NEAR(Got[I], Want[I], kTolerance)
          << Leg << " class " << Class << " sample " << I;
    }
  }
  // The whole group compiled exactly once.
  EXPECT_EQ(Cache.getStats().Misses, 1u) << Leg;
}

TEST(MergeTest, MergedVmKernelMatchesOracleJoint) {
  KernelCache Cache;
  CompilerOptions Options;
  expectMergedMatchesOracles(Cache, Options, /*Marginal=*/false,
                             "vm/joint");
}

TEST(MergeTest, MergedVmKernelMatchesOracleMarginal) {
  KernelCache Cache;
  CompilerOptions Options;
  expectMergedMatchesOracles(Cache, Options, /*Marginal=*/true,
                             "vm/marginal");
}

TEST(MergeTest, MergedCppKernelMatchesOracleJointAndMarginal) {
  backend::CppBackendOptions CppOptions;
  // One host compile per leg.
  CppOptions.ExtraFlags = {"-O0", "-march=native"};
  auto Cpp = std::make_shared<backend::CppBackend>(CppOptions);
  std::string SkipReason;
  if (!Cpp->isAvailable(&SkipReason))
    GTEST_SKIP() << SkipReason;
  CompilerOptions Options;
  {
    KernelCache::Config Config;
    Config.TheBackend = Cpp;
    KernelCache Cache(Config);
    expectMergedMatchesOracles(Cache, Options, /*Marginal=*/false,
                               "cpp/joint");
  }
  {
    KernelCache::Config Config;
    Config.TheBackend = Cpp;
    KernelCache Cache(Config);
    expectMergedMatchesOracles(Cache, Options, /*Marginal=*/true,
                               "cpp/marginal");
  }
  // A shared program that spans several segments and units: the
  // ratspn_tiny shape, whole and partitioned into tasks linked by
  // intermediate buffers, through the params entry point.
  workloads::RatSpnOptions Rat = smallRatOptions();
  Rat.NumFeatures = 64;
  Rat.Depth = 3;
  Rat.SumsPerRegion = 4;
  Rat.LeafDistributions = 8;
  for (uint32_t Budget : {0u, 1000u}) {
    KernelCache::Config Config;
    Config.TheBackend = Cpp;
    KernelCache Cache(Config);
    CompilerOptions Split;
    Split.MaxPartitionSize = Budget;
    expectMergedMatchesOracles(Cache, Split, /*Marginal=*/Budget != 0,
                               Budget ? "cpp/split/partitioned/marginal"
                                      : "cpp/split/joint",
                               Rat);
    Expected<KernelCache::MergedKernel> Merged = Cache.getOrCompileMerged(
        workloads::generateRatSpn(Rat, 0), f64Query(Budget != 0), Split);
    ASSERT_TRUE(static_cast<bool>(Merged));
    const vm::KernelProgram *Program =
        Merged->Kernel.getEngine().getProgram();
    ASSERT_NE(Program, nullptr);
    size_t Instructions = 0;
    for (const vm::TaskProgram &Task : Program->Tasks)
      Instructions += Task.Code.size();
    EXPECT_GT(Instructions, 3 * backend::kCppSegmentInstructions);
    EXPECT_EQ(Program->Tasks.size() > 1, Budget != 0);
  }
}

/// One batch of the rows of \p Data mixing the weight tables of two
/// same-structure, different-weight models: at the engine's vector width
/// W, rows [0, W) are all \p A's (a single-table block) and every later
/// row I with I % 3 == 2 is \p B's, so each later block, the padded last
/// one included, carries both tables. Every row must equal the same batch run
/// under its own model's table (RunRequest::Table) bit for bit, and
/// match that model's oracle (in log space, so a linear-space row is
/// compared by its log): at 1e-9 for f64 kernels, at perfbench's
/// 1e-3 + 1e-5 |ref| for f32 ones.
void expectMixedBatchMatchesOracles(KernelCache &Cache,
                                    const CompilerOptions &Options,
                                    const std::string &Leg,
                                    const spn::Model &A, const spn::Model &B,
                                    const spn::QueryConfig &Query,
                                    const std::vector<double> &Data) {
  size_t NumRows = Data.size() / A.getNumFeatures();
  size_t W = std::max(1u, Options.Execution.VectorWidth);
  Expected<CompiledKernel> KernelA = Cache.getOrCompile(A, Query, Options);
  ASSERT_TRUE(static_cast<bool>(KernelA))
      << Leg << ": " << KernelA.getError().message();
  Expected<CompiledKernel> KernelB = Cache.getOrCompile(B, Query, Options);
  ASSERT_TRUE(static_cast<bool>(KernelB))
      << Leg << ": " << KernelB.getError().message();
  const ExecutionEngine &Engine = KernelA->getEngine();
  ASSERT_EQ(&Engine, &KernelB->getEngine()) << Leg;
  auto TableA = static_cast<uint32_t>(KernelA->getTableIndex());
  auto TableB = static_cast<uint32_t>(KernelB->getTableIndex());
  ASSERT_NE(TableA, TableB) << Leg;

  std::vector<uint32_t> Tables(NumRows);
  for (size_t I = 0; I < NumRows; ++I)
    Tables[I] = I >= W && I % 3 == 2 ? TableB : TableA;
  vm::QueryKind Kind = Query.Kind == spn::QueryKind::Marginal
                           ? vm::QueryKind::Marginal
                           : vm::QueryKind::Joint;
  auto Run = [&](const uint32_t *Indices, int32_t Table) {
    std::vector<double> Out(NumRows, 0.0);
    EXPECT_TRUE(Engine.run({.Kind = Kind,
                            .Input = Data.data(),
                            .Output = Out.data(),
                            .NumSamples = NumRows,
                            .TableIndices = Indices,
                            .Table = Table}))
        << Leg << ": engine refused the batch";
    return Out;
  };
  std::vector<double> Got = Run(Tables.data(), -1);
  std::vector<double> UnderA = Run(nullptr, static_cast<int32_t>(TableA));
  std::vector<double> UnderB = Run(nullptr, static_cast<int32_t>(TableB));

  std::vector<double> WantA(NumRows, 0.0), WantB(NumRows, 0.0);
  baselines::InterpreterEngine(A).execute(Data.data(), WantA.data(),
                                          NumRows);
  baselines::InterpreterEngine(B).execute(Data.data(), WantB.data(),
                                          NumRows);
  bool F32 = Engine.getProgram()->UseF32;
  for (size_t I = 0; I < NumRows; ++I) {
    bool RowB = Tables[I] == TableB;
    double Alone = RowB ? UnderB[I] : UnderA[I];
    EXPECT_EQ(0, std::memcmp(&Got[I], &Alone, sizeof(double)))
        << Leg << " row " << I << ": " << Got[I] << " mixed, " << Alone
        << " under its own table";
    double Want = RowB ? WantB[I] : WantA[I];
    ASSERT_TRUE(std::isfinite(Want)) << Leg << " row " << I;
    double Value = Query.LogSpace ? Got[I] : std::log(Got[I]);
    EXPECT_NEAR(Value, Want, F32 ? 1e-3 + 1e-5 * std::fabs(Want) : kTolerance)
        << Leg << " row " << I;
  }
}

/// expectMixedBatchMatchesOracles over 24 rows of two RAT-SPN classes.
void expectMixedRatBatchMatchesOracles(KernelCache &Cache,
                                       const CompilerOptions &Options,
                                       const std::string &Leg) {
  expectMixedBatchMatchesOracles(Cache, Options, Leg, ratClass(0),
                                 ratClass(1), f64Query(),
                                 ratData(24, 0xba7c4ULL));
}

TEST(MergeTest, MixedTwoModelBatchScoresPerRowVm) {
  KernelCache Cache;
  CompilerOptions Options;
  expectMixedRatBatchMatchesOracles(Cache, Options, "vm/mixed");
}

TEST(MergeTest, MixedTwoModelBatchScoresPerRowCpp) {
  backend::CppBackendOptions CppOptions;
  CppOptions.ExtraFlags = {"-O0", "-march=native"};
  auto Cpp = std::make_shared<backend::CppBackend>(CppOptions);
  std::string SkipReason;
  if (!Cpp->isAvailable(&SkipReason))
    GTEST_SKIP() << SkipReason;
  KernelCache::Config Config;
  Config.TheBackend = Cpp;
  KernelCache Cache(Config);
  CompilerOptions Options;
  expectMixedRatBatchMatchesOracles(Cache, Options, "cpp/mixed");
}

/// Mixed blocks on the vector engine: every width, space, compute type,
/// query, partitioning (tasks linked by intermediate buffers) and thread
/// count, with chunks that are not a multiple of the width, over 3W + 5
/// rows.
TEST(MergeTest, MixedBlocksMatchPerTableRunsAtEveryWidth) {
  spn::Model A = ratClass(0);
  spn::Model B = ratClass(1);
  // -O2 brings in the weighted n-ary log-sum-exps, which read every
  // lane's weights, and the leaf weight folds.
  for (unsigned W : {4u, 8u, 16u})
    for (bool LogSpace : {true, false})
      for (bool F32 : {false, true})
        for (bool Marginal : {false, true})
          for (uint32_t Budget : {0u, 30u})
            for (unsigned Threads : {1u, 2u})
              for (unsigned OptLevel : {1u, 2u}) {
                std::string Leg = "w";
                Leg += std::to_string(W);
                Leg += LogSpace ? "/log" : "/linear";
                Leg += F32 ? "/f32" : "/f64";
                Leg += Marginal ? "/marginal" : "/joint";
                Leg += Budget ? "/partitioned" : "/whole";
                Leg += "/threads";
                Leg += std::to_string(Threads);
                Leg += "/O";
                Leg += std::to_string(OptLevel);
                CompilerOptions Options;
                Options.OptLevel = OptLevel;
                Options.MaxPartitionSize = Budget;
                Options.Execution.VectorWidth = W;
                Options.Execution.NumThreads = Threads;
                Options.Execution.ChunkSize = W + 3;
                spn::QueryConfig Query = f64Query(Marginal);
                Query.LogSpace = LogSpace;
                if (F32)
                  Query.DataType = spn::ComputeType::F32;
                std::vector<double> Data = ratData(3 * W + 5, 0x3b1dULL + W);
                if (Marginal)
                  for (size_t I = 0; I < Data.size(); I += 3)
                    Data[I] = std::numeric_limits<double>::quiet_NaN();
                KernelCache Cache;
                expectMixedBatchMatchesOracles(Cache, Options, Leg, A, B,
                                               Query, Data);
                Expected<CompiledKernel> Kernel =
                    Cache.getOrCompile(A, Query, Options);
                ASSERT_TRUE(static_cast<bool>(Kernel)) << Leg;
                EXPECT_EQ(Kernel->getProgram().Tasks.size() > 1, Budget != 0)
                    << Leg;
              }
}

/// Two models of one structure whose histogram leaves have fractional
/// bucket bounds, so the CPU lowering emits select cascades (Const,
/// SelectInRange, NanBlend) instead of dense tables; \p Variant shifts
/// the bucket masses and sum weights.
spn::Model fractionalHistogramModel(unsigned Variant) {
  spn::Model M(2, "fractional");
  double S = 0.1 * Variant;
  auto Hist = [&](unsigned Feature, double P0, double P1) {
    return M.makeHistogram(Feature,
                           {spn::HistogramBucket{0.0, 0.5, P0},
                            spn::HistogramBucket{0.5, 1.25, P1},
                            spn::HistogramBucket{1.25, 2.0, 1.0 - P0 - P1}});
  };
  spn::Node *P0 =
      M.makeProduct({Hist(0, 0.2 + S, 0.5), Hist(1, 0.3, 0.3 + S)});
  spn::Node *P1 =
      M.makeProduct({Hist(0, 0.6 - S, 0.1), Hist(1, 0.1 + S, 0.2)});
  M.setRoot(M.makeSum({P0, P1}, {0.3 + S, 0.7 - S}));
  return M;
}

/// Mixed blocks over select cascades: each lane must select its own
/// table's bucket masses, in both spaces, with a third of the evidence
/// marginalized.
TEST(MergeTest, MixedSelectCascadeBlocksReadEachLanesBucketValues) {
  spn::Model A = fractionalHistogramModel(0);
  spn::Model B = fractionalHistogramModel(1);
  CompilerOptions Options;
  Options.Execution.VectorWidth = 8;
  constexpr size_t kRows = 3 * 8 + 5;
  Rng R(0xf4acULL);
  std::vector<double> Data(kRows * 2);
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] = I % 3 == 0 ? std::numeric_limits<double>::quiet_NaN()
                         : 2.0 * R.uniform();
  for (bool LogSpace : {true, false})
    for (bool F32 : {false, true}) {
      std::string Leg = std::string("selects") +
                        (LogSpace ? "/log" : "/linear") +
                        (F32 ? "/f32" : "/f64");
      spn::QueryConfig Query = f64Query(/*Marginal=*/true);
      Query.LogSpace = LogSpace;
      if (F32)
        Query.DataType = spn::ComputeType::F32;
      KernelCache Cache;
      expectMixedBatchMatchesOracles(Cache, Options, Leg, A, B, Query, Data);
      Expected<CompiledKernel> Kernel = Cache.getOrCompile(A, Query, Options);
      ASSERT_TRUE(static_cast<bool>(Kernel)) << Leg;
      const vm::TaskProgram &Task = Kernel->getProgram().Tasks[0];
      EXPECT_TRUE(Task.Tables.empty()) << Leg;
      EXPECT_EQ(Task.Selects.size(), 12u) << Leg;
    }
}

/// A member bound into the group's shared kernel must agree with its
/// own compilation bit for bit: same instruction stream, the member's
/// weights routed through its table, the -O2 weight folds replayed.
TEST(MergeTest, MergedMatchesUnmergedCompilation) {
  constexpr size_t kNumSamples = 16;
  std::vector<double> Data = ratData(kNumSamples, 0x5a5aULL);
  KernelCache Cache;
  CompilerOptions Options;
  Options.OptLevel = 2;
  for (unsigned Class = 0; Class < 2; ++Class) {
    spn::Model Model = ratClass(Class);
    Expected<KernelCache::MergedKernel> Merged =
        Cache.getOrCompileMerged(Model, f64Query(), Options);
    ASSERT_TRUE(static_cast<bool>(Merged));
    Expected<CompiledKernel> Own =
        compileModel(Model, f64Query(), Options);
    ASSERT_TRUE(static_cast<bool>(Own));

    std::vector<uint32_t> Tables(
        kNumSamples, static_cast<uint32_t>(Merged->TableIndex));
    std::vector<double> Got(kNumSamples, 0.0), Want(kNumSamples, 0.0);
    ASSERT_TRUE(Merged->Kernel.executeIndexed(Data.data(), Tables.data(),
                                              Got.data(), kNumSamples));
    Own->execute(Data.data(), Want.data(), kNumSamples);
    EXPECT_EQ(0, std::memcmp(Got.data(), Want.data(),
                             kNumSamples * sizeof(double)))
        << "class " << Class;
  }
  EXPECT_EQ(Cache.getStats().Misses, 1u);
}

//===----------------------------------------------------------------------===//
// `.spnk` round trip of parameter and fold sites
//===----------------------------------------------------------------------===//

TEST(MergeTest, ParamSitesRoundTripThroughSpnk) {
  KernelCache Cache;
  CompilerOptions Options;
  Options.OptLevel = 2; // the weight fold adds fold sites
  // Speaker sums weigh leaves directly, so the fold fires on them.
  workloads::SpeakerModelOptions Speaker;
  Speaker.TargetOperations = 300;
  spn::Model Model = workloads::generateSpeakerModel(Speaker);
  Expected<KernelCache::MergedKernel> Merged =
      Cache.getOrCompileMerged(Model, f64Query(), Options);
  ASSERT_TRUE(static_cast<bool>(Merged));
  const vm::KernelProgram *Program =
      Merged->Kernel.getEngineShared()->getProgram();
  ASSERT_NE(Program, nullptr);
  ASSERT_GT(Program->NumParams, 0u);
  size_t Folds = 0;
  for (const vm::TaskProgram &Task : Program->Tasks)
    for (const vm::ParamSite &Site : Task.ParamSites)
      Folds += Site.Kind == vm::ParamSlotKind::GaussianFold ||
               Site.Kind == vm::ParamSlotKind::TableFold;
  EXPECT_GT(Folds, 0u);

  std::vector<uint8_t> Blob = vm::encodeProgram(*Program);
  Expected<vm::KernelProgram> Decoded = vm::decodeProgram(Blob);
  ASSERT_TRUE(static_cast<bool>(Decoded))
      << Decoded.getError().message();
  EXPECT_EQ(Decoded->NumParams, Program->NumParams);
  ASSERT_EQ(Decoded->Tasks.size(), Program->Tasks.size());
  for (size_t T = 0; T < Program->Tasks.size(); ++T) {
    const vm::TaskProgram &Want = Program->Tasks[T];
    const vm::TaskProgram &Got = Decoded->Tasks[T];
    ASSERT_EQ(Got.ParamSites.size(), Want.ParamSites.size())
        << "task " << T;
    for (size_t S = 0; S < Want.ParamSites.size(); ++S) {
      EXPECT_EQ(Got.ParamSites[S].Kind, Want.ParamSites[S].Kind);
      EXPECT_EQ(Got.ParamSites[S].Transform,
                Want.ParamSites[S].Transform);
      EXPECT_EQ(Got.ParamSites[S].Index, Want.ParamSites[S].Index);
      EXPECT_EQ(Got.ParamSites[S].Slot, Want.ParamSites[S].Slot);
      EXPECT_EQ(Got.ParamSites[S].Count, Want.ParamSites[S].Count);
      EXPECT_EQ(Got.ParamSites[S].Param, Want.ParamSites[S].Param);
    }
  }

  // The decoded program still self-binds: re-applying the generating
  // model's parameters reproduces its tables bit-for-bit.
  std::vector<double> Params = *merge::extractParams(Model);
  ASSERT_EQ(Params.size(), Program->NumParams);
  std::string Why;
  EXPECT_TRUE(vm::verifySelfBinding(*Decoded, Params, &Why)) << Why;
}

//===----------------------------------------------------------------------===//
// One lowering: every likelihood kernel takes weight tables
//===----------------------------------------------------------------------===//

/// A copy of \p Model with every sum weight, Gaussian parameter and
/// discrete-leaf mass edited (the structure is unchanged).
spn::Model editedSibling(const spn::Model &Model, uint64_t Seed) {
  Expected<spn::Model> Copy =
      spn::deserializeModel(spn::serializeModel(Model));
  EXPECT_TRUE(static_cast<bool>(Copy));
  Rng R(Seed);
  // Scales each mass by a random factor in [0.5, 1.5), renormalized.
  auto Reweigh = [&](std::vector<double> Masses) {
    double Total = 0.0;
    for (double &M : Masses)
      Total += (M = M * (0.5 + R.uniform()));
    for (double &M : Masses)
      M /= Total;
    return Masses;
  };
  for (size_t I = 0; I < Copy->getNumNodes(); ++I) {
    spn::Node *N = Copy->getNode(static_cast<unsigned>(I));
    if (auto *Sum = dyn_cast<spn::SumNode>(N)) {
      Sum->setWeights(Reweigh(Sum->getWeights()));
    } else if (auto *Cat = dyn_cast<spn::CategoricalLeaf>(N)) {
      Cat->setProbabilities(Reweigh(Cat->getProbabilities()));
    } else if (auto *Hist = dyn_cast<spn::HistogramLeaf>(N)) {
      std::vector<double> Masses;
      for (const spn::HistogramBucket &Bucket : Hist->getBuckets())
        Masses.push_back(Bucket.P);
      Hist->setBucketProbabilities(Reweigh(std::move(Masses)));
    } else if (auto *Gauss = dyn_cast<spn::GaussianLeaf>(N)) {
      Gauss->setParameters(Gauss->getMean() + R.uniform() - 0.5,
                           Gauss->getStdDev() * (0.8 + 0.4 * R.uniform()));
    }
  }
  return Copy.takeValue();
}

/// perfbench's oracle tolerance: |got - ref| <= 1e-3 + 1e-5 * |ref|.
void expectNearOracle(const std::vector<double> &Got,
                      const std::vector<double> &Want, bool LogSpace,
                      const std::string &Leg) {
  for (size_t I = 0; I < Want.size(); ++I) {
    double Value = LogSpace ? Got[I] : std::log(Got[I]);
    EXPECT_NEAR(Value, Want[I], 1e-3 + 1e-5 * std::fabs(Want[I]))
        << Leg << " sample " << I;
  }
}

/// The three speaker-offline models (seeds 1-3): a sibling with edited
/// weights and Gaussians, bound into the original's kernel, must equal
/// the sibling's own compilation bit for bit on the VM and match its
/// oracle; on the cpp backend its marginal queries must match the
/// oracle (which fails if a folded MarginalValue stays the original's).
TEST(MergeTest, SpeakerSiblingsBindIntoTheOriginalsKernel) {
  constexpr size_t kSamples = 64;
  CompilerOptions Options;
  Options.OptLevel = 2;
  Options.Execution.VectorWidth = 8;
  backend::CppBackendOptions CppOptions;
  CppOptions.ExtraFlags = {"-O0", "-march=native"};
  auto Cpp = std::make_shared<backend::CppBackend>(CppOptions);
  bool HaveCpp = Cpp->isAvailable();
  for (uint64_t Seed : {1, 2, 3}) {
    workloads::SpeakerModelOptions ModelOptions;
    ModelOptions.Seed = Seed;
    spn::Model Original = workloads::generateSpeakerModel(ModelOptions);
    spn::Model Sibling = editedSibling(Original, Seed * 7919);
    ASSERT_NE(KernelCache::contentHash(Original),
              KernelCache::contentHash(Sibling));
    std::vector<double> Clean =
        workloads::generateSpeechData(ModelOptions, kSamples, Seed + 10);
    std::vector<double> Noisy = workloads::generateNoisySpeechData(
        ModelOptions, kSamples, Seed + 20);
    std::vector<double> WantClean(kSamples), WantNoisy(kSamples);
    baselines::InterpreterEngine Oracle(Sibling);
    Oracle.execute(Clean.data(), WantClean.data(), kSamples);
    Oracle.execute(Noisy.data(), WantNoisy.data(), kSamples);

    for (bool LogSpace : {true, false}) {
      for (bool Marginal : {false, true}) {
        std::string Leg = "speaker " + std::to_string(Seed) +
                          (LogSpace ? " log f32" : " linear f64") +
                          (Marginal ? " marginal" : " joint");
        spn::QueryConfig Query;
        Query.LogSpace = LogSpace;
        Query.DataType =
            LogSpace ? spn::ComputeType::F32 : spn::ComputeType::F64;
        Query.Kind =
            Marginal ? spn::QueryKind::Marginal : spn::QueryKind::Joint;
        Query.SupportMarginal = Marginal;
        const std::vector<double> &Data = Marginal ? Noisy : Clean;

        KernelCache Cache;
        ASSERT_TRUE(static_cast<bool>(
            Cache.getOrCompile(Original, Query, Options)));
        Expected<CompiledKernel> Bound =
            Cache.getOrCompile(Sibling, Query, Options);
        ASSERT_TRUE(static_cast<bool>(Bound)) << Leg;
        EXPECT_EQ(Cache.getStats().Misses, 1u) << Leg;
        Expected<CompiledKernel> Own =
            compileModel(Sibling, Query, Options);
        ASSERT_TRUE(static_cast<bool>(Own)) << Leg;

        std::vector<double> Got(kSamples), Want(kSamples);
        Bound->execute(Data.data(), Got.data(), kSamples);
        Own->execute(Data.data(), Want.data(), kSamples);
        EXPECT_EQ(0, std::memcmp(Got.data(), Want.data(),
                                 kSamples * sizeof(double)))
            << Leg;
        expectNearOracle(Got, Marginal ? WantNoisy : WantClean, LogSpace,
                         Leg);
      }
    }

    if (!HaveCpp)
      continue;
    spn::QueryConfig Query;
    Query.Kind = spn::QueryKind::Marginal;
    Query.SupportMarginal = true;
    KernelCache::Config Config;
    Config.TheBackend = Cpp;
    KernelCache Cache(Config);
    ASSERT_TRUE(static_cast<bool>(
        Cache.getOrCompile(Original, Query, Options)));
    Expected<CompiledKernel> Bound =
        Cache.getOrCompile(Sibling, Query, Options);
    ASSERT_TRUE(static_cast<bool>(Bound));
    std::vector<double> Got(kSamples);
    Bound->execute(Noisy.data(), Got.data(), kSamples);
    std::string Leg = "speaker " + std::to_string(Seed) + " cpp marginal";
    expectNearOracle(Got, WantNoisy, true, Leg);
    // A marginalized mixture sums its weights, so a stale marginal
    // value shifts the result by rounding only: compare bits with the
    // sibling's own native build.
    KernelCache OwnCache(Config);
    Expected<CompiledKernel> Own =
        OwnCache.getOrCompile(Sibling, Query, Options);
    ASSERT_TRUE(static_cast<bool>(Own));
    std::vector<double> Want(kSamples);
    Own->execute(Noisy.data(), Want.data(), kSamples);
    EXPECT_EQ(0, std::memcmp(Got.data(), Want.data(),
                             kSamples * sizeof(double)))
        << Leg;
  }
}

/// Mixed blocks over speaker siblings: lookup-table leaves (marginal
/// values, folded weights) and Gaussian leaves read per lane, in both
/// spaces.
TEST(MergeTest, MixedSpeakerBlocksReadEachLanesLeafTables) {
  workloads::SpeakerModelOptions ModelOptions;
  ModelOptions.TargetOperations = 300;
  ModelOptions.Seed = 4;
  spn::Model Original = workloads::generateSpeakerModel(ModelOptions);
  spn::Model Sibling = editedSibling(Original, 0x51b1ULL);
  CompilerOptions Options;
  Options.OptLevel = 2;
  Options.Execution.VectorWidth = 8;
  constexpr size_t kRows = 3 * 8 + 5;
  for (bool LogSpace : {true, false})
    for (bool F32 : {false, true})
      for (bool Marginal : {false, true}) {
        std::string Leg = std::string("speaker") +
                          (LogSpace ? "/log" : "/linear") +
                          (F32 ? "/f32" : "/f64") +
                          (Marginal ? "/marginal" : "/joint");
        spn::QueryConfig Query = f64Query(Marginal);
        Query.LogSpace = LogSpace;
        if (F32)
          Query.DataType = spn::ComputeType::F32;
        std::vector<double> Data =
            Marginal
                ? workloads::generateNoisySpeechData(ModelOptions, kRows, 7)
                : workloads::generateSpeechData(ModelOptions, kRows, 7);
        KernelCache Cache;
        expectMixedBatchMatchesOracles(Cache, Options, Leg, Original,
                                       Sibling, Query, Data);
      }
}

/// addParamTable is safe during run(): four threads score W=8 batches
/// that mix every table registered so far while a fifth registers the
/// remaining classes. Every row must match its class's oracle.
TEST(MergeTest, ConcurrentMixedRunsWhileTablesRegister) {
  constexpr unsigned kClasses = 8;
  constexpr unsigned kRunners = 4;
  constexpr unsigned kRounds = 40;
  constexpr size_t kRows = 3 * 8 + 5;
  std::vector<spn::Model> Models;
  for (unsigned Class = 0; Class < kClasses; ++Class)
    Models.push_back(ratClass(Class));
  std::vector<double> Data = ratData(kRows, 0xc0c0ULL);
  std::vector<std::vector<double>> Want(kClasses,
                                        std::vector<double>(kRows));
  for (unsigned Class = 0; Class < kClasses; ++Class)
    baselines::InterpreterEngine(Models[Class])
        .execute(Data.data(), Want[Class].data(), kRows);

  CompilerOptions Options;
  Options.Execution.VectorWidth = 8;
  KernelCache Cache;
  // Two classes up front; the registrar publishes each later table
  // index before raising Registered.
  std::vector<uint32_t> TableOf(kClasses);
  for (unsigned Class = 0; Class < 2; ++Class) {
    Expected<CompiledKernel> Kernel =
        Cache.getOrCompile(Models[Class], f64Query(), Options);
    ASSERT_TRUE(static_cast<bool>(Kernel));
    TableOf[Class] = static_cast<uint32_t>(Kernel->getTableIndex());
  }
  std::shared_ptr<ExecutionEngine> Engine =
      Cache.getOrCompile(Models[0], f64Query(), Options)->getEngineShared();
  std::atomic<unsigned> Registered{2};
  std::atomic<unsigned> Runs{0}, Refused{0}, Mismatches{0};

  std::vector<std::thread> Threads;
  for (unsigned Runner = 0; Runner < kRunners; ++Runner)
    Threads.emplace_back([&, Runner] {
      std::vector<uint32_t> Tables(kRows);
      std::vector<unsigned> Classes(kRows);
      std::vector<double> Got(kRows);
      for (unsigned Round = 0; Round < kRounds; ++Round) {
        unsigned Known = Registered.load(std::memory_order_acquire);
        for (size_t I = 0; I < kRows; ++I) {
          Classes[I] = static_cast<unsigned>(I * 5 + Round + Runner) % Known;
          Tables[I] = TableOf[Classes[I]];
        }
        bool Served = Engine->run({.Input = Data.data(),
                                   .Output = Got.data(),
                                   .NumSamples = kRows,
                                   .TableIndices = Tables.data()});
        ++Runs;
        if (!Served) {
          ++Refused;
          continue;
        }
        for (size_t I = 0; I < kRows; ++I)
          if (!(std::fabs(Got[I] - Want[Classes[I]][I]) <= kTolerance))
            ++Mismatches;
      }
    });
  Threads.emplace_back([&] {
    // Register while every runner is mid-way.
    while (Runs.load() < kRunners)
      std::this_thread::yield();
    for (unsigned Class = 2; Class < kClasses; ++Class) {
      Expected<CompiledKernel> Kernel =
          Cache.getOrCompile(Models[Class], f64Query(), Options);
      if (!Kernel || &Kernel->getEngine() != Engine.get())
        return;
      TableOf[Class] = static_cast<uint32_t>(Kernel->getTableIndex());
      Registered.store(Class + 1, std::memory_order_release);
    }
  });
  for (std::thread &Thread : Threads)
    Thread.join();
  EXPECT_EQ(Registered.load(), kClasses);
  EXPECT_EQ(Refused.load(), 0u);
  EXPECT_EQ(Mismatches.load(), 0u);
}

TEST(MergeTest, IsomorphicModelsCompileOnceThroughGetOrCompile) {
  constexpr unsigned kModels = 5;
  constexpr size_t kRows = 12;
  std::vector<double> Data = ratData(kRows, 0x1507ULL);
  KernelCache Cache;
  CompilerOptions Options;
  Options.OptLevel = 2;
  std::vector<spn::Model> Models;
  std::vector<CompiledKernel> Kernels;
  for (unsigned Class = 0; Class < kModels; ++Class) {
    Models.push_back(ratClass(Class));
    Expected<CompiledKernel> Kernel =
        Cache.getOrCompile(Models.back(), f64Query(), Options);
    ASSERT_TRUE(static_cast<bool>(Kernel));
    Kernels.push_back(Kernel.takeValue());
  }
  KernelCache::Stats Stats = Cache.getStats();
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Hits, kModels - 1);
  for (unsigned Class = 0; Class < kModels; ++Class) {
    EXPECT_EQ(Kernels[Class].getTableIndex(), static_cast<int32_t>(Class));
    std::vector<double> Got(kRows), Want(kRows);
    Kernels[Class].execute(Data.data(), Got.data(), kRows);
    baselines::InterpreterEngine(Models[Class])
        .execute(Data.data(), Want.data(), kRows);
    for (size_t I = 0; I < kRows; ++I)
      EXPECT_NEAR(Got[I], Want[I], kTolerance)
          << "class " << Class << " row " << I;
  }
}

TEST(MergeTest, ConcurrentIsomorphicCompilesAllSucceed) {
  // Isomorphic models racing on one key: every compile but the winner's
  // is dropped, and a loser must not check its own parameters against
  // the winner's program.
  constexpr unsigned kThreads = 6;
  constexpr size_t kRows = 8;
  std::vector<double> Data = ratData(kRows, 0xc0c0ULL);
  std::vector<spn::Model> Models;
  for (unsigned Class = 0; Class < kThreads; ++Class)
    Models.push_back(ratClass(Class));
  KernelCache Cache;
  std::vector<Expected<CompiledKernel>> Kernels;
  for (unsigned Class = 0; Class < kThreads; ++Class)
    Kernels.emplace_back(makeError("not run"));
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (unsigned Class = 0; Class < kThreads; ++Class)
    Threads.emplace_back([&, Class] {
      while (!Go.load())
        std::this_thread::yield();
      Kernels[Class] =
          Cache.getOrCompile(Models[Class], f64Query(), CompilerOptions());
    });
  Go.store(true);
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Cache.size(), 1u);
  for (unsigned Class = 0; Class < kThreads; ++Class) {
    ASSERT_TRUE(static_cast<bool>(Kernels[Class]))
        << "class " << Class << ": " << Kernels[Class].getError().message();
    std::vector<double> Got(kRows), Want(kRows);
    Kernels[Class]->execute(Data.data(), Got.data(), kRows);
    baselines::InterpreterEngine(Models[Class])
        .execute(Data.data(), Want.data(), kRows);
    for (size_t I = 0; I < kRows; ++I)
      EXPECT_NEAR(Got[I], Want[I], kTolerance)
          << "class " << Class << " row " << I;
  }
}

TEST(MergeTest, LinearWidthChoiceSeparatesKernels) {
  // One structure: 40 Gaussian factors. With stddev 1 the worst-case
  // product underflows f32, with stddev 1e-6 it does not.
  auto Product = [](double StdDev) {
    spn::Model M(40);
    std::vector<spn::Node *> Factors;
    for (unsigned F = 0; F < 40; ++F)
      Factors.push_back(M.makeGaussian(F, 0.0, StdDev));
    M.setRoot(M.makeProduct(Factors));
    return M;
  };
  spn::Model Wide = Product(1.0);
  spn::Model Narrow = Product(1e-6);
  ASSERT_EQ(KernelCache::structuralHash(Wide),
            KernelCache::structuralHash(Narrow));
  spn::QueryConfig Linear;
  Linear.LogSpace = false;
  EXPECT_EQ(spn::resolveQuery(Wide, Linear).DataType,
            spn::ComputeType::F64);
  EXPECT_EQ(spn::resolveQuery(Narrow, Linear).DataType,
            spn::ComputeType::F32);

  KernelCache Cache;
  Expected<CompiledKernel> WideKernel =
      Cache.getOrCompile(Wide, Linear, CompilerOptions());
  Expected<CompiledKernel> NarrowKernel =
      Cache.getOrCompile(Narrow, Linear, CompilerOptions());
  ASSERT_TRUE(WideKernel && NarrowKernel);
  EXPECT_EQ(Cache.getStats().Misses, 2u);
  EXPECT_NE(WideKernel->getEngineShared(), NarrowKernel->getEngineShared());
  EXPECT_FALSE(WideKernel->getProgram().UseF32);
  EXPECT_TRUE(NarrowKernel->getProgram().UseF32);
}

TEST(MergeTest, SavedKernelOfSharedEngineEvaluatesItsOwnModel) {
  constexpr size_t kRows = 8;
  std::vector<double> Data = ratData(kRows, 0x5a7eULL);
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "spnc-merge-save";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  KernelCache Cache((Dir / "cache").string());
  spn::Model A = ratClass(0);
  spn::Model B = ratClass(1);
  ASSERT_TRUE(static_cast<bool>(Cache.getOrCompileMerged(A, f64Query(),
                                                         CompilerOptions())));
  Expected<KernelCache::MergedKernel> SecondMember =
      Cache.getOrCompileMerged(B, f64Query(), CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(SecondMember));
  std::string Path = (Dir / "b.spnk").string();
  ASSERT_TRUE(succeeded(saveCompiledKernel(SecondMember->Kernel, Path)));

  Expected<CompiledKernel> Loaded = loadCompiledKernel(Path);
  ASSERT_TRUE(static_cast<bool>(Loaded)) << Loaded.getError().message();
  std::vector<double> Got(kRows), Want(kRows);
  Loaded->execute(Data.data(), Got.data(), kRows);
  baselines::InterpreterEngine(B).execute(Data.data(), Want.data(), kRows);
  for (size_t I = 0; I < kRows; ++I)
    EXPECT_NEAR(Got[I], Want[I], kTolerance) << "row " << I;
  std::filesystem::remove_all(Dir);
}

TEST(MergeTest, CacheHitRejectsInvalidSibling) {
  KernelCache Cache;
  spn::Model A = ratClass(0);
  ASSERT_TRUE(static_cast<bool>(
      Cache.getOrCompileMerged(A, f64Query(), CompilerOptions())));
  // A sibling with one negative weight shares A's structure, so the
  // lookup hits A's kernel; its parameters must still be rejected, as a
  // compile of it alone would be.
  spn::Model B = ratClass(1);
  for (size_t I = 0; I < B.getNumNodes(); ++I)
    if (auto *Sum = dyn_cast<spn::SumNode>(
            B.getNode(static_cast<unsigned>(I)))) {
      std::vector<double> Weights = Sum->getWeights();
      Weights.front() = -Weights.front();
      Sum->setWeights(std::move(Weights));
      break;
    }
  Expected<KernelCache::MergedKernel> Merged =
      Cache.getOrCompileMerged(B, f64Query(), CompilerOptions());
  ASSERT_FALSE(static_cast<bool>(Merged));
  EXPECT_NE(Merged.getError().message().find("invalid weight"),
            std::string::npos)
      << Merged.getError().message();
  EXPECT_FALSE(static_cast<bool>(compileModel(B, f64Query(),
                                              CompilerOptions())));
  EXPECT_EQ(Cache.getStats().Misses, 1u);
}

} // namespace
