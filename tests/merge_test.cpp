//===- merge_test.cpp - Structural merging and merged-kernel tests --------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for merged-model compilation (docs/merging.md): the structural
/// signature/hash and isomorphism analysis of merge/Merge.h, the
/// content-vs-structural hash split on KernelCache, the merged
/// compilation path (one parameterized kernel per merge group, bound
/// per-model weight tables), differential checks of merged kernels
/// against the per-model interpreter oracle at the f64 tolerance, and
/// the `.spnk` v5 round trip of parameterized programs.
///
//===----------------------------------------------------------------------===//

#include "backend/CppBackend.h"
#include "backend/CppEmitter.h"
#include "baselines/Baselines.h"
#include "merge/Merge.h"
#include "runtime/KernelCache.h"
#include "support/Casting.h"
#include "vm/ParamTable.h"
#include "vm/ProgramBinary.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
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

  std::vector<double> ParamsA = merge::extractParams(A);
  std::vector<double> ParamsB = merge::extractParams(B);
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
  CompilerOptions Options;
  spn::QueryConfig Mpe;
  Mpe.Kind = spn::QueryKind::Mpe;
  EXPECT_FALSE(
      static_cast<bool>(Cache.getOrCompileMerged(A, Mpe, Options)));

  CompilerOptions Gpu;
  Gpu.TheTarget = Target::GPU;
  EXPECT_FALSE(
      static_cast<bool>(Cache.getOrCompileMerged(A, f64Query(), Gpu)));
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
  CppOptions.ExtraFlags = {"-O0"}; // one host compile per leg
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
  // A parameterized program that spans several segments and units: the
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

/// One batch carrying interleaved rows of two same-structure,
/// different-weight models: every row must score under its own model.
void expectMixedBatchMatchesOracles(KernelCache &Cache,
                                    const CompilerOptions &Options,
                                    const char *Leg) {
  constexpr size_t kRows = 24;
  spn::Model A = ratClass(0);
  spn::Model B = ratClass(1);
  Expected<KernelCache::MergedKernel> MergedA =
      Cache.getOrCompileMerged(A, f64Query(), Options);
  ASSERT_TRUE(static_cast<bool>(MergedA))
      << Leg << ": " << MergedA.getError().message();
  Expected<KernelCache::MergedKernel> MergedB =
      Cache.getOrCompileMerged(B, f64Query(), Options);
  ASSERT_TRUE(static_cast<bool>(MergedB))
      << Leg << ": " << MergedB.getError().message();

  std::vector<double> Data = ratData(kRows, 0xba7c4ULL);
  // Alternating run lengths (2, then 1) so executeIndexed crosses
  // several table-switch boundaries mid-batch.
  std::vector<uint32_t> Tables(kRows);
  for (size_t I = 0; I < kRows; ++I)
    Tables[I] = static_cast<uint32_t>(
        I % 3 == 2 ? MergedB->TableIndex : MergedA->TableIndex);

  std::vector<double> Got(kRows, 0.0);
  ASSERT_TRUE(MergedA->Kernel.executeIndexed(Data.data(), Tables.data(),
                                             Got.data(), kRows))
      << Leg << ": engine refused the mixed batch";

  baselines::InterpreterEngine OracleA(A);
  baselines::InterpreterEngine OracleB(B);
  std::vector<double> WantA(kRows, 0.0), WantB(kRows, 0.0);
  OracleA.execute(Data.data(), WantA.data(), kRows);
  OracleB.execute(Data.data(), WantB.data(), kRows);
  unsigned NumFeatures = A.getNumFeatures();
  (void)NumFeatures;
  for (size_t I = 0; I < kRows; ++I) {
    double Want = I % 3 == 2 ? WantB[I] : WantA[I];
    EXPECT_NEAR(Got[I], Want, kTolerance) << Leg << " row " << I;
  }
}

TEST(MergeTest, MixedTwoModelBatchScoresPerRowVm) {
  KernelCache Cache;
  CompilerOptions Options;
  expectMixedBatchMatchesOracles(Cache, Options, "vm/mixed");
}

TEST(MergeTest, MixedTwoModelBatchScoresPerRowCpp) {
  backend::CppBackendOptions CppOptions;
  CppOptions.ExtraFlags = {"-O0"};
  auto Cpp = std::make_shared<backend::CppBackend>(CppOptions);
  std::string SkipReason;
  if (!Cpp->isAvailable(&SkipReason))
    GTEST_SKIP() << SkipReason;
  KernelCache::Config Config;
  Config.TheBackend = Cpp;
  KernelCache Cache(Config);
  CompilerOptions Options;
  expectMixedBatchMatchesOracles(Cache, Options, "cpp/mixed");
}

/// Merged execution must agree with the classic unmerged compilation of
/// the same model (not just the interpreter): same engine class, same
/// instruction stream, weights routed through the table instead of
/// baked in.
TEST(MergeTest, MergedMatchesUnmergedCompilation) {
  constexpr size_t kNumSamples = 16;
  std::vector<double> Data = ratData(kNumSamples, 0x5a5aULL);
  KernelCache Cache;
  CompilerOptions Options;
  for (unsigned Class = 0; Class < 2; ++Class) {
    spn::Model Model = ratClass(Class);
    Expected<KernelCache::MergedKernel> Merged =
        Cache.getOrCompileMerged(Model, f64Query(), Options);
    ASSERT_TRUE(static_cast<bool>(Merged));
    Expected<CompiledKernel> Unmerged =
        Cache.getOrCompile(Model, f64Query(), Options);
    ASSERT_TRUE(static_cast<bool>(Unmerged));

    std::vector<uint32_t> Tables(
        kNumSamples, static_cast<uint32_t>(Merged->TableIndex));
    std::vector<double> Got(kNumSamples, 0.0), Want(kNumSamples, 0.0);
    ASSERT_TRUE(Merged->Kernel.executeIndexed(Data.data(), Tables.data(),
                                              Got.data(), kNumSamples));
    Unmerged->execute(Data.data(), Want.data(), kNumSamples);
    for (size_t I = 0; I < kNumSamples; ++I)
      EXPECT_NEAR(Got[I], Want[I], kTolerance)
          << "class " << Class << " sample " << I;
  }
}

//===----------------------------------------------------------------------===//
// Parameterized `.spnk` (format v5) round trip
//===----------------------------------------------------------------------===//

TEST(MergeTest, ParameterizedProgramRoundTripsThroughSpnkV5) {
  KernelCache Cache;
  CompilerOptions Options;
  spn::Model Model = ratClass(0);
  Expected<KernelCache::MergedKernel> Merged =
      Cache.getOrCompileMerged(Model, f64Query(), Options);
  ASSERT_TRUE(static_cast<bool>(Merged));
  const vm::KernelProgram *Program =
      Merged->Kernel.getEngineShared()->getProgram();
  ASSERT_NE(Program, nullptr);
  ASSERT_TRUE(Program->Parameterized);
  ASSERT_GT(Program->NumParams, 0u);

  std::vector<uint8_t> Blob = vm::encodeProgram(*Program);
  Expected<vm::KernelProgram> Decoded = vm::decodeProgram(Blob);
  ASSERT_TRUE(static_cast<bool>(Decoded))
      << Decoded.getError().message();
  EXPECT_TRUE(Decoded->Parameterized);
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
  // model's parameters reproduces the baked tables bit-for-bit.
  std::vector<double> Params = merge::extractParams(Model);
  ASSERT_EQ(Params.size(), Program->NumParams);
  std::string Why;
  EXPECT_TRUE(vm::verifySelfBinding(*Decoded, Params, &Why)) << Why;
}

} // namespace
