//===- kernelcache_test.cpp - Tests for the kernel cache -------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "backend/VmBackend.h"
#include "baselines/Baselines.h"
#include "frontend/Serializer.h"
#include "runtime/KernelCache.h"
#include "support/Hashing.h"
#include "support/Random.h"
#include "vm/Executor.h"
#include "vm/ProgramBinary.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <thread>
#include <vector>

using namespace spnc;
using namespace spnc::runtime;

namespace {

class KernelCacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    workloads::SpeakerModelOptions Options;
    Options.TargetOperations = 300;
    Options.Seed = 31;
    Model = std::make_unique<spn::Model>(
        workloads::generateSpeakerModel(Options));
    NumFeatures = Model->getNumFeatures();
    Data = workloads::generateSpeechData(Options, kNumSamples, 5);
    TempDir = std::filesystem::path(::testing::TempDir()) /
              ("spnc-kernelcache-" +
               std::to_string(::testing::UnitTest::GetInstance()
                                  ->random_seed()) +
               "-" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name());
    std::filesystem::remove_all(TempDir);
  }

  void TearDown() override { std::filesystem::remove_all(TempDir); }

  /// The disk key a cache without a backend uses for (Model, Query,
  /// Options): the VM backend's.
  static uint64_t keyFor(const spn::Model &M,
                         const spn::QueryConfig &Query,
                         const CompilerOptions &Options) {
    Expected<PipelineConfig> Config = PipelineConfig::create(Options);
    EXPECT_TRUE(static_cast<bool>(Config));
    return KernelCache::makeKey(M, Query, *Config, backend::VmBackend());
  }

  /// Reads a cache file's bytes.
  static std::vector<uint8_t> readFile(const std::string &Path) {
    std::FILE *File = std::fopen(Path.c_str(), "rb");
    EXPECT_NE(File, nullptr) << Path;
    std::vector<uint8_t> Bytes;
    uint8_t Chunk[4096];
    size_t Read;
    while (File && (Read = std::fread(Chunk, 1, sizeof(Chunk), File)) > 0)
      Bytes.insert(Bytes.end(), Chunk, Chunk + Read);
    if (File)
      std::fclose(File);
    return Bytes;
  }

  /// Overwrites a cache file with \p Bytes.
  static void writeFile(const std::string &Path,
                        const std::vector<uint8_t> &Bytes) {
    std::FILE *File = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(File, nullptr) << Path;
    ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), File),
              Bytes.size());
    std::fclose(File);
  }

  static constexpr size_t kNumSamples = 24;
  std::unique_ptr<spn::Model> Model;
  unsigned NumFeatures = 0;
  std::vector<double> Data;
  std::filesystem::path TempDir;
};

TEST_F(KernelCacheTest, SecondRequestIsAHit) {
  KernelCache Cache;
  CompilerOptions Options;

  CompileStats Stats;
  Expected<CompiledKernel> First =
      Cache.getOrCompile(*Model, spn::QueryConfig(), Options, &Stats);
  ASSERT_TRUE(static_cast<bool>(First));
  EXPECT_GT(Stats.TotalNs, 0u);
  EXPECT_EQ(Cache.size(), 1u);

  // The second request reuses the engine: Stats is left untouched and
  // both kernels share the same underlying object.
  CompileStats SecondStats;
  Expected<CompiledKernel> Second = Cache.getOrCompile(
      *Model, spn::QueryConfig(), Options, &SecondStats);
  ASSERT_TRUE(static_cast<bool>(Second));
  EXPECT_EQ(SecondStats.TotalNs, 0u);
  EXPECT_EQ(&First->getEngine(), &Second->getEngine());
  EXPECT_EQ(Cache.size(), 1u);

  KernelCache::Stats CacheStats = Cache.getStats();
  EXPECT_EQ(CacheStats.Hits, 1u);
  EXPECT_EQ(CacheStats.Misses, 1u);
  EXPECT_EQ(CacheStats.Recompiles, 1u);
  EXPECT_EQ(CacheStats.DiskHits, 0u);
}

TEST_F(KernelCacheTest, KeyIsSensitiveToPipelineAndQueryConfig) {
  CompilerOptions Base;
  Base.OptLevel = 1;
  // Distinct keys differ in their top 16 bits too: every field moves
  // the whole key, not only its low bits.
  auto ExpectDistinct = [](uint64_t A, uint64_t B) {
    EXPECT_NE(A, B);
    EXPECT_NE(A >> 48, B >> 48) << std::hex << A << " vs " << B;
  };

  // A different optimization level changes the pipeline, so it must
  // change the key.
  CompilerOptions O2 = Base;
  O2.OptLevel = 2;
  ExpectDistinct(keyFor(*Model, spn::QueryConfig(), Base),
                 keyFor(*Model, spn::QueryConfig(), O2));

  // So do the execution-affecting knobs...
  CompilerOptions Vectorized = Base;
  Vectorized.Execution.VectorWidth = 8;
  ExpectDistinct(keyFor(*Model, spn::QueryConfig(), Base),
                 keyFor(*Model, spn::QueryConfig(), Vectorized));

  CompilerOptions Gpu = Base;
  Gpu.TheTarget = Target::GPU;
  ExpectDistinct(keyFor(*Model, spn::QueryConfig(), Base),
                 keyFor(*Model, spn::QueryConfig(), Gpu));

  // Partitioner options matter once partitioning is on.
  CompilerOptions Partitioned = Base;
  Partitioned.MaxPartitionSize = 100;
  CompilerOptions PartitionedSlack = Partitioned;
  PartitionedSlack.Partitioning.Slack = 0.05;
  ExpectDistinct(keyFor(*Model, spn::QueryConfig(), Partitioned),
                 keyFor(*Model, spn::QueryConfig(), PartitionedSlack));

  // Options neither the pipeline nor the target's engine reads leave
  // the key alone: each pair compiles the same program for the same
  // engine.
  auto ExpectSameKey = [&](const CompilerOptions &A,
                           const CompilerOptions &B, const char *What) {
    EXPECT_EQ(keyFor(*Model, spn::QueryConfig(), A),
              keyFor(*Model, spn::QueryConfig(), B))
        << What;
  };
  CompilerOptions Slack = Base;
  Slack.Partitioning.Slack = 0.05;
  ExpectSameKey(Base, Slack, "slack with partitioning off");
  CompilerOptions PartitionerBound = Partitioned;
  PartitionerBound.Partitioning.MaxPartitionSize = 2000;
  ExpectSameKey(Partitioned, PartitionerBound,
                "Partitioning.MaxPartitionSize (set by the pipeline)");
  CompilerOptions BlockSize = Base;
  BlockSize.GpuBlockSize = 128;
  ExpectSameKey(Base, BlockSize, "GPU block size on the CPU");
  CompilerOptions Peak = Base;
  Peak.Device.PeakSpeedup = 8;
  ExpectSameKey(Base, Peak, "device speedup on the CPU");
  CompilerOptions GpuVectorized = Gpu;
  GpuVectorized.Execution.VectorWidth = 8;
  ExpectSameKey(Gpu, GpuVectorized, "vector width on the GPU");

  // ...and the query configuration. A marginal query has one key
  // whichever way it is spelled.
  spn::QueryConfig Marginal;
  Marginal.SupportMarginal = true;
  ExpectDistinct(keyFor(*Model, spn::QueryConfig(), Base),
                 keyFor(*Model, Marginal, Base));
  spn::QueryConfig MarginalKind;
  MarginalKind.Kind = spn::QueryKind::Marginal;
  EXPECT_EQ(keyFor(*Model, Marginal, Base),
            keyFor(*Model, MarginalKind, Base));
  MarginalKind.SupportMarginal = true;
  EXPECT_EQ(keyFor(*Model, Marginal, Base),
            keyFor(*Model, MarginalKind, Base));

  spn::QueryConfig Batched;
  Batched.BatchSize = 64;
  ExpectDistinct(keyFor(*Model, spn::QueryConfig(), Base),
                 keyFor(*Model, Batched, Base));

  // A structurally different model gets a different key too.
  workloads::SpeakerModelOptions Other;
  Other.TargetOperations = 300;
  Other.Seed = 77;
  spn::Model OtherModel = workloads::generateSpeakerModel(Other);
  ExpectDistinct(keyFor(*Model, spn::QueryConfig(), Base),
                 keyFor(OtherModel, spn::QueryConfig(), Base));

  // Joint/marginal kernels key on structure: a weight-only edit shares
  // the key (and the kernel, under its own weight table). MPE kernels
  // bake their parameters and key on content.
  Expected<spn::Model> Edited =
      spn::deserializeModel(spn::serializeModel(*Model));
  ASSERT_TRUE(static_cast<bool>(Edited));
  for (size_t I = 0; I < Edited->getNumNodes(); ++I)
    if (auto *Sum = dyn_cast<spn::SumNode>(
            Edited->getNode(static_cast<unsigned>(I)))) {
      std::vector<double> Weights = Sum->getWeights();
      std::swap(Weights.front(), Weights.back());
      Sum->setWeights(std::move(Weights));
      break;
    }
  EXPECT_EQ(keyFor(*Model, spn::QueryConfig(), Base),
            keyFor(*Edited, spn::QueryConfig(), Base));
  spn::QueryConfig Mpe;
  Mpe.Kind = spn::QueryKind::Mpe;
  ExpectDistinct(keyFor(*Model, Mpe, Base), keyFor(*Edited, Mpe, Base));

  // The cache keeps distinct engines for distinct keys.
  KernelCache Cache;
  ASSERT_TRUE(static_cast<bool>(
      Cache.getOrCompile(*Model, spn::QueryConfig(), Base)));
  ASSERT_TRUE(static_cast<bool>(
      Cache.getOrCompile(*Model, spn::QueryConfig(), O2)));
  ASSERT_TRUE(static_cast<bool>(
      Cache.getOrCompile(*Model, Marginal, Base)));
  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_EQ(Cache.getStats().Hits, 0u);
}

TEST_F(KernelCacheTest, MarginalSpellingsShareOneKernel) {
  // Joint + SupportMarginal, Marginal, and Marginal + SupportMarginal
  // are one query: one compile, one engine, one disk entry.
  spn::QueryConfig Spellings[3];
  Spellings[0].SupportMarginal = true;
  Spellings[1].Kind = spn::QueryKind::Marginal;
  Spellings[2].Kind = spn::QueryKind::Marginal;
  Spellings[2].SupportMarginal = true;
  KernelCache Cache(TempDir.string());
  std::vector<CompiledKernel> Kernels;
  for (const spn::QueryConfig &Query : Spellings) {
    Expected<CompiledKernel> Kernel =
        Cache.getOrCompile(*Model, Query, CompilerOptions());
    ASSERT_TRUE(static_cast<bool>(Kernel)) << Kernel.getError().message();
    Kernels.push_back(Kernel.takeValue());
  }
  KernelCache::Stats Stats = Cache.getStats();
  EXPECT_EQ(Stats.Misses, 1u);
  EXPECT_EQ(Stats.Hits, 2u);
  EXPECT_EQ(Cache.size(), 1u);
  for (const CompiledKernel &Kernel : Kernels)
    EXPECT_EQ(&Kernel.getEngine(), &Kernels.front().getEngine());

  // The entry the Joint + SupportMarginal compile wrote records
  // Marginal, and reloaded it serves marginal and joint requests alike.
  std::vector<std::string> Entries;
  for (const auto &Entry : std::filesystem::directory_iterator(TempDir))
    if (Entry.path().extension() == ".spnk")
      Entries.push_back(Entry.path().string());
  ASSERT_EQ(Entries.size(), 1u);
  Expected<vm::KernelProgram> Saved =
      vm::decodeProgram(readFile(Entries.front()));
  ASSERT_TRUE(static_cast<bool>(Saved)) << Saved.getError().message();
  EXPECT_EQ(Saved->Query, spn::QueryKind::Marginal);
  Expected<CompiledKernel> Loaded = loadCompiledKernel(Entries.front());
  ASSERT_TRUE(static_cast<bool>(Loaded)) << Loaded.getError().message();

  std::vector<double> Noisy = Data;
  for (size_t I = 0; I < Noisy.size(); I += 3)
    Noisy[I] = std::nan("");
  for (spn::QueryKind Kind :
       {spn::QueryKind::Marginal, spn::QueryKind::Joint}) {
    SCOPED_TRACE(spn::queryKindName(Kind));
    const std::vector<double> &Input =
        Kind == spn::QueryKind::Marginal ? Noisy : Data;
    std::vector<double> Compiled(kNumSamples), Reloaded(kNumSamples, 1.0);
    ASSERT_TRUE(Kernels.front().run({.Kind = Kind,
                                     .Input = Input.data(),
                                     .Output = Compiled.data(),
                                     .NumSamples = kNumSamples}));
    ASSERT_TRUE(Loaded->run({.Kind = Kind,
                             .Input = Input.data(),
                             .Output = Reloaded.data(),
                             .NumSamples = kNumSamples}));
    EXPECT_EQ(Reloaded, Compiled);
    for (double V : Reloaded)
      EXPECT_TRUE(std::isfinite(V));
  }
}

TEST_F(KernelCacheTest, InvalidOptionsPropagateTheError) {
  KernelCache Cache;
  CompilerOptions Bad;
  Bad.OptLevel = 9;
  EXPECT_FALSE(static_cast<bool>(
      Cache.getOrCompile(*Model, spn::QueryConfig(), Bad)));
  EXPECT_EQ(Cache.size(), 0u);
}

TEST_F(KernelCacheTest, DiskTierIsSharedAcrossInstances) {
  CompilerOptions Options;

  // First cache compiles and persists the kernel.
  {
    KernelCache Cache(TempDir.string());
    ASSERT_TRUE(static_cast<bool>(
        Cache.getOrCompile(*Model, spn::QueryConfig(), Options)));
    EXPECT_EQ(Cache.getStats().Recompiles, 1u);
    uint64_t Key = keyFor(*Model, spn::QueryConfig(), Options);
    EXPECT_TRUE(std::filesystem::exists(Cache.entryPath(Key)));
  }

  // A fresh cache over the same directory loads from disk instead of
  // compiling, and the loaded kernel computes the same result.
  KernelCache Fresh(TempDir.string());
  CompileStats Stats;
  Expected<CompiledKernel> Loaded =
      Fresh.getOrCompile(*Model, spn::QueryConfig(), Options, &Stats);
  ASSERT_TRUE(static_cast<bool>(Loaded));
  KernelCache::Stats CacheStats = Fresh.getStats();
  EXPECT_EQ(CacheStats.DiskHits, 1u);
  EXPECT_EQ(CacheStats.Recompiles, 0u);
  EXPECT_EQ(Stats.TotalNs, 0u);

  std::vector<double> FromDisk(kNumSamples);
  Loaded->execute(Data.data(), FromDisk.data(), kNumSamples);
  std::vector<double> Reference(kNumSamples);
  for (size_t S = 0; S < kNumSamples; ++S)
    Reference[S] = Model->evalLogLikelihood(
        std::span<const double>(Data.data() + S * NumFeatures,
                                NumFeatures));
  for (size_t S = 0; S < kNumSamples; ++S)
    EXPECT_NEAR(FromDisk[S], Reference[S],
                std::fabs(Reference[S]) * 1e-6 + 1e-6);
}

TEST_F(KernelCacheTest, CorruptedDiskEntryTriggersRecompile) {
  CompilerOptions Options;
  uint64_t Key = keyFor(*Model, spn::QueryConfig(), Options);

  // Plant a corrupted entry where the cache expects its .spnk file.
  std::filesystem::create_directories(TempDir);
  KernelCache Cache(TempDir.string());
  std::string Path = Cache.entryPath(Key);
  {
    std::FILE *File = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(File, nullptr);
    std::fputs("this is not a kernel program", File);
    std::fclose(File);
  }

  // The corrupted entry is not an error: the cache recompiles, serves
  // the kernel, and rewrites the entry.
  Expected<CompiledKernel> Kernel =
      Cache.getOrCompile(*Model, spn::QueryConfig(), Options);
  ASSERT_TRUE(static_cast<bool>(Kernel));
  KernelCache::Stats CacheStats = Cache.getStats();
  EXPECT_EQ(CacheStats.DiskHits, 0u);
  EXPECT_EQ(CacheStats.Recompiles, 1u);

  // The rewritten entry is valid now: a fresh cache disk-hits on it.
  KernelCache Fresh(TempDir.string());
  ASSERT_TRUE(static_cast<bool>(
      Fresh.getOrCompile(*Model, spn::QueryConfig(), Options)));
  EXPECT_EQ(Fresh.getStats().DiskHits, 1u);
}

TEST_F(KernelCacheTest, UnwritableDirectoryStillServesKernels) {
  // A disk tier that cannot be created (a regular file squats on a path
  // component) degrades to in-memory behavior. A file blocker works
  // even when the tests run as root, unlike permission bits.
  std::filesystem::create_directories(TempDir);
  std::filesystem::path Blocker = TempDir / "blocker";
  {
    std::FILE *File = std::fopen(Blocker.c_str(), "wb");
    ASSERT_NE(File, nullptr);
    std::fclose(File);
  }
  KernelCache Cache((Blocker / "cache").string());
  Expected<CompiledKernel> Kernel =
      Cache.getOrCompile(*Model, spn::QueryConfig(), CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Kernel));
  EXPECT_EQ(Cache.size(), 1u);
  EXPECT_EQ(Cache.getStats().Recompiles, 1u);
}

TEST_F(KernelCacheTest, ConcurrentRequestsShareOneEngine) {
  KernelCache Cache;
  CompilerOptions Options;
  Options.Execution.VectorWidth = 4;

  constexpr unsigned kNumThreads = 8;
  std::vector<CompiledKernel> Kernels(kNumThreads);
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kNumThreads; ++T)
    Threads.emplace_back([&, T] {
      Expected<CompiledKernel> Kernel =
          Cache.getOrCompile(*Model, spn::QueryConfig(), Options);
      if (!Kernel) {
        ++Failures;
        return;
      }
      Kernels[T] = Kernel.takeValue();
      std::vector<double> Output(kNumSamples);
      Kernels[T].execute(Data.data(), Output.data(), kNumSamples);
    });
  for (std::thread &T : Threads)
    T.join();
  ASSERT_EQ(Failures.load(), 0u);

  // Races may compile the same key more than once, but exactly one
  // engine wins and everyone ends up sharing it.
  EXPECT_EQ(Cache.size(), 1u);
  for (unsigned T = 1; T < kNumThreads; ++T)
    EXPECT_EQ(&Kernels[0].getEngine(), &Kernels[T].getEngine());
  KernelCache::Stats CacheStats = Cache.getStats();
  EXPECT_EQ(CacheStats.Hits + CacheStats.Misses, kNumThreads);
  EXPECT_GE(CacheStats.Recompiles, 1u);
}

TEST_F(KernelCacheTest, LruEvictionDropsLeastRecentlyUsed) {
  KernelCache::Config Config;
  Config.MaxEntries = 2;
  KernelCache Cache(Config);

  CompilerOptions O0, O1, O2;
  O0.OptLevel = 0;
  O1.OptLevel = 1;
  O2.OptLevel = 2;

  ASSERT_TRUE(static_cast<bool>(
      Cache.getOrCompile(*Model, spn::QueryConfig(), O0)));
  ASSERT_TRUE(static_cast<bool>(
      Cache.getOrCompile(*Model, spn::QueryConfig(), O1)));
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.getStats().Evictions, 0u);

  // Touch O0 so O1 becomes the least-recently-used entry...
  ASSERT_TRUE(static_cast<bool>(
      Cache.getOrCompile(*Model, spn::QueryConfig(), O0)));
  // ...then a third key evicts O1, not O0.
  ASSERT_TRUE(static_cast<bool>(
      Cache.getOrCompile(*Model, spn::QueryConfig(), O2)));
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.getStats().Evictions, 1u);

  // O0 is still resident (hit); O1 was evicted (miss + recompile).
  KernelCache::Stats Before = Cache.getStats();
  ASSERT_TRUE(static_cast<bool>(
      Cache.getOrCompile(*Model, spn::QueryConfig(), O0)));
  EXPECT_EQ(Cache.getStats().Hits, Before.Hits + 1);
  ASSERT_TRUE(static_cast<bool>(
      Cache.getOrCompile(*Model, spn::QueryConfig(), O1)));
  KernelCache::Stats After = Cache.getStats();
  EXPECT_EQ(After.Misses, Before.Misses + 1);
  EXPECT_EQ(After.Recompiles, Before.Recompiles + 1);
  // Inserting O1 again pushed another entry out.
  EXPECT_EQ(After.Evictions, 2u);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST_F(KernelCacheTest, UnboundedCapacityNeverEvicts) {
  KernelCache::Config Config;
  Config.MaxEntries = 0; // unbounded
  KernelCache Cache(Config);
  for (unsigned Opt = 0; Opt <= 3; ++Opt) {
    CompilerOptions Options;
    Options.OptLevel = Opt;
    ASSERT_TRUE(static_cast<bool>(
        Cache.getOrCompile(*Model, spn::QueryConfig(), Options)));
  }
  EXPECT_EQ(Cache.size(), 4u);
  EXPECT_EQ(Cache.getStats().Evictions, 0u);
}

TEST_F(KernelCacheTest, DiskBudgetPrunesOldestFirst) {
  spn::QueryConfig Query;
  CompilerOptions OldOptions, NewOptions;
  OldOptions.OptLevel = 1;
  NewOptions.OptLevel = 2;

  // Write the first entry with no budget, then age its mtime so it is
  // unambiguously the oldest file in the tier.
  std::string OldPath;
  uintmax_t OldSize = 0;
  {
    KernelCache Unbounded(TempDir.string());
    ASSERT_TRUE(static_cast<bool>(
        Unbounded.getOrCompile(*Model, Query, OldOptions)));
    OldPath = Unbounded.entryPath(keyFor(*Model, Query, OldOptions));
    ASSERT_TRUE(std::filesystem::exists(OldPath));
    OldSize = std::filesystem::file_size(OldPath);
    std::filesystem::last_write_time(
        OldPath, std::filesystem::file_time_type::clock::now() -
                     std::chrono::hours(1));
  }

  // A budget of one kernel: inserting the second entry overflows it and
  // prunes the aged file while keeping the just-written one.
  KernelCache::Config Config;
  Config.Directory = TempDir.string();
  Config.DiskBudgetBytes = OldSize;
  KernelCache Bounded(Config);
  ASSERT_TRUE(static_cast<bool>(
      Bounded.getOrCompile(*Model, Query, NewOptions)));
  EXPECT_FALSE(std::filesystem::exists(OldPath));
  EXPECT_TRUE(std::filesystem::exists(
      Bounded.entryPath(keyFor(*Model, Query, NewOptions))));
  KernelCache::Stats Stats = Bounded.getStats();
  EXPECT_EQ(Stats.DiskPrunedFiles, 1u);
  EXPECT_EQ(Stats.DiskPrunedBytes, OldSize);
}

TEST_F(KernelCacheTest, TruncatedDiskEntryIsRejectedAndRecompiled) {
  CompilerOptions Options;
  {
    KernelCache Cache(TempDir.string());
    ASSERT_TRUE(static_cast<bool>(
        Cache.getOrCompile(*Model, spn::QueryConfig(), Options)));
  }
  std::string Path =
      KernelCache(TempDir.string())
          .entryPath(keyFor(*Model, spn::QueryConfig(), Options));
  std::vector<uint8_t> Bytes = readFile(Path);
  ASSERT_GT(Bytes.size(), 32u);
  Bytes.resize(Bytes.size() / 2);
  writeFile(Path, Bytes);

  // The truncated entry is detected (checksum over the payload fails)
  // and the kernel recompiles transparently.
  KernelCache Fresh(TempDir.string());
  Expected<CompiledKernel> Kernel =
      Fresh.getOrCompile(*Model, spn::QueryConfig(), Options);
  ASSERT_TRUE(static_cast<bool>(Kernel));
  KernelCache::Stats Stats = Fresh.getStats();
  EXPECT_EQ(Stats.DiskHits, 0u);
  EXPECT_EQ(Stats.Recompiles, 1u);
  EXPECT_EQ(Stats.CorruptedDiskEntries, 1u);

  // The recompile rewrote a valid entry.
  KernelCache Reloaded(TempDir.string());
  ASSERT_TRUE(static_cast<bool>(
      Reloaded.getOrCompile(*Model, spn::QueryConfig(), Options)));
  EXPECT_EQ(Reloaded.getStats().DiskHits, 1u);
  EXPECT_EQ(Reloaded.getStats().CorruptedDiskEntries, 0u);
}

TEST_F(KernelCacheTest, BitFlippedDiskEntryIsRejectedAndRecompiled) {
  CompilerOptions Options;
  {
    KernelCache Cache(TempDir.string());
    ASSERT_TRUE(static_cast<bool>(
        Cache.getOrCompile(*Model, spn::QueryConfig(), Options)));
  }
  std::string Path =
      KernelCache(TempDir.string())
          .entryPath(keyFor(*Model, spn::QueryConfig(), Options));
  std::vector<uint8_t> Bytes = readFile(Path);
  ASSERT_FALSE(Bytes.empty());
  // Flip one bit in the last payload byte: the blob stays structurally
  // parseable, so only the content checksum can reject it.
  Bytes[Bytes.size() - 1] ^= 0x01;
  writeFile(Path, Bytes);

  KernelCache Fresh(TempDir.string());
  Expected<CompiledKernel> Kernel =
      Fresh.getOrCompile(*Model, spn::QueryConfig(), Options);
  ASSERT_TRUE(static_cast<bool>(Kernel));
  KernelCache::Stats Stats = Fresh.getStats();
  EXPECT_EQ(Stats.DiskHits, 0u);
  EXPECT_EQ(Stats.Recompiles, 1u);
  EXPECT_EQ(Stats.CorruptedDiskEntries, 1u);

  // The flipped entry never reached execution: the recompiled kernel
  // computes the reference result.
  std::vector<double> Output(kNumSamples);
  Kernel->execute(Data.data(), Output.data(), kNumSamples);
  for (size_t S = 0; S < kNumSamples; ++S) {
    double Reference = Model->evalLogLikelihood(
        std::span<const double>(Data.data() + S * NumFeatures,
                                NumFeatures));
    EXPECT_NEAR(Output[S], Reference,
                std::fabs(Reference) * 1e-6 + 1e-6);
  }
}

TEST_F(KernelCacheTest, LegacyV2DiskEntryIsRecompiled) {
  CompilerOptions Options;
  {
    KernelCache Cache(TempDir.string());
    Expected<CompiledKernel> Fresh =
        Cache.getOrCompile(*Model, spn::QueryConfig(), Options);
    ASSERT_TRUE(static_cast<bool>(Fresh));
    // The downgrade below strips the per-task parameter-site count from
    // the end of the blob, which only lands there for a single-task
    // program.
    ASSERT_EQ(Fresh->getProgram().Tasks.size(), 1u);
  }
  std::string Path =
      KernelCache(TempDir.string())
          .entryPath(keyFor(*Model, spn::QueryConfig(), Options));
  // Downgrade the entry to the pre-checksum v2 layout: without its
  // parameter sites, drop the v4 query/plan section (13 bytes for a
  // Joint program with an empty plan) plus the parameter count (4
  // bytes), the trailing per-task parameter-site count (4 bytes), and
  // the 8-byte checksum field, then patch the header version word.
  Expected<vm::KernelProgram> Current = vm::decodeProgram(readFile(Path));
  ASSERT_TRUE(static_cast<bool>(Current));
  Current->NumParams = 0;
  Current->Tasks.front().ParamSites.clear();
  std::vector<uint8_t> Bytes = vm::encodeProgram(*Current);
  ASSERT_GT(Bytes.size(), 16u);
  uint32_t NameLen = 0;
  std::memcpy(&NameLen, Bytes.data() + 16, sizeof(NameLen));
  size_t QueryOffset = 16 + 4 + NameLen + 3;
  Bytes.erase(Bytes.begin() + QueryOffset,
              Bytes.begin() + QueryOffset + 17);
  Bytes.erase(Bytes.end() - 4, Bytes.end());
  Bytes.erase(Bytes.begin() + 8, Bytes.begin() + 16);
  const uint32_t Version = 2;
  std::memcpy(Bytes.data() + 4, &Version, sizeof(Version));
  writeFile(Path, Bytes);

  // A pre-v6 entry is a corrupted entry: recompiled and rewritten in
  // the current format.
  {
    KernelCache Fresh(TempDir.string());
    Expected<CompiledKernel> Kernel =
        Fresh.getOrCompile(*Model, spn::QueryConfig(), Options);
    ASSERT_TRUE(static_cast<bool>(Kernel));
    KernelCache::Stats Stats = Fresh.getStats();
    EXPECT_EQ(Stats.DiskHits, 0u);
    EXPECT_EQ(Stats.Recompiles, 1u);
    EXPECT_EQ(Stats.CorruptedDiskEntries, 1u);

    std::vector<double> Output(kNumSamples);
    Kernel->execute(Data.data(), Output.data(), kNumSamples);
    double Reference = Model->evalLogLikelihood(
        std::span<const double>(Data.data(), NumFeatures));
    EXPECT_NEAR(Output[0], Reference, std::fabs(Reference) * 1e-6 + 1e-6);
  }
  std::vector<uint8_t> Rewritten = readFile(Path);
  ASSERT_GE(Rewritten.size(), 8u);
  uint32_t RewrittenVersion = 0;
  std::memcpy(&RewrittenVersion, Rewritten.data() + 4,
              sizeof(RewrittenVersion));
  EXPECT_EQ(RewrittenVersion, vm::kProgramBinaryVersion);

  // The rewritten entry serves the next process from disk.
  KernelCache Next(TempDir.string());
  ASSERT_TRUE(static_cast<bool>(
      Next.getOrCompile(*Model, spn::QueryConfig(), Options)));
  KernelCache::Stats NextStats = Next.getStats();
  EXPECT_EQ(NextStats.DiskHits, 1u);
  EXPECT_EQ(NextStats.Recompiles, 0u);
  EXPECT_EQ(NextStats.CorruptedDiskEntries, 0u);
}

//===----------------------------------------------------------------------===//
// Decoder index checks: tampered entries with a valid checksum
//===----------------------------------------------------------------------===//

/// Two histogram features under one sum: discrete leaves lower to table
/// lookups on the CPU and to select cascades on the GPU.
spn::Model makeHistogramModel() {
  spn::Model Model(2, "histograms");
  auto Hist = [&](unsigned Feature, double P) {
    return Model.makeHistogram(Feature, {spn::HistogramBucket{0, 1, P},
                                         spn::HistogramBucket{1, 2, 1 - P}});
  };
  Model.setRoot(
      Model.makeSum({Model.makeProduct({Hist(0, 0.3), Hist(1, 0.6)}),
                     Model.makeProduct({Hist(0, 0.8), Hist(1, 0.1)})},
                    {0.4, 0.6}));
  return Model;
}

/// The first instruction of \p P with one of the opcodes \p Ops.
vm::Instruction &firstOf(vm::KernelProgram &P,
                         std::initializer_list<vm::OpCode> Ops) {
  for (vm::TaskProgram &Task : P.Tasks)
    for (vm::Instruction &I : Task.Code)
      if (std::find(Ops.begin(), Ops.end(), I.Op) != Ops.end())
        return I;
  ADD_FAILURE() << "program has no instruction with the requested opcode";
  static vm::Instruction None;
  return None;
}

/// The kernels the tampered fields live in.
enum class Source {
  Speaker,
  SpeakerO2,
  SpeakerPartitioned,
  RatSpnO2,
  HistogramCpu,
  HistogramGpu,
  Mpe,
  Merged
};

/// One tampered field: the kernel holding it, the corruption, and the
/// text the decode error must carry to name the field.
struct Tamper {
  Source From;
  const char *Field;
  std::function<void(vm::KernelProgram &)> Apply;
};

class KernelCacheTamperTest : public KernelCacheTest {
protected:
  Expected<CompiledKernel> compile(KernelCache &Cache, Source From) {
    CompilerOptions Options;
    spn::QueryConfig Query;
    switch (From) {
    case Source::Speaker:
      break;
    case Source::SpeakerO2:
      Options.OptLevel = 2;
      break;
    case Source::SpeakerPartitioned:
      Options.MaxPartitionSize = 100;
      break;
    case Source::RatSpnO2:
      Options.OptLevel = 2;
      return Cache.getOrCompile(RatSpn, Query, Options);
    case Source::HistogramCpu:
      return Cache.getOrCompile(Histograms, Query, Options);
    case Source::HistogramGpu:
      Options.TheTarget = Target::GPU;
      return Cache.getOrCompile(Histograms, Query, Options);
    case Source::Mpe:
      Query.Kind = spn::QueryKind::Mpe;
      break;
    case Source::Merged: {
      Expected<KernelCache::MergedKernel> Merged =
          Cache.getOrCompileMerged(*Model, Query, Options);
      if (!Merged)
        return Merged.getError();
      return Merged->Kernel;
    }
    }
    return Cache.getOrCompile(*Model, Query, Options);
  }

  /// The one `.spnk` entry under \p Dir.
  static std::string onlyEntry(const std::filesystem::path &Dir) {
    std::vector<std::string> Entries;
    for (const auto &Entry : std::filesystem::directory_iterator(Dir))
      if (Entry.path().extension() == ".spnk")
        Entries.push_back(Entry.path().string());
    EXPECT_EQ(Entries.size(), 1u);
    return Entries.empty() ? std::string() : Entries.front();
  }

  spn::Model Histograms = makeHistogramModel();
  /// A RAT-SPN whose -O2 program holds LogSumExpGroups.
  spn::Model RatSpn = [] {
    workloads::RatSpnOptions Options;
    Options.NumFeatures = 16;
    Options.Depth = 2;
    Options.Replicas = 2;
    Options.SumsPerRegion = 3;
    Options.LeafDistributions = 4;
    Options.Seed = 17;
    return workloads::generateRatSpn(Options, 0);
  }();
};

TEST_F(KernelCacheTamperTest, ResealedBadIndexIsRecompiled) {
  constexpr uint32_t kFar = 1u << 20;
  auto Task0 = [](vm::KernelProgram &P) -> vm::TaskProgram & {
    return P.Tasks.front();
  };
  const Tamper Cases[] = {
      {Source::Speaker, "opcode 200",
       [&](vm::KernelProgram &P) {
         Task0(P).Code.front().Op = static_cast<vm::OpCode>(200);
       }},
      {Source::Speaker, "register",
       [&](vm::KernelProgram &P) {
         Task0(P).Code.front().Dst = Task0(P).NumRegisters + 1000000;
       }},
      {Source::Speaker, "const-pool index 1073741824",
       [](vm::KernelProgram &P) {
         firstOf(P, {vm::OpCode::Const}).A = 1u << 30;
       }},
      {Source::Speaker, "gaussian index 1048576",
       [&](vm::KernelProgram &P) {
         firstOf(P, {vm::OpCode::Gaussian, vm::OpCode::GaussianLog}).B =
             kFar;
       }},
      {Source::HistogramCpu, "table index 1048576",
       [&](vm::KernelProgram &P) {
         firstOf(P, {vm::OpCode::TableLookup}).B = kFar;
       }},
      {Source::HistogramGpu, "select index 1048576",
       [&](vm::KernelProgram &P) {
         firstOf(P, {vm::OpCode::SelectInRange}).B = kFar;
       }},
      {Source::Speaker, "load index 1048576",
       [&](vm::KernelProgram &P) {
         firstOf(P, {vm::OpCode::Load}).A = kFar;
       }},
      {Source::Speaker, "store index 1048576",
       [&](vm::KernelProgram &P) {
         firstOf(P, {vm::OpCode::Store}).A = kFar;
       }},
      {Source::SpeakerO2, "arg range end",
       [&](vm::KernelProgram &P) {
         firstOf(P, {vm::OpCode::AddN, vm::OpCode::MulN,
                     vm::OpCode::LogSumExpN})
             .A = kFar;
       }},
      {Source::SpeakerO2, "weight slot 1048576",
       [&](vm::KernelProgram &P) {
         for (vm::TaskProgram &Task : P.Tasks)
           for (const vm::Instruction &I : Task.Code)
             if (I.Op == vm::OpCode::LogSumExpN) {
               Task.Args[I.C] = kFar;
               return;
             }
         ADD_FAILURE() << "program has no LogSumExpN";
       }},
      // A LogSumExpGroup: B children, C destinations, then C * B weight
      // slots from Args[A].
      {Source::RatSpnO2, "child count 0",
       [&](vm::KernelProgram &P) {
         firstOf(P, {vm::OpCode::LogSumExpGroup}).B = 0;
       }},
      {Source::RatSpnO2, "child count 9",
       [&](vm::KernelProgram &P) {
         firstOf(P, {vm::OpCode::LogSumExpGroup}).B = vm::kMaxNaryArgs + 1;
       }},
      {Source::RatSpnO2, "destination 1: register 1048576",
       [&](vm::KernelProgram &P) {
         for (vm::TaskProgram &Task : P.Tasks)
           for (const vm::Instruction &I : Task.Code)
             if (I.Op == vm::OpCode::LogSumExpGroup) {
               Task.Args[I.A + I.B + 1] = kFar;
               return;
             }
         ADD_FAILURE() << "program has no LogSumExpGroup";
       }},
      {Source::RatSpnO2, "weight 1: weight slot 1048576",
       [&](vm::KernelProgram &P) {
         for (vm::TaskProgram &Task : P.Tasks)
           for (const vm::Instruction &I : Task.Code)
             if (I.Op == vm::OpCode::LogSumExpGroup) {
               Task.Args[I.A + I.B + I.C + 1] = kFar;
               return;
             }
         ADD_FAILURE() << "program has no LogSumExpGroup";
       }},
      {Source::RatSpnO2, "arg range end",
       [&](vm::KernelProgram &P) {
         firstOf(P, {vm::OpCode::LogSumExpGroup}).A = kFar;
       }},
      // Engines allocate a task's register file and an intermediate
      // buffer's columns as the program states them.
      {Source::Speaker, "register count 4294967280",
       [&](vm::KernelProgram &P) { Task0(P).NumRegisters = 0xFFFFFFF0u; }},
      {Source::SpeakerPartitioned, "column count 2147483647",
       [](vm::KernelProgram &P) {
         for (vm::BufferInfo &Buffer : P.Buffers)
           if (Buffer.Role == vm::BufferInfo::Kind::Intermediate) {
             Buffer.Columns = 0x7FFFFFFFu;
             return;
           }
         ADD_FAILURE() << "program has no intermediate buffer";
       }},
      {Source::Speaker, "buffer 1048576",
       [&](vm::KernelProgram &P) { Task0(P).Loads.front().Buffer = kFar; }},
      {Source::Speaker, "role 9",
       [](vm::KernelProgram &P) {
         P.Buffers.back().Role = static_cast<vm::BufferInfo::Kind>(9);
       }},
      {Source::Speaker, "task 77",
       [](vm::KernelProgram &P) { P.Steps.front().Task = 77; }},
      {Source::Speaker, "copy source 1048576",
       [&](vm::KernelProgram &P) {
         P.Steps.front() = vm::KernelStep{-1, static_cast<int32_t>(kFar), 0};
       }},
      {Source::Mpe, "child",
       [](vm::KernelProgram &P) {
         // The root's first child becomes the root itself: a cycle.
         P.Plan.Nodes[P.Plan.Root].A = P.Plan.Root;
       }},
      {Source::Mpe, "root",
       [](vm::KernelProgram &P) {
         P.Plan.Root = static_cast<int32_t>(P.Plan.Nodes.size());
       }},
      {Source::Merged, "parameter",
       [&](vm::KernelProgram &P) {
         Task0(P).ParamSites.front().Param = P.NumParams;
       }},
      {Source::Merged, "slot index 1048576",
       [&](vm::KernelProgram &P) {
         Task0(P).ParamSites.front().Index = kFar;
       }},
      // The enum bytes: each one past its enum's last value.
      {Source::Speaker, "invalid lowering kind",
       [](vm::KernelProgram &P) {
         P.Lowering = static_cast<vm::LoweringKind>(3);
       }},
      {Source::Speaker, "invalid query kind",
       [](vm::KernelProgram &P) {
         P.Query = spn::QueryKind{4};
       }},
      {Source::Mpe, "invalid plan node kind",
       [](vm::KernelProgram &P) {
         P.Plan.Nodes.front().Kind = static_cast<vm::PlanNodeKind>(5);
       }},
      {Source::Merged, "invalid parameter-site kind",
       [&](vm::KernelProgram &P) {
         Task0(P).ParamSites.front().Kind = static_cast<vm::ParamSlotKind>(9);
       }},
      {Source::Merged, "invalid parameter transform",
       [&](vm::KernelProgram &P) {
         Task0(P).ParamSites.front().Transform =
             static_cast<vm::ParamTransform>(9);
       }},
  };
  for (size_t C = 0; C < std::size(Cases); ++C) {
    const Tamper &T = Cases[C];
    SCOPED_TRACE(T.Field);
    std::filesystem::path Dir = TempDir / ("tamper-" + std::to_string(C));
    {
      KernelCache Cache(Dir.string());
      ASSERT_TRUE(static_cast<bool>(compile(Cache, T.From)));
    }
    std::string Path = onlyEntry(Dir);
    Expected<vm::KernelProgram> Program = vm::decodeProgram(readFile(Path));
    ASSERT_TRUE(static_cast<bool>(Program));
    T.Apply(*Program);
    // encodeProgram reseals: the checksum matches the tampered payload,
    // so only the index checks can catch it.
    std::vector<uint8_t> Blob = vm::encodeProgram(*Program);
    writeFile(Path, Blob);
    Expected<vm::KernelProgram> Decoded = vm::decodeProgram(Blob);
    ASSERT_FALSE(static_cast<bool>(Decoded));
    EXPECT_NE(Decoded.getError().message().find(T.Field), std::string::npos)
        << Decoded.getError().message();

    KernelCache Fresh(Dir.string());
    ASSERT_TRUE(static_cast<bool>(compile(Fresh, T.From)));
    KernelCache::Stats Stats = Fresh.getStats();
    EXPECT_EQ(Stats.CorruptedDiskEntries, 1u);
    EXPECT_EQ(Stats.Recompiles, 1u);
    EXPECT_EQ(Stats.DiskHits, 0u);
    EXPECT_TRUE(static_cast<bool>(vm::decodeProgram(readFile(Path))))
        << "the recompiled entry was not rewritten";
  }
}

TEST_F(KernelCacheTest, TamperedKernelFileFailsToLoad) {
  // A const pointed at pool slot 2^30 and resealed used to load and then
  // read far out of bounds in the interpreter.
  Expected<CompiledKernel> Kernel =
      compileModel(*Model, spn::QueryConfig(), CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Kernel));
  vm::KernelProgram Program = Kernel->getProgram();
  firstOf(Program, {vm::OpCode::Const}).A = 1u << 30;
  std::filesystem::create_directories(TempDir);
  std::string Path = (TempDir / "tampered.spnk").string();
  writeFile(Path, vm::encodeProgram(Program));
  Expected<CompiledKernel> Loaded = loadCompiledKernel(Path);
  ASSERT_FALSE(static_cast<bool>(Loaded));
  EXPECT_NE(Loaded.getError().message().find("const-pool index"),
            std::string::npos)
      << Loaded.getError().message();
}

//===----------------------------------------------------------------------===//
// Decoder mutations: seeded damage to resealed blobs
//===----------------------------------------------------------------------===//

/// Rows a decoded mutant runs: one full and one padded W=8 block.
constexpr size_t kMutantRows = 9;

/// A compiled program the mutations start from, and rows to run it on.
struct MutationSource {
  const char *Name;
  vm::KernelProgram Program;
  std::vector<double> Input;
};

/// The speaker kernel at -O2, `ratspn_tiny` (spnc-modelgen) at -O2 with
/// partition 80, whose tasks hold LogSumExpGroups, an MPE program with
/// its traceback plan, and a marginal GPU program of select cascades
/// and NaN blends.
std::vector<MutationSource> mutationSources() {
  workloads::SpeakerModelOptions Speaker;
  Speaker.TargetOperations = 300;
  Speaker.Seed = 31;
  spn::Model SpeakerModel = workloads::generateSpeakerModel(Speaker);
  workloads::RatSpnOptions Rat = workloads::ratSpnSmallScale();
  Rat.NumFeatures = 64;
  Rat.Depth = 3;
  Rat.Replicas = 2;
  Rat.SumsPerRegion = 4;
  Rat.LeafDistributions = 8;
  spn::Model RatSpn = workloads::generateRatSpn(Rat, 0);

  std::vector<double> Clean =
      workloads::generateSpeechData(Speaker, kMutantRows, 5);
  std::vector<double> Noisy = Clean;
  for (size_t I = 0; I < Noisy.size(); I += 3)
    Noisy[I] = std::nan("");
  std::vector<double> Images = workloads::generateImageData(
      Rat.NumFeatures, 1, kMutantRows, 5, nullptr);

  auto Compile = [](const spn::Model &Model, CompilerOptions Options,
                    spn::QueryKind Kind) {
    spn::QueryConfig Query;
    Query.Kind = Kind;
    Expected<CompilationPipeline> Pipeline =
        CompilationPipeline::create(Options);
    EXPECT_TRUE(static_cast<bool>(Pipeline));
    Expected<vm::KernelProgram> Program = Pipeline->compile(Model, Query);
    EXPECT_TRUE(static_cast<bool>(Program));
    return Program.takeValue();
  };
  CompilerOptions O2;
  O2.OptLevel = 2;
  CompilerOptions Partitioned = O2;
  Partitioned.MaxPartitionSize = 80;
  CompilerOptions Gpu;
  Gpu.TheTarget = Target::GPU;
  std::vector<MutationSource> Sources;
  Sources.push_back({"speaker -O2",
                     Compile(SpeakerModel, O2, spn::QueryKind::Joint), Clean});
  Sources.push_back(
      {"ratspn_tiny partition 80",
       Compile(RatSpn, Partitioned, spn::QueryKind::Joint), Images});
  Sources.push_back({"speaker MPE",
                     Compile(SpeakerModel, CompilerOptions(),
                             spn::QueryKind::Mpe),
                     Noisy});
  Sources.push_back({"speaker GPU marginal",
                     Compile(SpeakerModel, Gpu, spn::QueryKind::Marginal),
                     Noisy});
  return Sources;
}

/// The fields of \p P a decoder reads as a count, an index, a register
/// or an enum: its u32 fields (the signed ones through their bits) and
/// its enum bytes.
struct ProgramFields {
  std::vector<uint32_t *> Words;
  std::vector<uint8_t *> Bytes;
};

ProgramFields fieldsOf(vm::KernelProgram &P) {
  ProgramFields F;
  auto Word = [&](auto &Field) {
    static_assert(sizeof(Field) == sizeof(uint32_t));
    F.Words.push_back(reinterpret_cast<uint32_t *>(&Field));
  };
  auto Byte = [&](auto &Field) {
    static_assert(sizeof(Field) == sizeof(uint8_t));
    F.Bytes.push_back(reinterpret_cast<uint8_t *>(&Field));
  };
  Byte(P.Lowering);
  Byte(P.Query);
  for (vm::PlanNode &N : P.Plan.Nodes) {
    Byte(N.Kind);
    for (auto *Field : {&N.A, &N.B})
      Word(*Field);
    for (auto *Field :
         {&N.RegA, &N.RegB, &N.Feature, &N.TableBegin, &N.TableCount})
      Word(*Field);
  }
  Word(P.Plan.Root);
  for (auto *Field : {&P.NumParams, &P.BatchSize, &P.NumInputs,
                      &P.NumOutputs})
    Word(*Field);
  for (vm::BufferInfo &B : P.Buffers) {
    Byte(B.Role);
    Word(B.Columns);
  }
  for (vm::KernelStep &S : P.Steps)
    for (auto *Field : {&S.Task, &S.CopySrc, &S.CopyDst})
      Word(*Field);
  for (vm::TaskProgram &T : P.Tasks) {
    Word(T.NumRegisters);
    for (vm::Instruction &I : T.Code) {
      Byte(I.Op);
      for (auto *Field : {&I.Dst, &I.A, &I.B, &I.C})
        Word(*Field);
    }
    for (std::vector<vm::BufferAccess> *Accesses : {&T.Loads, &T.Stores})
      for (vm::BufferAccess &A : *Accesses)
        for (auto *Field : {&A.Buffer, &A.Index})
          Word(*Field);
    for (uint32_t &Arg : T.Args)
      Word(Arg);
    for (vm::ParamSite &S : T.ParamSites) {
      Byte(S.Kind);
      Byte(S.Transform);
      for (auto *Field : {&S.Index, &S.Slot, &S.Count, &S.Param})
        Word(*Field);
    }
  }
  return F;
}

/// A seeded edge value for a u32 field that holds \p Old.
uint32_t edgeValue(uint32_t Old, Rng &R) {
  const uint32_t Values[] = {0u,
                             1u,
                             2u,
                             8u,
                             9u,
                             16u,
                             255u,
                             0x7FFFFFFFu,
                             0x80000000u,
                             0xFFFFFFF0u,
                             0xFFFFFFFFu,
                             Old + 1,
                             Old - 1,
                             Old * 2,
                             Old ^ (1u << R.uniformInt(32)),
                             static_cast<uint32_t>(R.next())};
  return Values[R.uniformInt(std::size(Values))];
}

/// One seeded mutant of \p Program, resealed: one to three mutations,
/// each a whole u32 field set to an edge value, an enum byte set to a
/// value up to 16, or a payload byte of the encoded blob XORed with a
/// nonzero mask (which also reaches the counts, lengths and doubles).
std::vector<uint8_t> mutant(const vm::KernelProgram &Program, Rng &R) {
  vm::KernelProgram P = Program;
  ProgramFields Fields = fieldsOf(P);
  unsigned ByteFlips = 0;
  for (uint64_t K = 1 + R.uniformInt(3); K > 0; --K) {
    switch (R.uniformInt(3)) {
    case 0: {
      uint32_t *Word = Fields.Words[R.uniformInt(Fields.Words.size())];
      *Word = edgeValue(*Word, R);
      break;
    }
    case 1:
      *Fields.Bytes[R.uniformInt(Fields.Bytes.size())] =
          static_cast<uint8_t>(R.uniformInt(17));
      break;
    default:
      ++ByteFlips;
    }
  }
  std::vector<uint8_t> Blob = vm::encodeProgram(P);
  for (; ByteFlips > 0; --ByteFlips)
    Blob[16 + R.uniformInt(Blob.size() - 16)] ^=
        static_cast<uint8_t>(1 + R.uniformInt(255));
  uint64_t Checksum = xxh64(Blob.data() + 16, Blob.size() - 16);
  std::memcpy(Blob.data() + 8, &Checksum, sizeof(Checksum));
  return Blob;
}

/// True when \p A and \p B have the same buffer roles and columns: the
/// rows and the output room sized for one fit the other.
bool sameBuffers(const vm::KernelProgram &A, const vm::KernelProgram &B) {
  if (A.Buffers.size() != B.Buffers.size())
    return false;
  for (size_t I = 0; I < A.Buffers.size(); ++I)
    if (A.Buffers[I].Role != B.Buffers[I].Role ||
        A.Buffers[I].Columns != B.Buffers[I].Columns)
      return false;
  return true;
}

/// Runs \p Program over \p Input on the CPU engine at W=8, as a request
/// of the program's own query kind; false when the engine refuses it.
bool serves(vm::KernelProgram Program, const std::vector<double> &Input) {
  size_t Columns = 1;
  for (const vm::BufferInfo &Buffer : Program.Buffers)
    if (Buffer.Role == vm::BufferInfo::Kind::Output)
      Columns = Buffer.Columns;
  std::vector<double> Output(Columns * kMutantRows), Rows(Input.size());
  RunRequest Request;
  Request.Kind = Program.Query;
  Request.Input = Input.data();
  Request.Output = Output.data();
  Request.Rows = Rows.data();
  Request.NumSamples = kMutantRows;
  Request.Seed = 7;
  vm::ExecutionConfig Config;
  Config.VectorWidth = 8;
  return vm::CpuExecutor(std::move(Program), Config).run(Request);
}

TEST(DecoderMutationTest, SeededMutantsFailOrServe) {
  // Each mutant, resealed, either fails to decode with a message, has
  // other buffer roles or columns than its original (the rows do not
  // fit it), or serves a request; run under ASan/UBSan, serving also
  // means reading and writing only what the program owns.
  constexpr size_t kMutantsPerSource = 1500;
  Rng R(29);
  for (const MutationSource &Source : mutationSources()) {
    SCOPED_TRACE(Source.Name);
    ASSERT_TRUE(static_cast<bool>(
        vm::decodeProgram(vm::encodeProgram(Source.Program))));
    ASSERT_TRUE(serves(Source.Program, Source.Input));
    size_t Failed = 0, Served = 0;
    for (size_t M = 0; M < kMutantsPerSource; ++M) {
      Expected<vm::KernelProgram> Decoded =
          vm::decodeProgram(mutant(Source.Program, R));
      if (!Decoded) {
        EXPECT_FALSE(Decoded.getError().message().empty());
        ++Failed;
        continue;
      }
      if (!sameBuffers(*Decoded, Source.Program))
        continue;
      EXPECT_TRUE(serves(Decoded.takeValue(), Source.Input))
          << "mutant " << M;
      ++Served;
    }
    EXPECT_GT(Failed, 0u);
    EXPECT_GT(Served, 0u);
  }
}

TEST(DecoderMutationTest, TracebackKindWithoutPlanIsRejected) {
  // Found by the mutations above (seed 2, a marginal GPU program whose
  // query byte became MPE): the program decoded, and every engine then
  // refused every request, since MPE and sampling complete rows through
  // a traceback plan the program does not carry.
  std::vector<MutationSource> Sources = mutationSources();
  const MutationSource &Gpu = Sources.back();
  for (spn::QueryKind Kind : {spn::QueryKind::Mpe, spn::QueryKind::Sample}) {
    vm::KernelProgram Program = Gpu.Program;
    Program.Query = Kind;
    Expected<vm::KernelProgram> Decoded =
        vm::decodeProgram(vm::encodeProgram(Program));
    ASSERT_FALSE(static_cast<bool>(Decoded)) << spn::queryKindName(Kind);
    EXPECT_NE(Decoded.getError().message().find(
                  "programs need a traceback plan"),
              std::string::npos)
        << Decoded.getError().message();
  }
}

TEST(DecoderMutationTest, NaryWithoutOperandsIsRejected) {
  // Found by the mutations above under UBSan (another seed: an opcode
  // byte of the GPU marginal program, whose task lists no Args, became
  // AddN with B = 0): the program decoded, and the VM then addressed
  // Args at an operand that does not exist.
  std::vector<MutationSource> Sources = mutationSources();
  const MutationSource &Gpu = Sources.back();
  ASSERT_TRUE(Gpu.Program.Tasks[0].Args.empty());
  for (vm::OpCode Op :
       {vm::OpCode::AddN, vm::OpCode::MulN, vm::OpCode::LogSumExpN}) {
    vm::KernelProgram Program = Gpu.Program;
    vm::Instruction &I = Program.Tasks[0].Code[0];
    I = {Op, I.Dst, 0, 0, 0};
    Expected<vm::KernelProgram> Decoded =
        vm::decodeProgram(vm::encodeProgram(Program));
    ASSERT_FALSE(static_cast<bool>(Decoded)) << static_cast<int>(Op);
    EXPECT_NE(Decoded.getError().message().find(
                  "instruction 0: n-ary instruction of no operand"),
              std::string::npos)
        << Decoded.getError().message();
  }
}

TEST_F(KernelCacheTest, BaselineEnginesReportAccounting) {
  // The separate accounting path: baseline adapters have no compiled
  // program but still report per-sample work, so harnesses need no
  // special case.
  baselines::InterpreterEngine Interp(*Model);
  EngineAccounting InterpAccounting = Interp.getAccounting();
  EXPECT_FALSE(InterpAccounting.Compiled);
  EXPECT_EQ(InterpAccounting.NumInstructions,
            Model->computeStats().NumNodes);
  EXPECT_EQ(InterpAccounting.NumTasks, 1u);

  // Compiled engines derive the counts from their program.
  Expected<CompiledKernel> Kernel =
      compileModel(*Model, spn::QueryConfig(), CompilerOptions());
  ASSERT_TRUE(static_cast<bool>(Kernel));
  EngineAccounting Compiled = Kernel->getEngine().getAccounting();
  EXPECT_TRUE(Compiled.Compiled);
  EXPECT_GT(Compiled.NumInstructions, 0u);
  EXPECT_EQ(Compiled.NumTasks, Kernel->getProgram().Tasks.size());
}

TEST_F(KernelCacheTest, ClearDropsEnginesButKeepsDisk) {
  KernelCache Cache(TempDir.string());
  CompilerOptions Options;
  ASSERT_TRUE(static_cast<bool>(
      Cache.getOrCompile(*Model, spn::QueryConfig(), Options)));
  ASSERT_EQ(Cache.size(), 1u);

  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);

  // The next request misses in memory but recovers from disk.
  ASSERT_TRUE(static_cast<bool>(
      Cache.getOrCompile(*Model, spn::QueryConfig(), Options)));
  KernelCache::Stats CacheStats = Cache.getStats();
  EXPECT_EQ(CacheStats.DiskHits, 1u);
  EXPECT_EQ(CacheStats.Recompiles, 1u);
}

TEST_F(KernelCacheTest, DiagnosticHooksShareOneEntry) {
  // Diagnostics never change the compiled program, so caches that
  // switch different ones on share one disk entry, and makeKey predicts
  // its path whatever the hook — the contract external tooling relies
  // on to prewarm cache directories.
  CompilerOptions Options;
  std::function<std::optional<Error>(CompilationPipeline &)> Hooks[] = {
      nullptr,
      [](CompilationPipeline &P) { return P.enableStageReport(); },
      [](CompilationPipeline &P) { return P.enableVerifyAfterEachStage(); }};
  uint64_t Recompiles = 0, DiskHits = 0;
  for (const auto &Hook : Hooks) {
    KernelCache::Config Config;
    Config.Directory = TempDir.string();
    Config.ConfigurePipeline = Hook;
    KernelCache Cache(Config);
    ASSERT_TRUE(static_cast<bool>(
        Cache.getOrCompile(*Model, spn::QueryConfig(), Options)));
    Recompiles += Cache.getStats().Recompiles;
    DiskHits += Cache.getStats().DiskHits;
  }
  EXPECT_EQ(Recompiles, 1u);
  EXPECT_EQ(DiskHits, 2u);

  std::vector<std::filesystem::path> Entries;
  for (const auto &Entry : std::filesystem::directory_iterator(TempDir))
    if (Entry.path().extension() == ".spnk")
      Entries.push_back(Entry.path());
  ASSERT_EQ(Entries.size(), 1u);
  KernelCache Probe(TempDir.string());
  EXPECT_EQ(Entries[0], std::filesystem::path(Probe.entryPath(
                            keyFor(*Model, spn::QueryConfig(), Options))));
}

} // namespace
