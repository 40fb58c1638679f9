//===- gpusim_test.cpp - GPU simulator tests ------------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "frontend/Serializer.h"
#include "gpusim/GpuSimulator.h"
#include "runtime/Compiler.h"
#include "runtime/KernelCache.h"
#include "support/Casting.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <thread>

using namespace spnc;
using namespace spnc::gpusim;
using namespace spnc::runtime;

namespace {

//===----------------------------------------------------------------------===//
// Occupancy model
//===----------------------------------------------------------------------===//

TEST(OccupancyTest, FullOccupancyForLightKernels) {
  GpuDeviceConfig Config;
  // A tiny kernel fills the SM regardless of block size.
  EXPECT_DOUBLE_EQ(computeOccupancy(Config, 64, 8), 1.0);
  EXPECT_DOUBLE_EQ(computeOccupancy(Config, 1024, 8), 1.0);
}

TEST(OccupancyTest, RegisterPressureQuantizesLargeBlocks) {
  GpuDeviceConfig Config;
  // 80 registers/thread: 819 register-limited threads per SM. Blocks of
  // 64 pack 12 blocks = 768 threads; blocks of 512 fit none (spill
  // regime) and blocks of 256 fit 3 = 768.
  double Small = computeOccupancy(Config, 64, 80);
  double Large = computeOccupancy(Config, 512, 80);
  EXPECT_GT(Small, 0.7);
  EXPECT_LE(Large, Small);
}

TEST(OccupancyTest, TinyBlocksHitBlockLimit) {
  GpuDeviceConfig Config;
  // Blocks of 16: at most MaxBlocksPerSM blocks = 256 threads resident.
  EXPECT_DOUBLE_EQ(computeOccupancy(Config, 16, 8),
                   16.0 * 16.0 / 1024.0);
}

TEST(OccupancyTest, SpillSlowdown) {
  GpuDeviceConfig Config;
  EXPECT_DOUBLE_EQ(computeSpillSlowdown(Config, 64, 80), 1.0);
  // 1024 threads x 80 regs = 81920 > 65536: block-level spill regime.
  EXPECT_GT(computeSpillSlowdown(Config, 1024, 80), 1.0);
  // Per-thread register demand beyond the architectural cap (255) adds a
  // gentle, bounded penalty on top of the block-level one.
  EXPECT_GT(computeSpillSlowdown(Config, 64, 10000),
            computeSpillSlowdown(Config, 64, 255));
  EXPECT_LE(computeSpillSlowdown(Config, 64, 1u << 30), 2.5);
  EXPECT_LE(computeSpillSlowdown(Config, 1024, 1u << 30), 4.0 * 2.5);
}

//===----------------------------------------------------------------------===//
// Execution statistics
//===----------------------------------------------------------------------===//

class GpuStatsTest : public ::testing::Test {
protected:
  void SetUp() override {
    workloads::SpeakerModelOptions Options;
    Options.TargetOperations = 400;
    Options.Seed = 31;
    Model = std::make_unique<spn::Model>(
        workloads::generateSpeakerModel(Options));
    Data = workloads::generateSpeechData(Options, kNumSamples, 2);
  }

  GpuExecutionStats run(const CompilerOptions &Options) {
    Expected<CompiledKernel> Kernel =
        compileModel(*Model, spn::QueryConfig(), Options);
    EXPECT_TRUE(static_cast<bool>(Kernel));
    std::vector<double> Output(kNumSamples);
    runtime::ExecutionStats Stats;
    Kernel->execute(Data.data(), Output.data(), kNumSamples, &Stats);
    EXPECT_TRUE(Stats.HasGpuStats);
    return Stats.Gpu;
  }

  /// The model compiled for the GPU: a one-input, one-output program,
  /// the kind a GpuExecutor runs.
  vm::KernelProgram gpuProgram() {
    CompilerOptions Options;
    Options.TheTarget = Target::GPU;
    Expected<CompiledKernel> Kernel =
        compileModel(*Model, spn::QueryConfig(), Options);
    EXPECT_TRUE(static_cast<bool>(Kernel));
    return Kernel ? Kernel->getProgram() : vm::KernelProgram();
  }

  static constexpr size_t kNumSamples = 2048;
  std::unique_ptr<spn::Model> Model;
  std::vector<double> Data;
};

TEST_F(GpuStatsTest, AccountsTransfersAndLaunches) {
  CompilerOptions Options;
  Options.TheTarget = Target::GPU;
  GpuExecutionStats Stats = run(Options);
  EXPECT_GT(Stats.ComputeNs, 0u);
  EXPECT_GT(Stats.TransferNs, 0u);
  EXPECT_EQ(Stats.NumLaunches, 1u); // single task, one launch
  EXPECT_EQ(Stats.NumTransfers, 2u); // input up, output down
  // f32 compute: 26 features + 1 output value per sample.
  EXPECT_EQ(Stats.BytesHostToDevice, kNumSamples * 26 * sizeof(float));
  EXPECT_EQ(Stats.BytesDeviceToHost, kNumSamples * sizeof(float));
  EXPECT_EQ(Stats.totalNs(),
            Stats.ComputeNs + Stats.TransferNs + Stats.LaunchNs);
}

TEST_F(GpuStatsTest, TransferEliminationRemovesIntermediateTraffic) {
  CompilerOptions With;
  With.TheTarget = Target::GPU;
  With.MaxPartitionSize = 60;
  CompilerOptions Without = With;
  Without.GpuTransferElimination = false;

  GpuExecutionStats StatsWith = run(With);
  GpuExecutionStats StatsWithout = run(Without);

  // Same number of launches (same tasks), but many more transfers and
  // bytes without the elimination pass (paper §IV-C).
  EXPECT_EQ(StatsWith.NumLaunches, StatsWithout.NumLaunches);
  EXPECT_GT(StatsWithout.NumTransfers, StatsWith.NumTransfers);
  EXPECT_GT(StatsWithout.BytesDeviceToHost, StatsWith.BytesDeviceToHost);
  EXPECT_GT(StatsWithout.BytesHostToDevice, StatsWith.BytesHostToDevice);
  EXPECT_GT(StatsWithout.TransferNs, StatsWith.TransferNs);
}

TEST_F(GpuStatsTest, PartitionedKernelLaunchesPerTask) {
  CompilerOptions Options;
  Options.TheTarget = Target::GPU;
  Options.MaxPartitionSize = 60;
  Expected<CompiledKernel> Kernel =
      compileModel(*Model, spn::QueryConfig(), Options);
  ASSERT_TRUE(static_cast<bool>(Kernel));
  std::vector<double> Output(kNumSamples);
  runtime::ExecutionStats ExecStats;
  Kernel->execute(Data.data(), Output.data(), kNumSamples, &ExecStats);
  GpuExecutionStats Stats = ExecStats.Gpu;
  EXPECT_EQ(Stats.NumLaunches, Kernel->getProgram().Tasks.size());
  EXPECT_GT(Stats.NumLaunches, 1u);
}

TEST_F(GpuStatsTest, MixedTableBatchLaunchesOncePerTask) {
  // A sibling of the model with shifted Gaussians shares its kernel
  // under a second weight table.
  spn::Model Sibling =
      spn::deserializeModel(spn::serializeModel(*Model)).takeValue();
  for (size_t I = 0; I < Sibling.getNumNodes(); ++I)
    if (auto *Gauss = dyn_cast<spn::GaussianLeaf>(
            Sibling.getNode(static_cast<unsigned>(I))))
      Gauss->setParameters(Gauss->getMean() + 0.25,
                           Gauss->getStdDev() * 1.1);
  CompilerOptions Options;
  Options.TheTarget = Target::GPU;
  Options.MaxPartitionSize = 60;
  KernelCache Cache;
  Expected<CompiledKernel> A =
      Cache.getOrCompile(*Model, spn::QueryConfig(), Options);
  Expected<CompiledKernel> B =
      Cache.getOrCompile(Sibling, spn::QueryConfig(), Options);
  ASSERT_TRUE(A && B);
  const ExecutionEngine &Engine = A->getEngine();
  ASSERT_EQ(&Engine, &B->getEngine());
  auto TableA = static_cast<uint32_t>(A->getTableIndex());
  auto TableB = static_cast<uint32_t>(B->getTableIndex());
  ASSERT_NE(TableA, TableB);

  std::vector<uint32_t> Tables(kNumSamples);
  for (size_t I = 0; I < kNumSamples; ++I)
    Tables[I] = I % 3 == 2 ? TableB : TableA;
  auto Run = [&](const uint32_t *Indices, int32_t Table,
                 GpuExecutionStats &Stats) {
    std::vector<double> Out(kNumSamples);
    runtime::ExecutionStats ExecStats;
    EXPECT_TRUE(Engine.run({.Input = Data.data(),
                            .Output = Out.data(),
                            .NumSamples = kNumSamples,
                            .TableIndices = Indices,
                            .Table = Table},
                           &ExecStats));
    Stats = ExecStats.Gpu;
    return Out;
  };
  GpuExecutionStats Mixed, UnderA, UnderB;
  std::vector<double> Got = Run(Tables.data(), -1, Mixed);
  std::vector<double> WantA = Run(nullptr, A->getTableIndex(), UnderA);
  std::vector<double> WantB = Run(nullptr, B->getTableIndex(), UnderB);

  EXPECT_GT(Mixed.NumLaunches, 1u);
  EXPECT_EQ(Mixed.NumLaunches, UnderA.NumLaunches);
  EXPECT_EQ(Mixed.NumLaunches, A->getProgram().Tasks.size());
  EXPECT_EQ(Mixed.NumTransfers, UnderA.NumTransfers);
  EXPECT_EQ(Mixed.BytesHostToDevice, UnderA.BytesHostToDevice);
  for (size_t I = 0; I < kNumSamples; ++I) {
    const double &Alone = Tables[I] == TableB ? WantB[I] : WantA[I];
    EXPECT_EQ(0, std::memcmp(&Got[I], &Alone, sizeof(double)))
        << "row " << I;
  }
}

/// Device-parameter sweep: correctness is configuration-invariant and
/// the simulated clock responds monotonically to the throughput knobs.
class DeviceConfigTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(DeviceConfigTest, ResultsInvariantTimesResponsive) {
  auto [PeakSpeedup, BandwidthGBs] = GetParam();
  workloads::SpeakerModelOptions Options;
  Options.TargetOperations = 300;
  Options.Seed = 12;
  spn::Model Model = workloads::generateSpeakerModel(Options);
  std::vector<double> Data =
      workloads::generateSpeechData(Options, 512, 3);

  CompilerOptions Reference;
  Expected<CompiledKernel> CpuKernel =
      compileModel(Model, spn::QueryConfig(), Reference);
  ASSERT_TRUE(static_cast<bool>(CpuKernel));
  std::vector<double> ExpectedOut(512);
  CpuKernel->execute(Data.data(), ExpectedOut.data(), 512);

  CompilerOptions Gpu;
  Gpu.TheTarget = Target::GPU;
  Gpu.Device.PeakSpeedup = PeakSpeedup;
  Gpu.Device.PcieBandwidthGBs = BandwidthGBs;
  Expected<CompiledKernel> GpuKernel =
      compileModel(Model, spn::QueryConfig(), Gpu);
  ASSERT_TRUE(static_cast<bool>(GpuKernel));
  std::vector<double> Actual(512);
  // The simulated compute clock scales a host-timed run, and host noise
  // only ever adds time: keep the fastest of five runs.
  auto FastestRun = [&](const CompiledKernel &Kernel) {
    gpusim::GpuExecutionStats Best;
    for (int Run = 0; Run < 5; ++Run) {
      runtime::ExecutionStats Exec;
      Kernel.execute(Data.data(), Actual.data(), 512, &Exec);
      if (Run == 0 || Exec.Gpu.ComputeNs < Best.ComputeNs)
        Best = Exec.Gpu;
    }
    return Best;
  };
  gpusim::GpuExecutionStats Fast = FastestRun(*GpuKernel);
  for (size_t S = 0; S < 512; ++S)
    EXPECT_NEAR(Actual[S], ExpectedOut[S],
                std::abs(ExpectedOut[S]) * 1e-4 + 1e-4);

  // A faster device must not report a slower compute clock: compare
  // against a 2x-derated configuration.
  CompilerOptions Slow = Gpu;
  Slow.Device.PeakSpeedup = PeakSpeedup / 2;
  Slow.Device.PcieBandwidthGBs = BandwidthGBs / 2;
  Expected<CompiledKernel> SlowKernel =
      compileModel(Model, spn::QueryConfig(), Slow);
  ASSERT_TRUE(static_cast<bool>(SlowKernel));
  gpusim::GpuExecutionStats SlowStats = FastestRun(*SlowKernel);
  EXPECT_GT(SlowStats.TransferNs, Fast.TransferNs);
  // Compute is measured on a shared host core, so allow scheduling
  // noise around the modelled 2x.
  EXPECT_GT(static_cast<double>(SlowStats.ComputeNs),
            0.8 * static_cast<double>(Fast.ComputeNs));
}

INSTANTIATE_TEST_SUITE_P(
    Devices, DeviceConfigTest,
    ::testing::Combine(::testing::Values(2.0, 8.0, 64.0),
                       ::testing::Values(0.001, 0.01, 1.0)));

TEST_F(GpuStatsTest, TransferDominatedForSmallModels) {
  // The Fig. 9 relation: for the speaker-scale models, data movement is
  // the majority of GPU execution time.
  CompilerOptions Options;
  Options.TheTarget = Target::GPU;
  Options.OptLevel = 2;
  Options.GpuBlockSize = 64;
  GpuExecutionStats Stats = run(Options);
  EXPECT_GT(Stats.transferFraction(), 0.5);
}

//===----------------------------------------------------------------------===//
// Block size selection
//===----------------------------------------------------------------------===//

class BlockSizeTest : public GpuStatsTest {
protected:
  /// Compiles for the GPU and returns the executor's effective block
  /// size.
  unsigned blockSizeFor(unsigned Requested,
                        GpuDeviceConfig Device = {}) {
    CompilerOptions Options;
    Options.TheTarget = Target::GPU;
    Options.GpuBlockSize = Requested;
    Options.Device = Device;
    Expected<CompiledKernel> Kernel =
        compileModel(*Model, spn::QueryConfig(), Options);
    EXPECT_TRUE(static_cast<bool>(Kernel));
    const auto *Executor =
        dynamic_cast<const GpuExecutor *>(&Kernel->getEngine());
    EXPECT_NE(Executor, nullptr);
    return Executor ? Executor->getBlockSize() : 0;
  }
};

TEST_F(BlockSizeTest, UnsetDefaultsToOccupancyOptimal64) {
  // An unset block size must choose the occupancy-optimal default, NOT
  // the query batch size: batches routinely exceed the per-block
  // register budget (paper §V-A1's sweep puts the optimum at small
  // blocks for register-heavy SPN kernels).
  EXPECT_EQ(GpuExecutor::kDefaultBlockSize, 64u);
  EXPECT_EQ(blockSizeFor(0), 64u);
}

TEST_F(BlockSizeTest, DefaultIndependentOfBatchSize) {
  CompilerOptions Options;
  Options.TheTarget = Target::GPU;
  Expected<CompiledKernel> Kernel =
      compileModel(*Model, spn::QueryConfig(), Options);
  ASSERT_TRUE(static_cast<bool>(Kernel));
  const auto *Executor =
      dynamic_cast<const GpuExecutor *>(&Kernel->getEngine());
  ASSERT_NE(Executor, nullptr);
  // Execute with a batch far larger than the block: the block size is
  // fixed at construction and never tracks NumSamples.
  std::vector<double> Output(kNumSamples);
  Kernel->execute(Data.data(), Output.data(), kNumSamples);
  EXPECT_EQ(Executor->getBlockSize(), GpuExecutor::kDefaultBlockSize);
  EXPECT_NE(Executor->getBlockSize(), kNumSamples);
}

TEST_F(BlockSizeTest, ExplicitOverrideRespected) {
  EXPECT_EQ(blockSizeFor(128), 128u);
  EXPECT_EQ(blockSizeFor(32), 32u);
}

TEST_F(BlockSizeTest, ClampedToDeviceLimit) {
  GpuDeviceConfig Device;
  Device.MaxThreadsPerBlock = 256;
  // The default fits; an explicit size above the limit is clamped by
  // the executor (the pipeline rejects out-of-range requests earlier,
  // so exercise the executor directly too).
  EXPECT_EQ(blockSizeFor(0, Device), 64u);
  GpuExecutor Direct(gpuProgram(), Device, /*BlockSize=*/512);
  EXPECT_EQ(Direct.getBlockSize(), 256u);
}

TEST_F(BlockSizeTest, DirectConstructionDefaults) {
  GpuExecutor Defaulted(gpuProgram(), {}, /*BlockSize=*/0);
  EXPECT_EQ(Defaulted.getBlockSize(), GpuExecutor::kDefaultBlockSize);
  GpuExecutor Overridden(gpuProgram(), {}, /*BlockSize=*/96);
  EXPECT_EQ(Overridden.getBlockSize(), 96u);
}

//===----------------------------------------------------------------------===//
// Device validation
//===----------------------------------------------------------------------===//

/// The error PipelineConfig::create reports for a GPU target whose
/// default device \p Edit changed, or an empty string if it accepts it.
std::string deviceError(const std::function<void(GpuDeviceConfig &)> &Edit,
                        Target TheTarget = Target::GPU) {
  CompilerOptions Options;
  Options.TheTarget = TheTarget;
  Edit(Options.Device);
  Expected<PipelineConfig> Config = PipelineConfig::create(Options);
  return Config ? std::string() : Config.getError().message();
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Expects every value of \p Bad in \p Field to be rejected with a
/// message naming the field.
void expectRejected(const char *Field, double GpuDeviceConfig::*Member,
                    std::initializer_list<double> Bad) {
  for (double Value : Bad) {
    std::string Error =
        deviceError([&](GpuDeviceConfig &D) { D.*Member = Value; });
    EXPECT_NE(Error.find(Field), std::string::npos)
        << Field << " = " << Value << ": '" << Error << "'";
  }
}

TEST(DeviceValidationTest, DefaultsAndValidEditsPass) {
  EXPECT_EQ(deviceError([](GpuDeviceConfig &) {}), "");
  // Fixed costs may be zero.
  EXPECT_EQ(deviceError([](GpuDeviceConfig &D) {
              D.TransferLatencyUs = 0;
              D.KernelLaunchOverheadUs = 0;
              D.BlockScheduleOverheadNs = 0;
            }),
            "");
  // Only a GPU target simulates the device.
  EXPECT_EQ(deviceError([](GpuDeviceConfig &D) { D.NumSMs = 0; },
                        Target::CPU),
            "");
}

TEST(DeviceValidationTest, RejectsZeroNumSMs) {
  EXPECT_NE(deviceError([](GpuDeviceConfig &D) { D.NumSMs = 0; })
                .find("NumSMs"),
            std::string::npos);
}

TEST(DeviceValidationTest, RejectsZeroMaxThreadsPerSM) {
  EXPECT_NE(deviceError([](GpuDeviceConfig &D) { D.MaxThreadsPerSM = 0; })
                .find("MaxThreadsPerSM"),
            std::string::npos);
}

TEST(DeviceValidationTest, RejectsBadPeakSpeedup) {
  expectRejected("PeakSpeedup", &GpuDeviceConfig::PeakSpeedup,
                 {0.0, -1.0, kNaN, kInf});
}

TEST(DeviceValidationTest, RejectsBadPcieBandwidth) {
  expectRejected("PcieBandwidthGBs", &GpuDeviceConfig::PcieBandwidthGBs,
                 {0.0, -1.0, kNaN, kInf});
}

TEST(DeviceValidationTest, RejectsBadDeviceBandwidth) {
  expectRejected("DeviceBandwidthGBs", &GpuDeviceConfig::DeviceBandwidthGBs,
                 {0.0, -1.0, kNaN, kInf});
}

TEST(DeviceValidationTest, RejectsBadTransferLatency) {
  expectRejected("TransferLatencyUs", &GpuDeviceConfig::TransferLatencyUs,
                 {-1.0, kNaN, kInf});
}

TEST(DeviceValidationTest, RejectsBadKernelLaunchOverhead) {
  expectRejected("KernelLaunchOverheadUs",
                 &GpuDeviceConfig::KernelLaunchOverheadUs,
                 {-1.0, kNaN, kInf});
}

TEST(DeviceValidationTest, RejectsBadBlockScheduleOverhead) {
  expectRejected("BlockScheduleOverheadNs",
                 &GpuDeviceConfig::BlockScheduleOverheadNs,
                 {-1.0, kNaN, kInf});
}

//===----------------------------------------------------------------------===//
// Streams (simulated device contexts)
//===----------------------------------------------------------------------===//

class StreamTest : public GpuStatsTest {};

TEST_F(StreamTest, ZeroStreamsBehavesLikeOne) {
  GpuExecutor Defaulted(gpuProgram(), {}, /*BlockSize=*/0);
  EXPECT_EQ(Defaulted.getNumStreams(), 1u);
  GpuDeviceConfig Device;
  Device.NumStreams = 4;
  GpuExecutor FourStreams(gpuProgram(), Device, /*BlockSize=*/0);
  EXPECT_EQ(FourStreams.getNumStreams(), 4u);
  EXPECT_EQ(FourStreams.getStreamKernelCounts().size(), 4u);
}

TEST_F(StreamTest, ThreadAssignmentIsStickyAndRoundRobin) {
  GpuDeviceConfig Device;
  Device.NumStreams = 4;
  GpuExecutor Executor(gpuProgram(), Device, /*BlockSize=*/0);
  // Sticky: the calling thread keeps its stream across calls.
  unsigned Mine = Executor.streamForCallingThread();
  EXPECT_EQ(Executor.streamForCallingThread(), Mine);
  // Round-robin: 4 threads on a 4-stream device land on 4 distinct
  // streams.
  std::mutex Mutex;
  std::set<unsigned> Assigned;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 4; ++T)
    Threads.emplace_back([&] {
      unsigned Stream = Executor.streamForCallingThread();
      EXPECT_EQ(Executor.streamForCallingThread(), Stream); // sticky
      std::lock_guard<std::mutex> Lock(Mutex);
      Assigned.insert(Stream);
    });
  for (std::thread &Thread : Threads)
    Thread.join();
  // The main thread already took one stream, so the 4 workers wrap
  // around the pool; together they still cover every stream.
  Assigned.insert(Mine);
  EXPECT_EQ(Assigned.size(), 4u);
}

TEST_F(GpuStatsTest, StreamStatsAccountExecutions) {
  // Single-threaded execution on a multi-stream device: one stream
  // carries every kernel, no overlap is observed, and compute time is
  // not inflated (ConcurrentStreams == 1 leaves ComputeNs unscaled).
  CompilerOptions Options;
  Options.TheTarget = Target::GPU;
  Options.Device.NumStreams = 4;
  Expected<CompiledKernel> Kernel =
      compileModel(*Model, spn::QueryConfig(), Options);
  ASSERT_TRUE(static_cast<bool>(Kernel));
  const auto *Executor =
      dynamic_cast<const GpuExecutor *>(&Kernel->getEngine());
  ASSERT_NE(Executor, nullptr);
  EXPECT_EQ(Executor->getNumStreams(), 4u);

  std::vector<double> Output(kNumSamples);
  runtime::ExecutionStats Stats;
  Kernel->execute(Data.data(), Output.data(), kNumSamples, &Stats);
  ASSERT_TRUE(Stats.HasGpuStats);
  EXPECT_LT(Stats.Gpu.StreamId, 4u);
  EXPECT_EQ(Stats.Gpu.ConcurrentStreams, 1u);

  std::vector<uint64_t> Counts = Executor->getStreamKernelCounts();
  ASSERT_EQ(Counts.size(), 4u);
  uint64_t Total = 0;
  for (uint64_t C : Counts)
    Total += C;
  EXPECT_GE(Total, 1u);
  EXPECT_GE(Counts[Stats.Gpu.StreamId], 1u);
}

TEST_F(GpuStatsTest, ConcurrentStreamsShareTheDevice) {
  // Four threads on a 4-stream device: every execution lands on its
  // thread's stream, the per-stream kernel counts sum to the kernel
  // total, and at least one execution observes device sharing
  // (ConcurrentStreams > 1) under sustained concurrent load.
  CompilerOptions Options;
  Options.TheTarget = Target::GPU;
  Options.Device.NumStreams = 4;
  Expected<CompiledKernel> Kernel =
      compileModel(*Model, spn::QueryConfig(), Options);
  ASSERT_TRUE(static_cast<bool>(Kernel));
  const auto *Executor =
      dynamic_cast<const GpuExecutor *>(&Kernel->getEngine());
  ASSERT_NE(Executor, nullptr);

  constexpr unsigned kThreads = 4;
  constexpr unsigned kReps = 8;
  std::atomic<unsigned> MaxConcurrency{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < kThreads; ++T)
    Threads.emplace_back([&] {
      std::vector<double> Output(kNumSamples);
      for (unsigned R = 0; R < kReps; ++R) {
        runtime::ExecutionStats Stats;
        Kernel->execute(Data.data(), Output.data(), kNumSamples,
                        &Stats);
        ASSERT_TRUE(Stats.HasGpuStats);
        EXPECT_LT(Stats.Gpu.StreamId, 4u);
        unsigned Seen = Stats.Gpu.ConcurrentStreams;
        unsigned Prior = MaxConcurrency.load();
        while (Prior < Seen &&
               !MaxConcurrency.compare_exchange_weak(Prior, Seen)) {
        }
      }
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  std::vector<uint64_t> Counts = Executor->getStreamKernelCounts();
  uint64_t Total = 0;
  for (uint64_t C : Counts)
    Total += C;
  EXPECT_EQ(Total, uint64_t(kThreads) * kReps);
  // Concurrency is bounded by the stream count; observing any overlap
  // is timing-dependent, so only the bound is asserted strictly.
  EXPECT_LE(MaxConcurrency.load(), 4u);
}

} // namespace
