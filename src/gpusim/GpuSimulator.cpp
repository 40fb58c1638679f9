//===- GpuSimulator.cpp - CUDA-style GPU execution simulator -------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "gpusim/GpuSimulator.h"

#include "support/Timer.h"
#include "vm/Executor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace spnc;
using namespace spnc::gpusim;
using namespace spnc::vm;

/// Hardware cap on architectural registers per thread (as enforced by
/// ptxas); demand beyond it spills to local memory.
static constexpr unsigned kMaxRegsPerThread = 255;

double spnc::gpusim::computeOccupancy(const GpuDeviceConfig &Config,
                                      unsigned BlockSize,
                                      unsigned RegistersPerThread) {
  BlockSize = std::max(1u, std::min(BlockSize, Config.MaxThreadsPerBlock));
  // The device compiler caps architectural registers per thread; the
  // overflow spills (computeSpillSlowdown) instead of reducing occupancy
  // further.
  RegistersPerThread =
      std::min(std::max(1u, RegistersPerThread), kMaxRegsPerThread);
  // Resident threads per SM are limited by the thread cap, the block cap
  // and the register file; blocks are resident as whole units, so large
  // blocks quantize the register-limited thread count.
  unsigned ByThreads = Config.MaxThreadsPerSM / BlockSize;
  unsigned ByRegisters =
      (Config.RegistersPerSM / RegistersPerThread) / BlockSize;
  // A block whose threads cannot all get registers still launches, but
  // the compiler must spill; one block stays resident.
  unsigned ResidentBlocks = std::max(
      1u, std::min({ByThreads, ByRegisters, Config.MaxBlocksPerSM}));
  unsigned ResidentThreads =
      std::min(ResidentBlocks * BlockSize, Config.MaxThreadsPerSM);
  return static_cast<double>(ResidentThreads) /
         static_cast<double>(Config.MaxThreadsPerSM);
}

double spnc::gpusim::computeSpillSlowdown(const GpuDeviceConfig &Config,
                                          unsigned BlockSize,
                                          unsigned RegistersPerThread) {
  BlockSize = std::max(1u, std::min(BlockSize, Config.MaxThreadsPerBlock));
  RegistersPerThread = std::max(1u, RegistersPerThread);
  // Per-thread spills: values beyond the architectural register cap live
  // in (L1-cached) local memory; the penalty grows slowly with the
  // over-subscription because spill traffic caches well.
  double PerThread = 1.0;
  if (RegistersPerThread > kMaxRegsPerThread)
    PerThread = std::min(
        2.5, 1.0 + 0.3 * std::log2(static_cast<double>(RegistersPerThread) /
                                   kMaxRegsPerThread));
  // Block-level register-file overflow (large blocks of register-heavy
  // threads): steeper, as whole warps stall on local memory.
  double Demand =
      static_cast<double>(
          std::min(RegistersPerThread, kMaxRegsPerThread)) *
      static_cast<double>(BlockSize);
  double Ratio = Demand / static_cast<double>(Config.RegistersPerSM);
  double PerBlock =
      Ratio <= 1.0 ? 1.0 : std::min(4.0, 1.0 + 4.0 * (Ratio - 1.0));
  return PerThread * PerBlock;
}

//===----------------------------------------------------------------------===//
// Streams (simulated device contexts)
//===----------------------------------------------------------------------===//

/// One stream: work issued to it executes in order (Mutex), like a CUDA
/// stream. Kernels counts retirements for observability.
struct StreamContext {
  std::mutex Mutex;
  std::atomic<uint64_t> Kernels{0};
};

/// The executor's mutable device state: the stream pool, the sticky
/// thread-to-stream assignment, and the count of kernels currently
/// executing on any stream (the SM-sharing factor).
struct GpuExecutor::DeviceState {
  mutable std::mutex AssignMutex;
  std::unordered_map<std::thread::id, unsigned> ThreadStream;
  unsigned NextStream = 0;
  std::vector<std::unique_ptr<StreamContext>> Streams;
  std::atomic<unsigned> ActiveKernels{0};
};

/// RAII occupancy of the calling thread's stream for one execution:
/// blocks until earlier work issued to the stream retires (same-stream
/// serialization), then counts itself active on the device. Records the
/// wait and the device-wide overlap for the stats.
struct GpuExecutor::StreamLease {
  explicit StreamLease(const GpuExecutor &Executor)
      : Device(*Executor.Device), Id(Executor.streamForCallingThread()),
        Ctx(*Device.Streams[Id]) {
    Timer WaitTimer;
    Ctx.Mutex.lock();
    WaitNs = WaitTimer.elapsedNs();
    Concurrency = Device.ActiveKernels.fetch_add(1) + 1;
    Ctx.Kernels.fetch_add(1);
  }

  ~StreamLease() {
    Device.ActiveKernels.fetch_sub(1);
    Ctx.Mutex.unlock();
  }

  StreamLease(const StreamLease &) = delete;
  StreamLease &operator=(const StreamLease &) = delete;

  /// Folds the stream bookkeeping into \p Stats: SMs are shared among
  /// the kernels active during this execution, so simulated compute
  /// time stretches by the overlap factor.
  void account(GpuExecutionStats &Stats) const {
    Stats.ComputeNs *= Concurrency;
    Stats.StreamId = Id;
    Stats.ConcurrentStreams = Concurrency;
    Stats.StreamWaitNs = WaitNs;
  }

  DeviceState &Device;
  unsigned Id;
  StreamContext &Ctx;
  uint64_t WaitNs = 0;
  unsigned Concurrency = 1;
};

GpuExecutor::GpuExecutor(KernelProgram TheProgram,
                         GpuDeviceConfig TheConfig, unsigned TheBlockSize)
    : ExecutionEngine(runtime::EngineCapabilities::of(TheProgram)),
      Program(std::move(TheProgram)), Config(TheConfig),
      BlockSize(TheBlockSize ? TheBlockSize : kDefaultBlockSize) {
  assert(Program.NumInputs == 1 && Program.NumOutputs == 1 &&
         "simulator supports kernels with one input and one output");
  BlockSize = std::max(1u, std::min(BlockSize, Config.MaxThreadsPerBlock));
  Device = std::make_unique<DeviceState>();
  // NumStreams == 0 is the default-stream configuration: one stream
  // (the serving layer resolves 0 to its worker count before compiling;
  // see InferenceServer::addModel).
  unsigned NumStreams = std::max(1u, Config.NumStreams);
  Device->Streams.reserve(NumStreams);
  for (unsigned I = 0; I < NumStreams; ++I)
    Device->Streams.push_back(std::make_unique<StreamContext>());
}

GpuExecutor::~GpuExecutor() = default;

unsigned GpuExecutor::getNumStreams() const {
  return static_cast<unsigned>(Device->Streams.size());
}

unsigned GpuExecutor::streamForCallingThread() const {
  DeviceState &D = *Device;
  std::lock_guard<std::mutex> Lock(D.AssignMutex);
  auto [It, Inserted] =
      D.ThreadStream.try_emplace(std::this_thread::get_id(), D.NextStream);
  if (Inserted)
    D.NextStream = (D.NextStream + 1) %
                   static_cast<unsigned>(D.Streams.size());
  return It->second;
}

std::vector<uint64_t> GpuExecutor::getStreamKernelCounts() const {
  std::vector<uint64_t> Counts;
  Counts.reserve(Device->Streams.size());
  for (const auto &Stream : Device->Streams)
    Counts.push_back(Stream->Kernels.load());
  return Counts;
}

namespace {

/// Simulated time of one host<->device transfer of \p Bytes over PCIe.
uint64_t transferNs(const GpuDeviceConfig &Config, uint64_t Bytes) {
  // GB/s == bytes/ns.
  return static_cast<uint64_t>(Config.TransferLatencyUs * 1000.0 +
                               static_cast<double>(Bytes) /
                                   Config.PcieBandwidthGBs);
}

/// Simulated compute time of one launch of \p NumSamples threads of a
/// task using \p NumRegisters registers each: \p RunThreads measured on
/// the host and scaled by throughput, occupancy and spilling, plus
/// \p IntermediateBytes of global-memory traffic and the scheduling of
/// the launch's blocks over the SMs.
template <typename Fn>
uint64_t launchComputeNs(const GpuDeviceConfig &Config, unsigned BlockSize,
                         uint32_t NumRegisters, size_t NumSamples,
                         uint64_t IntermediateBytes, Fn &&RunThreads) {
  Timer HostTimer;
  RunThreads();
  uint64_t HostNs = HostTimer.elapsedNs();

  double Occupancy = computeOccupancy(Config, BlockSize, NumRegisters);
  double Spill = computeSpillSlowdown(Config, BlockSize, NumRegisters);
  size_t NumBlocks = (NumSamples + BlockSize - 1) / BlockSize;
  return static_cast<uint64_t>(
      static_cast<double>(HostNs) * Spill /
          (Config.PeakSpeedup * Occupancy) +
      static_cast<double>(IntermediateBytes) / Config.DeviceBandwidthGBs +
      static_cast<double>(NumBlocks) * Config.BlockScheduleOverheadNs /
          static_cast<double>(Config.NumSMs));
}

/// Runs the \p NumSamples rows of a joint/marginal batch on the device
/// as one launch sequence: one launch per task, whose thread for row I
/// reads its side tables from Params.get(I, Task).
template <typename T>
void runOnDevice(const KernelProgram &Program,
                 const GpuDeviceConfig &Config, unsigned BlockSize,
                 const RowParams &Params, const double *Input,
                 double *Output, size_t NumSamples,
                 GpuExecutionStats &Stats) {
  // Device buffers: intermediates live here; external buffers are
  // modelled by accounting their transfers (the computation reads/writes
  // the host copies directly, which is numerically identical).
  BoundBuffers<T> Bound =
      bindBuffers<T>(Program, Input, Output, NumSamples, 0, NumSamples);
  const std::vector<BufferBinding<T>> &Bindings = Bound.Bindings;

  auto BufferBytes = [&](size_t I) {
    return static_cast<uint64_t>(Program.Buffers[I].Columns) *
           NumSamples * sizeof(T);
  };

  // Initial host->device transfer of the external input.
  for (size_t I = 0; I < Program.Buffers.size(); ++I)
    if (Program.Buffers[I].Role == BufferInfo::Kind::Input) {
      Stats.TransferNs += transferNs(Config, BufferBytes(I));
      Stats.BytesHostToDevice += BufferBytes(I);
      ++Stats.NumTransfers;
    }

  uint32_t MaxRegs = 1;
  for (const TaskProgram &Task : Program.Tasks)
    MaxRegs = std::max(MaxRegs, Task.NumRegisters);
  std::vector<T> Registers(MaxRegs);

  // Which intermediate buffers currently live on the device. Without the
  // transfer-elimination pass (DeviceResident == false), a produced
  // buffer is copied to the host after the task and re-uploaded before
  // the next consumer (paper §IV-C).
  std::vector<uint8_t> OnDevice(Program.Buffers.size(), 1);

  for (const KernelStep &Step : Program.Steps) {
    if (Step.Task < 0) {
      // Device-to-device copy at device memory bandwidth (~200 GB/s).
      uint64_t Bytes = BufferBytes(static_cast<size_t>(Step.CopySrc));
      Stats.ComputeNs += Bytes / 200;
      const BufferBinding<T> &Src = Bindings[Step.CopySrc];
      const BufferBinding<T> &Dst = Bindings[Step.CopyDst];
      for (uint32_t Col = 0; Col < Src.Columns; ++Col)
        for (size_t S = 0; S < NumSamples; ++S) {
          size_t SrcIdx = static_cast<size_t>(Col) * NumSamples + S;
          if (Src.Scratch && Dst.ExternalOut)
            Dst.ExternalOut[static_cast<size_t>(Col) * Dst.Stride +
                            Dst.Offset + S] =
                static_cast<double>(Src.Scratch[SrcIdx]);
          else if (Src.Scratch && Dst.Scratch)
            Dst.Scratch[SrcIdx] = Src.Scratch[SrcIdx];
        }
      continue;
    }

    size_t TaskIndex = static_cast<size_t>(Step.Task);
    const TaskProgram &Task = Program.Tasks[TaskIndex];

    // Upload any consumed intermediate that is not on the device.
    for (const BufferAccess &Access : Task.Loads) {
      const BufferInfo &Info = Program.Buffers[Access.Buffer];
      if (Info.Role == BufferInfo::Kind::Intermediate &&
          !OnDevice[Access.Buffer]) {
        uint64_t Bytes = BufferBytes(Access.Buffer);
        Stats.TransferNs += transferNs(Config, Bytes);
        Stats.BytesHostToDevice += Bytes;
        ++Stats.NumTransfers;
        OnDevice[Access.Buffer] = 1;
      }
    }

    // Launch: one thread per sample, a one-lane block with the vector
    // library.
    Stats.LaunchNs += static_cast<uint64_t>(
        Config.KernelLaunchOverheadUs * 1000.0);
    ++Stats.NumLaunches;

    // Global-memory traffic for the inter-task buffers this launch reads
    // and writes (one element per sample per interface value).
    uint64_t IntermediateBytes = 0;
    for (const BufferAccess &Access : Task.Loads)
      if (Program.Buffers[Access.Buffer].Role ==
          BufferInfo::Kind::Intermediate)
        IntermediateBytes += NumSamples * sizeof(T);
    for (const BufferAccess &Access : Task.Stores)
      if (Program.Buffers[Access.Buffer].Role ==
          BufferInfo::Kind::Intermediate)
        IntermediateBytes += NumSamples * sizeof(T);
    Stats.ComputeNs += launchComputeNs(
        Config, BlockSize, Task.NumRegisters, NumSamples, IntermediateBytes,
        [&] {
          for (size_t S = 0; S < NumSamples; ++S) {
            const TaskParams *Lane = &Params.get(S, TaskIndex);
            runBlock<T, 1>(Task, &Lane, Bindings.data(), S, 1,
                           /*UseVecLib=*/true, Registers.data());
          }
        });

    // Download produced buffers: intermediates only when not
    // device-resident; the external output at the end (below).
    for (const BufferAccess &Access : Task.Stores) {
      const BufferInfo &Info = Program.Buffers[Access.Buffer];
      if (Info.Role == BufferInfo::Kind::Intermediate &&
          !Info.DeviceResident) {
        uint64_t Bytes = BufferBytes(Access.Buffer);
        Stats.TransferNs += transferNs(Config, Bytes);
        Stats.BytesDeviceToHost += Bytes;
        ++Stats.NumTransfers;
        OnDevice[Access.Buffer] = 0;
      }
    }
  }

  // Final device->host transfer of the external output.
  for (size_t I = 0; I < Program.Buffers.size(); ++I)
    if (Program.Buffers[I].Role == BufferInfo::Kind::Output) {
      Stats.TransferNs += transferNs(Config, BufferBytes(I));
      Stats.BytesDeviceToHost += BufferBytes(I);
      ++Stats.NumTransfers;
    }
}

} // namespace

namespace {

/// MPE or sampling on the simulated device: one launch whose threads
/// each run a row's upward pass, a one-lane block with the vector
/// library, and the shared downward pass (vm::interpretRows). Register
/// values use the program's width T (f32 for UseF32 programs), so MPE
/// argmax decisions reflect device precision; assignments and samples
/// are produced in f64 like the host engines.
template <typename T>
void runQueryOnDevice(const KernelProgram &Program,
                      const GpuDeviceConfig &Config, unsigned BlockSize,
                      const runtime::RunRequest &Request,
                      GpuExecutionStats &Stats) {
  const TaskProgram &Task = Program.Tasks[0];
  size_t NumSamples = Request.NumSamples;
  uint64_t NumFeatures = 1;
  for (const BufferInfo &Info : Program.Buffers)
    if (Info.Role == BufferInfo::Kind::Input)
      NumFeatures = Info.Columns;

  // Evidence upload.
  uint64_t InBytes = NumFeatures * NumSamples * sizeof(T);
  Stats.TransferNs += transferNs(Config, InBytes);
  Stats.BytesHostToDevice += InBytes;
  ++Stats.NumTransfers;

  // One launch covering the upward pass and the traceback.
  Stats.LaunchNs +=
      static_cast<uint64_t>(Config.KernelLaunchOverheadUs * 1000.0);
  ++Stats.NumLaunches;

  Stats.ComputeNs += launchComputeNs(
      Config, BlockSize, Task.NumRegisters, NumSamples,
      /*IntermediateBytes=*/0,
      [&] { interpretRows<T>(Program, ExecutionConfig(), Request); });

  // Download: the completed rows plus the root values.
  uint64_t OutBytes = (NumFeatures + 1) * NumSamples * sizeof(T);
  Stats.TransferNs += transferNs(Config, OutBytes);
  Stats.BytesDeviceToHost += OutBytes;
  ++Stats.NumTransfers;
}

} // namespace

std::vector<double> GpuExecutor::getParamTable(int32_t Index) const {
  return Tables.raw(Index);
}

int32_t GpuExecutor::addParamTable(const double *Params,
                                   size_t NumParams) {
  if (!getCapabilities().ParamTables || NumParams != Program.NumParams)
    return -1;
  return Tables.add(std::span<const double>(Params, NumParams),
                    [this](std::span<const double> Raw) {
                      return bindIfDifferent(Program, Raw);
                    });
}

bool GpuExecutor::run(const runtime::RunRequest &Request,
                      runtime::ExecutionStats *Stats) const {
  std::optional<RowParams> Params =
      RowParams::resolve(Program, Tables, Request);
  if (!Params)
    return false;
  return timedRun(Request, Stats, [&](runtime::ExecutionStats &S) {
    S.HasGpuStats = true;
    size_t N = Request.NumSamples;
    StreamLease Lease(*this);
    if (spn::needsTraceback(Request.Kind)) {
      if (Program.UseF32)
        runQueryOnDevice<float>(Program, Config, BlockSize, Request, S.Gpu);
      else
        runQueryOnDevice<double>(Program, Config, BlockSize, Request,
                                 S.Gpu);
    } else if (Program.UseF32) {
      runOnDevice<float>(Program, Config, BlockSize, *Params, Request.Input,
                         Request.Output, N, S.Gpu);
    } else {
      runOnDevice<double>(Program, Config, BlockSize, *Params, Request.Input,
                          Request.Output, N, S.Gpu);
    }
    Lease.account(S.Gpu);
  });
}

std::string GpuExecutor::describe() const {
  return "gpusim sms=" + std::to_string(Config.NumSMs) +
         ", block=" + std::to_string(BlockSize) +
         ", streams=" + std::to_string(getNumStreams()) +
         (Program.Lowering == vm::LoweringKind::TableLookup
              ? ", table-lookup kernel"
              : "");
}
