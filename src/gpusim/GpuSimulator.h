//===- GpuSimulator.h - CUDA-style GPU execution simulator --------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A GPU execution simulator standing in for the CUDA device of the paper
/// (RTX 2070 Super; see DESIGN.md §4). Kernels execute with full numerical
/// fidelity — each simulated thread runs its sample on the host as a
/// one-lane block of the VM's engine (vm::runBlock<T, 1>) with the vector
/// library — while a device model accounts simulated wall-clock time for:
///
///  * kernel execution: measured host work scaled by the device's peak
///    throughput and the achieved occupancy. Occupancy follows the CUDA
///    rules that make small block sizes preferable for register-heavy
///    SPN kernels (paper §V-A1): the number of resident threads per SM is
///    limited by the register file, and large blocks quantize that limit.
///  * host<->device transfers: per-transfer latency plus bytes over the
///    modelled PCIe bandwidth (the dominant cost in paper Fig. 9);
///  * per-launch overhead.
///
/// Buffers marked device-resident by the transfer-elimination pass stay
/// on the device between tasks; without that pass every intermediate
/// buffer is copied back to the host after the producing task and back to
/// the device before each consuming task (paper §IV-C).
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_GPUSIM_GPUSIMULATOR_H
#define SPNC_GPUSIM_GPUSIMULATOR_H

#include "gpusim/GpuStats.h"
#include "runtime/ExecutionEngine.h"
#include "vm/Bytecode.h"
#include "vm/ParamTable.h"

#include <cstddef>
#include <memory>
#include <vector>

namespace spnc {
namespace gpusim {

/// Device-model parameters. Hardware shape parameters (SM count, thread
/// and register limits) follow the paper's RTX 2070 Super. The two
/// throughput parameters are expressed relative to *this host running the
/// bytecode engine one row at a time*: because the host-side compute
/// baseline is bytecode (roughly an order of magnitude slower than the
/// native code the paper's CPU path emits), the device's relative speedup
/// and the transfer bandwidth are de-rated by the same factor. The defaults
/// are calibrated so the published relations hold on the speaker-ID
/// workload: GPU execution lands near the non-vectorized CPU executable
/// and below the vectorized one (Figs. 7/8), with data movement above
/// 60% of GPU execution time (Fig. 9). See EXPERIMENTS.md.
struct GpuDeviceConfig {
  unsigned NumSMs = 40;
  unsigned MaxThreadsPerBlock = 1024;
  unsigned MaxThreadsPerSM = 1024;
  unsigned MaxBlocksPerSM = 16;
  unsigned RegistersPerSM = 65536;
  /// Full-occupancy device throughput relative to one host core running
  /// the same bytecode (calibrated; see above).
  double PeakSpeedup = 4.0;
  /// Effective host<->device bandwidth in GB/s of simulated time
  /// (calibrated; see above).
  double PcieBandwidthGBs = 0.0023;
  /// Fixed cost per transfer call (driver + DMA setup) in microseconds.
  double TransferLatencyUs = 8.0;
  /// Fixed cost per kernel launch in microseconds.
  double KernelLaunchOverheadUs = 6.0;
  /// Per-scheduled-block overhead in nanoseconds.
  double BlockScheduleOverheadNs = 300.0;
  /// Device (global) memory bandwidth in GB/s of simulated time, charged
  /// for the intermediate-buffer traffic between tasks — the cost that
  /// makes many small partitions expensive on the GPU (paper Fig. 12).
  /// De-rated like PcieBandwidthGBs (see above).
  double DeviceBandwidthGBs = 0.25;
  /// Simulated device contexts ("streams"). Work issued to one stream
  /// executes in order (callers sharing a stream serialize, like CUDA's
  /// default stream); distinct streams overlap, sharing the SMs — the
  /// simulator scales compute time by the number of concurrently active
  /// kernels. 0 behaves like 1 (the default stream) but additionally
  /// tells the serving layer to allocate one stream per worker
  /// (InferenceServer::addModel for Target::GPU models).
  unsigned NumStreams = 0;
};

/// Occupancy achieved by a kernel with the given per-thread register
/// demand and block size: resident threads per SM over the maximum.
/// Exposed for testing and for the block-size sweep.
double computeOccupancy(const GpuDeviceConfig &Config, unsigned BlockSize,
                        unsigned RegistersPerThread);

/// Slowdown factor (>= 1) modelling register spills when a single block's
/// register demand exceeds the SM register file (large blocks on
/// register-heavy SPN kernels; the reason small block sizes win in
/// paper §V-A1).
double computeSpillSlowdown(const GpuDeviceConfig &Config,
                            unsigned BlockSize,
                            unsigned RegistersPerThread);

/// Executes compiled kernels on the simulated device. Implements the
/// unified runtime::ExecutionEngine interface, serving the query kinds
/// EngineCapabilities::of(Program) names; `run` is thread-safe —
/// the simulated device breakdown is returned per call. The program and
/// device model are immutable after construction; the only mutable state
/// is the stream pool: each calling thread is stickily assigned one of
/// the device's `NumStreams` stream contexts (round-robin on first use),
/// callers sharing a stream serialize, and concurrently active kernels
/// on distinct streams share the SMs (their simulated compute time
/// scales with the overlap).
class GpuExecutor : public runtime::ExecutionEngine {
public:
  /// Block size used when none is requested: 64 threads, the
  /// occupancy-optimal choice for register-heavy SPN kernels (paper
  /// §V-A1's block-size sweep). Deliberately NOT the query batch size:
  /// serving batch sizes routinely exceed the per-block register budget
  /// and would silently run at a fraction of peak occupancy.
  static constexpr unsigned kDefaultBlockSize = 64;

  /// \p BlockSize is the CUDA block size used for every launch; 0 uses
  /// the occupancy-optimal default (kDefaultBlockSize). The effective
  /// size is clamped to the device's MaxThreadsPerBlock.
  GpuExecutor(vm::KernelProgram Program, GpuDeviceConfig Config = {},
              unsigned BlockSize = 0);
  ~GpuExecutor() override;

  /// The clamped block size every launch of this executor uses.
  unsigned getBlockSize() const { return BlockSize; }

  /// Streams (simulated device contexts) this executor schedules onto;
  /// at least 1 regardless of the configured NumStreams.
  unsigned getNumStreams() const;

  /// The stream the calling thread is (stickily) assigned to, assigning
  /// one round-robin on first use — the same policy every run() call
  /// applies.
  unsigned streamForCallingThread() const;

  /// Kernel executions retired per stream since construction (index =
  /// stream id). Observability for tests and the serving layer.
  std::vector<uint64_t> getStreamKernelCounts() const;

  const vm::KernelProgram *getProgram() const override {
    return &Program;
  }
  const GpuDeviceConfig &getDeviceConfig() const { return Config; }
  runtime::Target getTarget() const override {
    return runtime::Target::GPU;
  }
  std::string describe() const override;

  /// Runs the request on the simulated device with CpuExecutor's
  /// buffer conventions and returns the simulated breakdown in
  /// \p Stats->Gpu (HasGpuStats set). MPE and sampling run the upward
  /// pass with the program's register width (f32 for UseF32 programs —
  /// near-tie argmax decisions can differ from f64 engines) and the
  /// downward pass every engine shares (vm::interpretRows) on the device
  /// per sample; evidence upload and row download are accounted like the
  /// joint transfers.
  bool run(const runtime::RunRequest &Request,
           runtime::ExecutionStats *Stats = nullptr) const override;

  /// Weight tables of joint/marginal programs, bound like CpuExecutor's:
  /// each table binds only every task's side tables (none for the
  /// compiling model's own). An indexed request is one launch per task
  /// whatever its mix of tables: each simulated thread reads its own
  /// row's table.
  int32_t addParamTable(const double *Params, size_t NumParams) override;
  std::vector<double> getParamTable(int32_t Index) const override;

private:
  struct DeviceState;
  struct StreamLease;

  vm::KernelProgram Program;
  vm::ParamTableSet<vm::BoundParams> Tables;
  GpuDeviceConfig Config;
  unsigned BlockSize;
  /// Stream pool: the executor's only mutable state (see class comment).
  std::unique_ptr<DeviceState> Device;
};

} // namespace gpusim
} // namespace spnc

#endif // SPNC_GPUSIM_GPUSIMULATOR_H
