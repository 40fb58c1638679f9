//===- Executor.h - The block bytecode engine ---------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution engine for `KernelProgram`s on the CPU: a data-parallel
/// engine, runBlock, that runs a task over a block of W rows at a time,
/// configurable in width (W=1; W=8 f32 lanes ~ AVX2, W=16 ~ AVX-512),
/// vector-library use and gather-vs-load+shuffle input loading. Its
/// registers are GCC/Clang vector values, one lane per row (plain
/// scalars at W=1), and every bytecode instruction runs as one vector
/// expression over them. W=1 without the vector library is the "No
/// Vec." configuration of Fig. 6.
///
/// The paper's vectorized loop ends in a scalar epilogue (§IV-B); here,
/// as in the cpp backend, a chunk's last block runs padded instead. Its
/// padding lanes read zero inputs and the tables of its last row, and
/// only its live rows are stored, so a row's bits do not depend on where
/// its batch or chunk ends.
///
/// Multi-threading follows the paper's runtime design: the batch is split
/// into chunks (chunk size = the user's batch-size hint) and chunks are
/// processed by a thread pool, each with private intermediate buffers.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_VM_EXECUTOR_H
#define SPNC_VM_EXECUTOR_H

#include "runtime/ExecutionEngine.h"
#include "vm/Bytecode.h"
#include "vm/ParamTable.h"

#include <cstddef>
#include <memory>
#include <vector>

namespace spnc {

class ThreadPool;

namespace vm {

/// CPU execution configuration (the design space of Fig. 6).
struct ExecutionConfig {
  /// Rows per block of the engine, one per SIMD lane. Supported: 1, 4,
  /// 8, 16.
  unsigned VectorWidth = 1;
  /// Use the vectorized math library (VecMath.h) for exp/log; otherwise
  /// scalar libm calls are made per live lane. Applies at every width,
  /// W=1 included.
  bool UseVecLib = true;
  /// Load row-major inputs through a transpose of each chunk's rows
  /// (loads+shuffles) instead of per-lane strided gather loads.
  bool UseShuffle = true;
  /// Worker threads for chunk-parallel execution.
  unsigned NumThreads = 1;
  /// Chunk size; 0 uses the kernel's batch-size hint.
  uint32_t ChunkSize = 0;
};

/// Executes a compiled kernel program on the CPU. One external input
/// buffer (row-major [sample][feature] doubles) and one external output
/// buffer are supported, matching the kernels the pipeline produces.
/// Implements the unified runtime::ExecutionEngine interface; the engine
/// is immutable after construction (apart from its weight tables) and
/// `run` is thread-safe. It serves the requests
/// EngineCapabilities::of(Program) names.
class CpuExecutor : public runtime::ExecutionEngine {
public:
  CpuExecutor(KernelProgram Program, ExecutionConfig Config);
  ~CpuExecutor() override;

  CpuExecutor(const CpuExecutor &) = delete;
  CpuExecutor &operator=(const CpuExecutor &) = delete;

  const KernelProgram *getProgram() const override { return &Program; }
  const ExecutionConfig &getConfig() const { return Config; }
  runtime::Target getTarget() const override {
    return runtime::Target::CPU;
  }
  std::string describe() const override;

  /// Joint/marginal requests run chunk-parallel in W-row blocks; the
  /// output is laid out [slot][sample]. MPE and sampling run the upward
  /// pass in the same blocks, followed by the traceback of each row over
  /// the program's plan.
  bool run(const runtime::RunRequest &Request,
           runtime::ExecutionStats *Stats = nullptr) const override;

  /// Weight tables of joint/marginal programs: each table binds only
  /// the side tables of every task (none for the table of the model the
  /// program was compiled from). One W-row block may carry rows of
  /// several tables: its parameter-reading instructions then read each
  /// lane's own table, so an indexed request runs as W-row blocks
  /// whatever its mix of tables.
  int32_t addParamTable(const double *Params, size_t NumParams) override;
  std::vector<double> getParamTable(int32_t Index) const override;

private:
  /// Runs the \p TotalSamples rows of a joint/marginal batch, split into
  /// chunks over the thread pool when one is configured (the caller
  /// waits for the pool); row I reads Params.get(I, Task).
  void dispatch(const RowParams &Params, const double *Input,
                double *Output, size_t TotalSamples) const;
  void executeChunk(const RowParams &Params, const double *Input,
                    double *Output, size_t TotalSamples, size_t Begin,
                    size_t End) const;

  KernelProgram Program;
  ExecutionConfig Config;
  std::unique_ptr<ThreadPool> Pool;
  ParamTableSet<BoundParams> Tables;
};

//===----------------------------------------------------------------------===//
// Block execution (shared with the GPU simulator)
//===----------------------------------------------------------------------===//

/// Bound buffer view used by runBlock. Exactly one of the three pointers
/// is set, matching the buffer's role.
template <typename T>
struct BufferBinding {
  const double *ExternalIn = nullptr;
  double *ExternalOut = nullptr;
  T *Scratch = nullptr;
  uint32_t Columns = 1;
  bool Transposed = true;
  /// Length of the sample dimension used for transposed addressing.
  size_t Stride = 0;
  /// Sample offset of the current chunk within the buffer.
  size_t Offset = 0;
};

/// A program's buffers bound for one chunk: one binding per buffer, and
/// the chunk-private storage of the intermediate buffers they point to.
template <typename T>
struct BoundBuffers {
  std::vector<BufferBinding<T>> Bindings;
  std::vector<std::vector<T>> Intermediates;
};

/// Binds \p Program's buffers for rows [Begin, End) of a batch of
/// \p TotalSamples: the input and output buffers address the caller's
/// arrays in place, each intermediate buffer gets zero-filled storage
/// for the chunk's rows. Chunk-local row I then addresses batch row
/// Begin + I.
template <typename T>
BoundBuffers<T> bindBuffers(const KernelProgram &Program,
                            const double *Input, double *Output,
                            size_t TotalSamples, size_t Begin, size_t End);

/// Answers the MPE or sampling \p Request of \p Program with runBlock, at
/// \p Config's width and vector-library use, as the upward pass of each
/// row, followed by the shared downward pass (completeRows in
/// vm/Traceback.h), which reads each row's lane of its block. T is the
/// program's compute type.
template <typename T>
void interpretRows(const KernelProgram &Program,
                   const ExecutionConfig &Config,
                   const runtime::RunRequest &Request);

/// Executes \p Task over one block of W lanes, W in {1, 4, 8, 16}: lane L
/// is chunk-local row \p Begin + L of \p Buffers for L < \p Live, and
/// reads its side tables from Lanes[L] (the task's own, or a weight table
/// bound to it). Lanes [Live, W) pad a batch's last block: they read
/// zero inputs, their Lanes entries repeat Lanes[Live - 1], nothing of
/// them is stored, and no libm call is made for them. \p Registers holds
/// NumRegisters x W values, register R of lane L at R * W + L. The VM's
/// only engine, and the per-thread execution model of the GPU
/// simulator.
template <typename T, unsigned W>
void runBlock(const TaskProgram &Task, const TaskParams *const *Lanes,
              const BufferBinding<T> *Buffers, size_t Begin, unsigned Live,
              bool UseVecLib, T *Registers);

} // namespace vm
} // namespace spnc

#endif // SPNC_VM_EXECUTOR_H
