//===- CppEmitter.h - KernelProgram -> C++ translation units ------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits a compiled `vm::KernelProgram` as header-free C++ translation
/// units that link into one shared object exposing `extern "C"`
/// upward-pass functions — the source-emission half of the CppBackend
/// (the host compiler builds the units concurrently and links them).
/// The emitted code runs the batch in blocks of W rows, W being the lane
/// width (the pipeline's `ExecutionConfig::VectorWidth`): every register
/// is a W-lane GCC vector and every bytecode instruction one vector
/// statement, the input rows of a block are transposed into columns as
/// the VM's loads+shuffles path does, and the last partial block runs
/// padded. Each task is cut into segment functions of at most
/// kCppSegmentInstructions instructions, so no unit holds a function the
/// host compiler needs long to optimize. Every kernel, whatever its query
/// kind, mirrors the arithmetic of the VM's block engine with its vector
/// library (f32 exp/log through the VecMath polynomials, f64 through
/// per-lane libm). Constants are spelled as hexadecimal float literals
/// and -ffast-math is never passed. How the segments are spread
/// over units does not change any output bit.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_BACKEND_CPPEMITTER_H
#define SPNC_BACKEND_CPPEMITTER_H

#include "support/Expected.h"
#include "vm/Bytecode.h"

#include <cstddef>
#include <string>
#include <vector>

namespace spnc {
namespace backend {

/// Bumped whenever the emitted code's semantics or ABI change; folded
/// into the CppBackend's artifact fingerprint so cached native kernels
/// from older emitters are never reused. v2 added the Max opcode and
/// the MPE / ancestral-sampling entry points; v3 added the per-model
/// parameter-block indirection and the spnc_kernel_run_params entry
/// point of parameterized (merged-model) programs; v4 cut the code into
/// segment functions spread over several translation units; v5 reads
/// every side-table value from a compute-typed parameter block that
/// every entry point takes; v6 replaced the MPE and sampling entry
/// points, which carried their own traceback and RNG, with the per-row
/// upward pass spnc_kernel_upward; v7 evaluates W-row blocks in W-lane
/// vector code (f32 exp/log of likelihood kernels through the VecMath
/// polynomials), and spnc_kernel_upward runs one block; v8 adds each
/// LogSumExpN operand's weight from the parameter block; v9 gives MPE
/// and sampling kernels the arithmetic of likelihood kernels, and more
/// accurate f32 exp and log1p polynomials.
inline constexpr unsigned kCppEmitterVersion = 9;

/// Upper bound on the instructions of one segment function.
inline constexpr size_t kCppSegmentInstructions = 256;

/// Widest register the emitted code uses, in bytes: one AVX-512
/// register. The host compiler builds wider GCC vectors many times
/// slower (a small speaker kernel at 16 f64 lanes, 128 bytes: 5.7 s
/// against 0.3 s at -O2).
inline constexpr unsigned kCppMaxVectorBytes = 64;

/// Lanes of the registers of \p Program's kernel at the pipeline's
/// vector width \p VectorWidth: the width itself, capped so a register
/// fits kCppMaxVectorBytes (16 f64 lanes run as 8).
unsigned cppLaneWidth(const vm::KernelProgram &Program,
                      unsigned VectorWidth);

/// Name of the emitted joint/marginal `extern "C"` entry point:
///   void spnc_kernel_run(const double *in, double *out, size_t n,
///                        const void *params);
/// `in` is row-major [sample][feature]; `out` receives one value per
/// sample and output slot; `params` is a parameter block (see
/// CppParamLayout). Every entry point takes the block: the shared object
/// bakes no side-table value.
inline constexpr const char *kCppKernelSymbol = "spnc_kernel_run";

/// Upward entry point of one block, emitted only for MPE and sampling
/// programs (single-task, with a traceback plan):
///   void spnc_kernel_upward(const double *in, double *out, size_t i,
///                           size_t n, void *regs, const void *params);
/// Runs the upward pass of rows [i, min(i + W, n)) of an `n`-row batch
/// into `regs`, the task's register file of the compute type with W
/// lanes per register (register R of the row in lane L at R * W + L),
/// and writes each row's root value to `out`. The downward pass runs on
/// the host (vm::completeRows), the same code the VM and the GPU
/// simulator run.
inline constexpr const char *kCppUpwardSymbol = "spnc_kernel_upward";

/// Where each side-table value of a program sits in the parameter block
/// the emitted code reads, an array of the program's compute type
/// (float for UseF32 programs, double otherwise). Per task, in order:
/// the constant-pool slots an instruction reads (Const, NanBlend; slots
/// of weights the peephole folded away stay out), then (Mean,
/// InvStdDev, Coefficient, MarginalValue) per Gaussian, then each lookup
/// table's Values followed by its DefaultValue and MarginalValue, then
/// one Value per select. Bucket bounds are structural and stay literals.
struct CppParamLayout {
  /// Sentinel of ConstSlot for a slot no instruction reads.
  static constexpr size_t kUnused = ~size_t(0);
  /// Per task: block offset of each const-pool slot, or kUnused.
  std::vector<std::vector<size_t>> ConstSlot;
  /// Per task: block offset of the first Gaussian's Mean.
  std::vector<size_t> GaussianBase;
  /// Per task: block offset of each lookup table's first value.
  std::vector<std::vector<size_t>> TableBase;
  /// Per task: block offset of the first select's Value.
  std::vector<size_t> SelectBase;
  /// Values in the block.
  size_t Size = 0;
};

/// The layout of \p Program's parameter block. Any binding of the
/// program (vm::bindProgram) has the same layout.
CppParamLayout layoutCppParams(const vm::KernelProgram &Program);

/// \p Program's side-table values in \p Layout order, as doubles (the
/// engine narrows them to float for UseF32 programs).
std::vector<double> fillCppParams(const vm::KernelProgram &Program,
                                  const CppParamLayout &Layout);

/// Renders \p Program as C++17 translation units of \p Lanes-row blocks,
/// one per entry of the result: min(\p MaxUnits, number of segments)
/// units (at least one), balanced by instruction count. Unit 0 holds the
/// entry points; linking all units yields the kernel. Deterministic for
/// fixed \p Lanes and \p MaxUnits. Fails on lane widths that are not a
/// power of two or give registers wider than kCppMaxVectorBytes, and on
/// programs the emitter cannot express (more than one external input or
/// output buffer — the same restriction the CPU executor imposes).
Expected<std::vector<std::string>>
emitCppKernel(const vm::KernelProgram &Program, unsigned Lanes,
              unsigned MaxUnits);

} // namespace backend
} // namespace spnc

#endif // SPNC_BACKEND_CPPEMITTER_H
