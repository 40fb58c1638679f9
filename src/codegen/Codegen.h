//===- Codegen.h - LoSPN to bytecode code generation --------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates bufferized LoSPN kernels into executable `KernelProgram`s.
/// This stage substitutes the paper's lowering through the standard MLIR
/// dialects into LLVM IR / NVVM IR: it performs instruction selection
/// ("isel"), register allocation and a peephole pass whose aggressiveness
/// follows the -O0..-O3 compiler optimization level (paper Figs. 11/13),
/// and reports per-stage timings for the compile-time breakdown experiment
/// (paper §V-B1).
///
/// Optimization levels:
///   -O0: direct emission; one register per SSA value.
///   -O1: + linear-scan register allocation (register reuse).
///   -O2: + peephole fusion (FMA in linear space; folding sum weights
///        into leaf coefficients and tables, each fold recorded as a
///        parameter site so weight tables replay it), n-ary chain
///        collapse, and shared exponentials: the log-sum-exps of one
///        task that read the same children become one LogSumExpGroup.
///   -O3: + consumer-first instruction scheduling to shorten live ranges,
///        followed by a second register allocation round.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_CODEGEN_CODEGEN_H
#define SPNC_CODEGEN_CODEGEN_H

#include "dialects/lospn/LoSPNOps.h"
#include "support/Expected.h"
#include "vm/Bytecode.h"

namespace spnc {
namespace codegen {

struct CodegenOptions {
  /// Optimization level 0..3 (analog of the LLVM -O levels).
  unsigned OptLevel = 1;
  /// Lower discrete leaves to select cascades instead of table lookups
  /// (the GPU lowering strategy, paper §IV-C).
  bool EmitSelectCascades = false;
  /// The query kind the program serves. Joint/marginal programs record
  /// a `ParamSite` for every `param`-tagged constant / leaf op, giving
  /// each its own side-table slot (no constant pooling across sites), so
  /// every such program takes weight tables (docs/merging.md). For
  /// Mpe/Sample the emitter instead builds the downward `TracebackPlan`,
  /// which bakes mode values and pins register/value identity: codegen
  /// then records no sites and forces direct (-O0 style) emission — the
  /// optimization passes would reallocate registers and dissolve the
  /// sum-combine chains the plan references.
  vm::QueryKind Query = vm::QueryKind::Joint;
};

/// Wall-clock time of the codegen stages (nanoseconds); the analog of the
/// LLVM stage timings cited in paper §V-B1.
struct CodegenTimings {
  uint64_t IselNs = 0;
  uint64_t RegAllocNs = 0;
  uint64_t PeepholeNs = 0;
  uint64_t SchedulingNs = 0;
};

/// Emits the executable program for \p Kernel (which must be in memref
/// form). Per-stage timings are accumulated into \p Timings if provided.
Expected<vm::KernelProgram>
emitKernelProgram(lospn::KernelOp Kernel, const CodegenOptions &Options,
                  CodegenTimings *Timings = nullptr);

} // namespace codegen
} // namespace spnc

#endif // SPNC_CODEGEN_CODEGEN_H
