//===- Passes.h - SPNC compilation passes -------------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The target-independent compilation steps of the SPNC pipeline (paper
/// §IV-A): lowering HiSPN queries to LoSPN kernels, partitioning large
/// tasks, bufferization with copy avoidance, and the GPU buffer-transfer
/// elimination that keeps intermediate buffers device-resident (paper
/// §IV-C).
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_TRANSFORMS_PASSES_H
#define SPNC_TRANSFORMS_PASSES_H

#include "ir/PassManager.h"
#include "partition/Partitioner.h"

#include <memory>

namespace spnc {
namespace transforms {

/// Lowers every HiSPN query (hi_spn.joint_query / hi_spn.mpe_query /
/// hi_spn.sample_query) in the module to a lo_spn.kernel with a single
/// task in tensor form (paper §IV-A3), computing in floats of
/// \p ComputeWidth bits (32 or 64; spn::resolveQuery picks it). MPE
/// queries combine weighted sum terms with lo_spn.max (max-product)
/// instead of lo_spn.add.
std::unique_ptr<ir::Pass>
createHiSPNToLoSPNLoweringPass(unsigned ComputeWidth = 32);

/// Splits oversized LoSPN tasks into multiple tasks using the acyclic
/// graph partitioner (paper §IV-A4).
std::unique_ptr<ir::Pass>
createTaskPartitioningPass(partition::PartitionOptions Options = {});

/// Options of the bufferization.
struct BufferizationOptions {
  /// Write task results that are returned by the kernel directly into the
  /// kernel output buffer instead of copying an intermediate buffer
  /// (paper §IV-A5). Disabled only for the copy-avoidance ablation.
  bool AvoidCopies = true;
};

/// Rewrites kernels from tensor form to memref form: explicit buffers,
/// batch_read/batch_write, alloc/dealloc of intermediates (paper §IV-A5).
std::unique_ptr<ir::Pass>
createBufferizationPass(BufferizationOptions Options = {});

/// Marks intermediate buffers as device-resident so the GPU runtime keeps
/// them on the device instead of copying them back and forth between
/// tasks (paper §IV-C).
std::unique_ptr<ir::Pass> createGpuBufferTransferEliminationPass();

} // namespace transforms
} // namespace spnc

#endif // SPNC_TRANSFORMS_PASSES_H
