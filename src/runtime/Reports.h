//===- Reports.h - Machine-readable compiler/cache reports --------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JSON serialization of the pipeline's `CompileStats` and the kernel
/// cache's `KernelCache::Stats`, behind the CLI's `--pipeline-report` and
/// `--kernel-cache-report` flags. The emitted key order is stable and
/// covered by golden tests (report_test.cpp), so serving dashboards can
/// scrape the documents without defensive parsing.
///
/// Pipeline report shape (one "stages" entry per stage that ran, in
/// execution order):
///
///   {
///     "stages": [{"name": ..., "detail": ..., "diagnostic": ...,
///                 "wall_ns": ...}, ...],
///     "op_counts": [{"stage": ..., "num_ops": ...}, ...],
///     "passes": [{"name": ..., "wall_ns": ...}, ...],
///     "codegen": {"isel_ns": ..., "regalloc_ns": ..., "peephole_ns": ...,
///                 "scheduling_ns": ...},
///     "translation_ns": ..., "binary_encode_ns": ..., "total_ns": ...,
///     "num_tasks": ..., "num_instructions": ...
///   }
///
/// When several models are compiled in one invocation, the report is a
/// top-level array of these documents, each prefixed with a "model"
/// member naming its model (writePipelineReports).
///
/// Cache report shape: one member per `KernelCache::Stats` counter, in
/// declaration order, plus the capacity configuration.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_RUNTIME_REPORTS_H
#define SPNC_RUNTIME_REPORTS_H

#include "runtime/KernelCache.h"
#include "runtime/Pipeline.h"
#include "support/LogicalResult.h"

#include <string>

namespace spnc {

class RawOStream;

namespace runtime {

/// Writes the JSON pipeline report for \p Stats to \p OS. \p Stages,
/// when non-null, supplies the pipeline's stage descriptions (detail
/// text and the diagnostic flag) matched to the timings by stage name.
void writePipelineReport(const CompileStats &Stats,
                         const std::vector<PipelineStage> *Stages,
                         RawOStream &OS);

/// Writes the pipeline report to \p Path (overwritten). On failure,
/// \p ErrorMessage (when non-null) receives the reason.
LogicalResult writePipelineReport(const CompileStats &Stats,
                                  const std::vector<PipelineStage> *Stages,
                                  const std::string &Path,
                                  std::string *ErrorMessage = nullptr);

/// One model's compile outcome inside a multi-model pipeline report.
struct ModelPipelineReport {
  /// Display name (the CLI uses the model path).
  std::string Model;
  CompileStats Stats;
  /// The pipeline's stage descriptions, or null (as in
  /// writePipelineReport).
  const std::vector<PipelineStage> *Stages = nullptr;
};

/// Writes the multi-model pipeline report for \p Reports to \p OS: a
/// top-level JSON array with one document per model, each the
/// single-model report shape prefixed with a "model" member.
void writePipelineReports(const std::vector<ModelPipelineReport> &Reports,
                          RawOStream &OS);

/// Writes the multi-model pipeline report to \p Path (overwritten). On
/// failure, \p ErrorMessage (when non-null) receives the reason.
LogicalResult
writePipelineReports(const std::vector<ModelPipelineReport> &Reports,
                     const std::string &Path,
                     std::string *ErrorMessage = nullptr);

/// Writes the JSON kernel-cache report for \p Stats to \p OS.
/// \p CacheConfig, when non-null, adds the active capacity/budget
/// configuration under "config".
void writeKernelCacheReport(const KernelCache::Stats &Stats,
                            const KernelCache::Config *CacheConfig,
                            RawOStream &OS);

/// Writes the kernel-cache report to \p Path (overwritten). On failure,
/// \p ErrorMessage (when non-null) receives the reason.
LogicalResult writeKernelCacheReport(const KernelCache::Stats &Stats,
                                     const KernelCache::Config *CacheConfig,
                                     const std::string &Path,
                                     std::string *ErrorMessage = nullptr);

} // namespace runtime
} // namespace spnc

#endif // SPNC_RUNTIME_REPORTS_H
