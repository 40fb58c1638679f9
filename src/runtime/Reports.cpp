//===- Reports.cpp - Machine-readable compiler/cache reports -------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "runtime/Reports.h"

#include "support/FileIO.h"
#include "support/JSON.h"
#include "support/RawOStream.h"

using namespace spnc;
using namespace spnc::runtime;

namespace {

/// The stage description matching \p Name, or nullptr.
const PipelineStage *findStage(const std::vector<PipelineStage> *Stages,
                               const std::string &Name) {
  if (!Stages)
    return nullptr;
  for (const PipelineStage &Stage : *Stages)
    if (Stage.Name == Name)
      return &Stage;
  return nullptr;
}

/// Emits the members of one pipeline-report document into an object
/// \p W has already opened; shared by the single- and multi-model
/// entry points.
void emitPipelineReportMembers(json::Writer &W, const CompileStats &Stats,
                               const std::vector<PipelineStage> *Stages) {
  W.key("stages");
  W.beginArray();
  for (const StageTiming &Timing : Stats.Stages) {
    const PipelineStage *Stage = findStage(Stages, Timing.Name);
    W.beginObject();
    W.member("name", Timing.Name);
    W.member("detail", Stage ? std::string_view(Stage->Detail)
                             : std::string_view(""));
    W.member("diagnostic", Stage ? Stage->Diagnostic : false);
    W.member("wall_ns", Timing.WallNs);
    W.endObject();
  }
  W.endArray();

  W.key("op_counts");
  W.beginArray();
  for (const StageOpCount &Count : Stats.OpCounts) {
    W.beginObject();
    W.member("stage", Count.Stage);
    W.member("num_ops", static_cast<uint64_t>(Count.NumOps));
    W.endObject();
  }
  W.endArray();

  W.key("passes");
  W.beginArray();
  for (const ir::PassTiming &Pass : Stats.PassTimings) {
    W.beginObject();
    W.member("name", Pass.PassName);
    W.member("wall_ns", Pass.WallNs);
    W.endObject();
  }
  W.endArray();

  W.key("codegen");
  W.beginObject();
  W.member("isel_ns", Stats.Codegen.IselNs);
  W.member("regalloc_ns", Stats.Codegen.RegAllocNs);
  W.member("peephole_ns", Stats.Codegen.PeepholeNs);
  W.member("scheduling_ns", Stats.Codegen.SchedulingNs);
  W.endObject();

  W.member("translation_ns", Stats.TranslationNs);
  W.member("binary_encode_ns", Stats.BinaryEncodeNs);
  W.member("total_ns", Stats.TotalNs);
  W.member("num_tasks", static_cast<uint64_t>(Stats.NumTasks));
  W.member("num_instructions",
           static_cast<uint64_t>(Stats.NumInstructions));
}

} // namespace

void spnc::runtime::writePipelineReport(
    const CompileStats &Stats, const std::vector<PipelineStage> *Stages,
    RawOStream &OS) {
  json::Writer W(OS);
  W.beginObject();
  emitPipelineReportMembers(W, Stats, Stages);
  W.endObject();
}

LogicalResult spnc::runtime::writePipelineReport(
    const CompileStats &Stats, const std::vector<PipelineStage> *Stages,
    const std::string &Path, std::string *ErrorMessage) {
  return writeRenderedFile(Path, ErrorMessage, [&](RawOStream &OS) {
    writePipelineReport(Stats, Stages, OS);
    OS << '\n';
  });
}

void spnc::runtime::writePipelineReports(
    const std::vector<ModelPipelineReport> &Reports, RawOStream &OS) {
  json::Writer W(OS);
  W.beginArray();
  for (const ModelPipelineReport &Report : Reports) {
    W.beginObject();
    W.member("model", Report.Model);
    emitPipelineReportMembers(W, Report.Stats, Report.Stages);
    W.endObject();
  }
  W.endArray();
}

LogicalResult spnc::runtime::writePipelineReports(
    const std::vector<ModelPipelineReport> &Reports,
    const std::string &Path, std::string *ErrorMessage) {
  return writeRenderedFile(Path, ErrorMessage, [&](RawOStream &OS) {
    writePipelineReports(Reports, OS);
    OS << '\n';
  });
}

void spnc::runtime::writeKernelCacheReport(
    const KernelCache::Stats &Stats,
    const KernelCache::Config *CacheConfig, RawOStream &OS) {
  json::Writer W(OS);
  W.beginObject();
  W.member("hits", Stats.Hits);
  W.member("misses", Stats.Misses);
  W.member("disk_hits", Stats.DiskHits);
  W.member("recompiles", Stats.Recompiles);
  W.member("evictions", Stats.Evictions);
  W.member("disk_pruned_files", Stats.DiskPrunedFiles);
  W.member("disk_pruned_bytes", Stats.DiskPrunedBytes);
  W.member("corrupted_disk_entries", Stats.CorruptedDiskEntries);
  if (CacheConfig) {
    W.key("config");
    W.beginObject();
    W.member("directory", CacheConfig->Directory);
    W.member("max_entries",
             static_cast<uint64_t>(CacheConfig->MaxEntries));
    W.member("disk_budget_bytes", CacheConfig->DiskBudgetBytes);
    W.endObject();
  }
  W.endObject();
}

LogicalResult spnc::runtime::writeKernelCacheReport(
    const KernelCache::Stats &Stats,
    const KernelCache::Config *CacheConfig, const std::string &Path,
    std::string *ErrorMessage) {
  return writeRenderedFile(Path, ErrorMessage, [&](RawOStream &OS) {
    writeKernelCacheReport(Stats, CacheConfig, OS);
    OS << '\n';
  });
}
