//===- ServingReports.cpp - JSON serialization of ServerStats ------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "serving/ServingReports.h"

#include "support/FileIO.h"
#include "support/JSON.h"
#include "support/RawOStream.h"

using namespace spnc;
using namespace spnc::serving;

namespace {

void emitHistogram(json::Writer &W, const Histogram &H) {
  W.beginObject();
  W.member("count", H.getCount());
  W.member("min", H.getMin());
  W.member("max", H.getMax());
  W.member("mean", H.mean());
  W.member("p50", H.quantile(0.50));
  W.member("p95", H.quantile(0.95));
  W.member("p99", H.quantile(0.99));
  W.endObject();
}

/// Emits the ServerStats object (the golden-tested schema). Shared by
/// the flat report and every object of the sharded report, so the two
/// can never drift apart.
void emitStatsObject(json::Writer &W, const ServerStats &Stats) {
  W.beginObject();
  W.member("submitted_requests", Stats.SubmittedRequests);
  W.member("submitted_samples", Stats.SubmittedSamples);
  W.member("completed_requests", Stats.CompletedRequests);
  W.member("completed_samples", Stats.CompletedSamples);
  W.member("rejected_requests", Stats.RejectedRequests);
  W.member("blocked_submits", Stats.BlockedSubmits);
  W.member("timed_out_requests", Stats.TimedOutRequests);
  W.member("batches_dispatched", Stats.BatchesDispatched);
  W.member("cross_model_batches", Stats.CrossModelBatches);
  W.member("mean_batch_size", Stats.meanBatchSize());
  W.member("queue_depth", static_cast<uint64_t>(Stats.QueueDepth));
  W.member("peak_queue_depth",
           static_cast<uint64_t>(Stats.PeakQueueDepth));
  W.member("execution_ns", Stats.ExecutionNs);
  W.member("elapsed_ns", Stats.ElapsedNs);
  W.member("throughput_samples_per_s", Stats.throughputSamplesPerSec());
  W.key("batch_size");
  emitHistogram(W, Stats.BatchSizes);
  W.key("latency_ns");
  emitHistogram(W, Stats.LatencyNs);
  W.endObject();
}

} // namespace

void spnc::serving::writeServerStatsReport(const ServerStats &Stats,
                                           RawOStream &OS) {
  json::Writer W(OS);
  emitStatsObject(W, Stats);
}

void spnc::serving::writeShardedStatsReport(
    const ServerStats &Aggregate, const std::vector<ServerStats> &PerShard,
    RawOStream &OS) {
  json::Writer W(OS);
  W.beginObject();
  W.member("num_shards", static_cast<uint64_t>(PerShard.size()));
  W.key("aggregate");
  emitStatsObject(W, Aggregate);
  W.key("latency_ns_by_priority");
  W.beginObject();
  for (size_t Class = 0; Class < kNumPriorities; ++Class) {
    W.key(priorityName(static_cast<Priority>(Class)));
    emitHistogram(W, Aggregate.LatencyNsByPriority[Class]);
  }
  W.endObject();
  W.key("shards");
  W.beginArray();
  for (const ServerStats &Stats : PerShard)
    emitStatsObject(W, Stats);
  W.endArray();
  W.endObject();
}

LogicalResult spnc::serving::writeServerStatsReport(
    const ServerStats &Stats, const std::string &Path,
    std::string *ErrorMessage) {
  return writeRenderedFile(Path, ErrorMessage, [&](RawOStream &OS) {
    writeServerStatsReport(Stats, OS);
    OS << '\n';
  });
}

LogicalResult spnc::serving::writeShardedStatsReport(
    const ServerStats &Aggregate, const std::vector<ServerStats> &PerShard,
    const std::string &Path, std::string *ErrorMessage) {
  return writeRenderedFile(Path, ErrorMessage, [&](RawOStream &OS) {
    writeShardedStatsReport(Aggregate, PerShard, OS);
    OS << '\n';
  });
}
