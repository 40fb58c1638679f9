//===- InferenceServer.h - Sharded in-process serving with micro-batching -----===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process serving layer that bridges from "caller already holds a
/// full batch" (`ExecutionEngine::execute`) to the serving regime the
/// paper's speedups assume: its CPU and GPU gains come from amortizing
/// per-kernel overhead across large batches (§IV-B batch chunking, §IV-C
/// device-buffer reuse), but online traffic arrives one or a few samples
/// per request. The `InferenceServer` closes that gap:
///
///  * clients submit single- or few-sample requests (per registered
///    model) from any number of threads and get a `Future` back;
///  * the server runs `NumShards` independent shards, each with its own
///    batcher thread, request queues and worker pool. Models are placed
///    on shards by consistent hashing over the model hash
///    (`KernelCache::contentHash`), so placement is deterministic and
///    stable under shard-count changes; all shards compile through one
///    shared `runtime::KernelCache`;
///  * requests carry a `Priority` class (Interactive or Bulk). Each
///    shard's batcher drains the two classes by weighted fair queueing
///    (`InteractiveWeight` : `BulkWeight` dispatch credits), so
///    interactive traffic overtakes a bulk backlog without starving it;
///    within a class, models round-robin;
///  * a shard's batcher coalesces queued requests of one (model,
///    priority) pair into micro-batches of up to `MaxBatchSamples`
///    samples, or dispatches earlier once the oldest request has waited
///    `MaxQueueDelayUs`;
///  * admission control bounds the outstanding work per shard: beyond
///    `MaxQueueDepth` samples, submits are rejected or block per policy
///    (backpressure is counted either way, on the shard);
///  * per-request deadlines: a request that expires in a shard's queue
///    completes with `RequestStatus::TimedOut` instead of occupying a
///    batch slot;
///  * with `ServerConfig::MergeModels`, structurally-isomorphic models
///    (same DAG shape, different weights), which the kernel cache
///    already compiles into one kernel with a weight table per model,
///    share one request queue, so traffic for different models of a
///    merge group coalesces into the same micro-batch — each row
///    executes against its own model's weight table
///    (`RunRequest::TableIndices`; docs/merging.md);
///  * `shutdown()` drains in-flight work — every accepted request is
///    completed before the server stops.
///
/// `getStats()` aggregates the per-shard counters (histograms combined
/// with `Histogram::merge`) into the same `ServerStats` snapshot a
/// single-shard server produces; `getShardStats(i)` exposes one shard.
/// `writeServerStatsReport` (ServingReports.h) emits the aggregate
/// through the json::Writer report machinery, `writeShardedStatsReport`
/// the aggregate plus the per-shard breakdown.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_SERVING_INFERENCESERVER_H
#define SPNC_SERVING_INFERENCESERVER_H

#include "runtime/KernelCache.h"
#include "support/Future.h"
#include "support/Histogram.h"

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace spnc {

class ThreadPool;

namespace serving {

/// How a request completed.
enum class RequestStatus : uint8_t {
  /// Executed; `LogLikelihoods` holds one value per submitted sample.
  Ok,
  /// Refused at admission (queue full under the Reject policy, or the
  /// model name is unknown).
  Rejected,
  /// The deadline expired before the request reached an engine.
  TimedOut,
  /// The server was shutting down when the request arrived.
  ShutDown,
  /// The engine refused the batch (e.g. it cannot serve the model's
  /// query kind).
  Failed,
};

/// Human-readable status name ("ok", "rejected", ...).
const char *requestStatusName(RequestStatus Status);

/// Scheduling class of a request. Interactive traffic overtakes Bulk in
/// every shard's weighted-fair-queueing batcher; Bulk is the default
/// (and what priority-less trace lines load as).
enum class Priority : uint8_t {
  Interactive = 0,
  Bulk = 1,
};

/// Number of priority classes (array extent for per-class state).
inline constexpr size_t kNumPriorities = 2;

/// Human-readable class name ("interactive" / "bulk").
const char *priorityName(Priority ThePriority);

/// Parses a class name as written by priorityName (case-sensitive).
/// Returns false on anything else, leaving \p Out untouched.
bool parsePriority(const char *Text, Priority &Out);

/// What a submitted request resolves to.
struct InferenceResult {
  RequestStatus Status = RequestStatus::Ok;
  /// One (log-)probability per submitted sample; empty unless Ok.
  /// Absent for sampling queries (a sample has no single probability).
  std::vector<double> LogLikelihoods;
  /// Completed rows, row-major [sample][feature]; filled only for MPE
  /// (the argmax assignments) and sampling (the drawn samples) queries.
  std::vector<double> Rows;
  /// Submit-to-completion wall clock.
  uint64_t LatencyNs = 0;
  /// Samples in the micro-batch this request rode in (Ok only).
  uint64_t BatchSamples = 0;
  /// Failure detail for non-Ok statuses.
  std::string Message;
};

/// The future a submit() returns.
using ResultFuture = Future<InferenceResult>;

/// Server tuning knobs. The defaults suit a latency-tolerant
/// throughput-oriented deployment; latency-sensitive callers shrink
/// MaxQueueDelayUs.
struct ServerConfig {
  /// Micro-batch sample cap. A single request larger than the cap is
  /// dispatched as its own (oversized) batch.
  size_t MaxBatchSamples = 256;
  /// Longest time the oldest queued request waits for co-batching before
  /// the batcher dispatches what it has.
  uint64_t MaxQueueDelayUs = 1000;
  /// Bound on outstanding samples (queued + executing) per shard;
  /// 0 = unbounded. A server's total admission capacity is therefore
  /// NumShards * MaxQueueDepth.
  size_t MaxQueueDepth = 4096;
  /// What happens to a submit that would exceed MaxQueueDepth.
  enum class AdmissionPolicy : uint8_t {
    /// Complete the future immediately with RequestStatus::Rejected.
    Reject,
    /// Block the submitting thread until space frees up (or shutdown).
    Block,
  };
  AdmissionPolicy Admission = AdmissionPolicy::Reject;
  /// Engines executing dispatched batches concurrently, per shard.
  unsigned NumWorkers = 2;
  /// Independent shards (batcher + queues + worker pool each). Models
  /// are placed on shards by consistent hashing over the model hash.
  unsigned NumShards = 1;
  /// Weighted-fair-queueing dispatch credits: out of
  /// InteractiveWeight + BulkWeight consecutive dispatches on a shard
  /// with both classes backlogged, Interactive gets InteractiveWeight.
  /// A class without queued work cedes its turn (work conservation).
  unsigned InteractiveWeight = 4;
  unsigned BulkWeight = 1;
  /// Deadline applied to submits that pass DeadlineUs = 0; 0 = none.
  uint64_t DefaultDeadlineUs = 0;
  /// Base seed for sampling-query models. Each dispatched batch draws
  /// with SampleSeed decorrelated by a server-wide batch counter, so
  /// a server run is reproducible given the same arrival order but no
  /// two batches reuse a stream.
  uint64_t SampleSeed = 0;
  /// Merged-model serving (docs/merging.md): structurally-isomorphic
  /// joint/marginal models, which share one kernel with a weight table
  /// each, also share one request queue, so requests for different
  /// models of a merge group coalesce into the same micro-batch (each
  /// row tagged with its model's weight-table index). MPE/sampling
  /// models, whose kernels bake their parameters, keep their own queue
  /// as if merging were off.
  bool MergeModels = false;
};

/// A consistent snapshot of the observability counters — of one shard
/// (getShardStats) or aggregated over all shards (getStats; counters
/// summed, histograms merged, PeakQueueDepth the sum of per-shard
/// peaks, i.e. an upper bound on the instantaneous total).
struct ServerStats {
  uint64_t SubmittedRequests = 0;
  uint64_t SubmittedSamples = 0;
  uint64_t CompletedRequests = 0;
  uint64_t CompletedSamples = 0;
  /// Admission rejections (the backpressure counter under Reject).
  uint64_t RejectedRequests = 0;
  /// Submits that had to wait for queue space (backpressure under
  /// Block).
  uint64_t BlockedSubmits = 0;
  /// Requests completed with an expired deadline.
  uint64_t TimedOutRequests = 0;
  /// Micro-batches dispatched to the worker pool.
  uint64_t BatchesDispatched = 0;
  /// Dispatched micro-batches that carried rows of two or more distinct
  /// models of a merge group (always 0 unless MergeModels is on).
  uint64_t CrossModelBatches = 0;
  /// Outstanding samples (queued + executing) at snapshot time.
  size_t QueueDepth = 0;
  size_t PeakQueueDepth = 0;
  /// Total engine wall clock spent executing batches.
  uint64_t ExecutionNs = 0;
  /// Wall clock since server construction.
  uint64_t ElapsedNs = 0;
  /// Samples per dispatched micro-batch.
  Histogram BatchSizes;
  /// Submit-to-completion latency of Ok requests, in nanoseconds.
  Histogram LatencyNs;
  /// The same latency split by priority class (index =
  /// static_cast<size_t>(Priority)).
  std::array<Histogram, kNumPriorities> LatencyNsByPriority;

  double meanBatchSize() const { return BatchSizes.mean(); }
  double throughputSamplesPerSec() const {
    return ElapsedNs
               ? static_cast<double>(CompletedSamples) * 1e9 /
                     static_cast<double>(ElapsedNs)
               : 0.0;
  }
};

/// The in-process inference server. All public members are thread-safe;
/// submit() is designed to be called from many client threads
/// concurrently.
class InferenceServer {
public:
  /// Creates the server. \p Cache, when non-null, is the (caller-owned,
  /// shared) kernel cache engines are acquired through — it must outlive
  /// the server and is shared by every shard; when null the server owns
  /// a private in-memory cache.
  explicit InferenceServer(ServerConfig Config = {},
                           runtime::KernelCache *Cache = nullptr);

  /// Shuts down (drains) if the caller has not already.
  ~InferenceServer();

  InferenceServer(const InferenceServer &) = delete;
  InferenceServer &operator=(const InferenceServer &) = delete;

  /// Registers \p Model under \p Name, acquiring its engine through the
  /// kernel cache (compiling at most once per cache key) and placing it
  /// on the shard the consistent-hash ring maps its model hash to (its
  /// content hash; under MergeModels a merge group's first member is
  /// placed by its structural hash and later members join its shard).
  /// GPU-targeted models whose device config leaves NumStreams at 0
  /// (auto) are compiled with one stream per shard worker, so
  /// NumWorkers > 1 overlaps on the simulated device. Fails on
  /// duplicate names, invalid options, or compilation failure. The
  /// model is not retained — only the compiled engine is.
  std::optional<Error> addModel(const std::string &Name,
                                const spn::Model &Model,
                                const spn::QueryConfig &Query,
                                const runtime::CompilerOptions &Options);

  /// True when a model named \p Name is registered.
  bool hasModel(const std::string &Name) const;

  /// Feature count of the registered model, 0 when unknown.
  unsigned getNumFeatures(const std::string &Name) const;

  /// Shard index the named model was placed on; nullopt when unknown.
  std::optional<size_t> getModelShard(const std::string &Name) const;

  /// Weight-table index of the named model inside its merged kernel;
  /// nullopt when the model is unknown or serves through an unmerged
  /// per-model kernel. Two models with the same shard and the same
  /// merged entry (distinct table indices) share one compiled kernel.
  std::optional<int32_t>
  getModelTableIndex(const std::string &Name) const;

  /// Submits \p NumSamples samples (row-major [sample][feature], copied)
  /// against model \p Name, in scheduling class \p ThePriority.
  /// \p DeadlineUs bounds the time the request may spend queued (0 uses
  /// ServerConfig::DefaultDeadlineUs). The returned future always
  /// completes — with Ok results, or with a Rejected/TimedOut/ShutDown
  /// status per the policies above.
  ResultFuture submit(const std::string &Name, const double *Samples,
                      size_t NumSamples, uint64_t DeadlineUs = 0,
                      Priority ThePriority = Priority::Bulk);

  /// Stops admission, drains every queued and in-flight request on every
  /// shard (each future completes), and joins the batcher and worker
  /// threads. Idempotent; called by the destructor.
  void shutdown();

  /// Aggregated snapshot over all shards (plus the routing-level
  /// counters for submits no shard ever saw: unknown models, empty
  /// requests, shutdown refusals).
  ServerStats getStats() const;

  /// Shards this server runs (>= 1; the clamped configuration value).
  size_t getNumShards() const { return Shards.size(); }

  /// Snapshot of one shard's counters. \p ShardIndex < getNumShards().
  ServerStats getShardStats(size_t ShardIndex) const;

  /// Per-shard snapshots, index = shard id.
  std::vector<ServerStats> getAllShardStats() const;

  const ServerConfig &getConfig() const { return Config; }

  /// The cache engines are acquired through (shared or owned).
  runtime::KernelCache &getKernelCache() { return *Cache; }

  /// Deterministic consistent-hash placement: the shard (of
  /// \p NumShards) a model with hash \p ModelHash lands on. Exposed for
  /// tests and capacity planning.
  static size_t placeOnShard(uint64_t ModelHash, size_t NumShards);

private:
  using Clock = std::chrono::steady_clock;

  /// One independent shard: queues + batcher + worker pool.
  struct Shard;
  /// One registered model (owned by its shard).
  struct ModelEntry;
  /// One queued request.
  struct Request;
  /// A formed micro-batch on its way to a worker.
  struct Batch;
  /// Routing-table entry: where a model name lives. Under merged
  /// serving several names route to one shared ModelEntry, each with
  /// its own weight-table index; -1 marks an unmerged route.
  struct Route {
    size_t ShardIndex = 0;
    ModelEntry *Model = nullptr;
    unsigned NumFeatures = 0;
    int32_t TableIndex = -1;
  };

  /// addModel's merged-serving path: compiles (or joins) the merge
  /// group's shared kernel and routes \p Name to the group's shared
  /// ModelEntry with its own weight-table index.
  std::optional<Error>
  addMergedModel(const std::string &Name, const spn::Model &Model,
                 const spn::QueryConfig &Query,
                 const runtime::CompilerOptions &Options);

  void batcherLoop(Shard &TheShard);
  /// Picks the next (model, priority) pair to dispatch on \p TheShard
  /// per the weighted-fair-queueing credits, or returns false. Caller
  /// holds the shard mutex.
  bool selectReady(Shard &TheShard, Clock::time_point Now,
                   ModelEntry *&Model, Priority &ThePriority);
  /// Pops a dispatchable micro-batch from \p Model's \p ThePriority
  /// queue. Caller holds the shard mutex.
  Batch formBatch(Shard &TheShard, ModelEntry &Model,
                  Priority ThePriority);
  /// Executes \p TheBatch on its model's engine and completes the
  /// futures. Runs on a worker thread, no lock held.
  void runBatch(Shard &TheShard, Batch TheBatch);
  /// Completes queued requests whose deadline has passed. Caller holds
  /// the shard mutex; the promises are completed after the caller
  /// releases it.
  void collectExpired(Shard &TheShard, Clock::time_point Now,
                      std::vector<Request> &Expired);
  /// Completes \p TheRequest with a non-Ok \p Status. No lock required.
  static void failRequest(Request &TheRequest, RequestStatus Status,
                          std::string Message);

  ServerConfig Config;
  /// Owned cache when the caller did not supply one.
  std::unique_ptr<runtime::KernelCache> OwnedCache;
  runtime::KernelCache *Cache;

  /// The shards; fixed at construction. Each owns its mutex, queues,
  /// batcher thread, worker pool and stats.
  std::vector<std::unique_ptr<Shard>> Shards;

  /// Name -> placement. Guarded by RoutingMutex; the hot submit path
  /// takes it only for the map lookup, never while touching a shard.
  mutable std::mutex RoutingMutex;
  std::unordered_map<std::string, Route> Routing;
  /// Storage for every registered model (shards reference, this owns).
  /// Guarded by RoutingMutex; entries are never removed.
  std::vector<std::unique_ptr<ModelEntry>> OwnedModels;
  /// Merged serving: engine identity -> the shared ModelEntry serving
  /// that merge group. Two merged addModel calls whose kernels share
  /// one engine (same structural hash, query and options) share the
  /// entry — and therefore its queues and batches. Guarded by
  /// RoutingMutex.
  std::unordered_map<const void *, ModelEntry *> MergedGroups;
  /// Submits that never reached a shard (unknown model, empty request,
  /// shutdown refusal), counted here so the aggregate stays exact.
  /// Guarded by RoutingMutex.
  uint64_t RoutingSubmittedRequests = 0;
  uint64_t RoutingSubmittedSamples = 0;
  uint64_t RoutingRejectedRequests = 0;

  /// Server-wide counter decorrelating the sampling seed per batch
  /// across all shards.
  std::atomic<uint64_t> SampleBatchCounter{0};
  std::atomic<bool> ShuttingDown{false};
  bool ShutdownComplete = false;
  /// Serializes concurrent shutdown() calls (user thread + destructor).
  std::mutex ShutdownMutex;

  Clock::time_point StartTime;
};

} // namespace serving
} // namespace spnc

#endif // SPNC_SERVING_INFERENCESERVER_H
