//===- InferenceServer.cpp - Sharded in-process serving with micro-batching ----===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "serving/InferenceServer.h"

#include "support/Hashing.h"
#include "support/ThreadPool.h"
#include "vm/Traceback.h"

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <limits>

using namespace spnc;
using namespace spnc::serving;

const char *spnc::serving::requestStatusName(RequestStatus Status) {
  switch (Status) {
  case RequestStatus::Ok:
    return "ok";
  case RequestStatus::Rejected:
    return "rejected";
  case RequestStatus::TimedOut:
    return "timed-out";
  case RequestStatus::ShutDown:
    return "shut-down";
  case RequestStatus::Failed:
    return "failed";
  }
  return "<invalid>";
}

const char *spnc::serving::priorityName(Priority ThePriority) {
  switch (ThePriority) {
  case Priority::Interactive:
    return "interactive";
  case Priority::Bulk:
    return "bulk";
  }
  return "<invalid>";
}

bool spnc::serving::parsePriority(const char *Text, Priority &Out) {
  if (std::strcmp(Text, "interactive") == 0) {
    Out = Priority::Interactive;
    return true;
  }
  if (std::strcmp(Text, "bulk") == 0) {
    Out = Priority::Bulk;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Internal request/batch/shard state
//===----------------------------------------------------------------------===//

/// One queued request: the copied input rows, the promise the submitter
/// holds the future of, and the timing the batcher schedules by.
struct InferenceServer::Request {
  ModelEntry *Model = nullptr;
  std::vector<double> Input;
  size_t NumSamples = 0;
  Priority ThePriority = Priority::Bulk;
  /// Weight-table index of the request's model inside a merged kernel;
  /// -1 on unmerged entries (docs/merging.md).
  int32_t TableIndex = -1;
  Promise<InferenceResult> ResultPromise;
  Clock::time_point Enqueued;
  /// time_point::max() when the request carries no deadline.
  Clock::time_point Deadline;
};

/// One registered model: the cache-acquired engine plus one request
/// queue per priority class. Queues and QueuedSamples are guarded by
/// the owning shard's mutex.
struct InferenceServer::ModelEntry {
  std::string Name;
  runtime::CompiledKernel Kernel;
  /// The query the engine was compiled for; runBatch requests its Kind.
  spn::QueryConfig Query;
  unsigned NumFeatures = 0;
  /// True for the shared entry of a merge group: requests carry a
  /// weight-table index and batches run with per-row table indices.
  bool Merged = false;
  /// Model names routed to this entry (1 unless Merged); Name is the
  /// first. Guarded by RoutingMutex, read only for error messages.
  size_t NumMembers = 1;
  /// The shard whose queues hold this entry's requests.
  size_t ShardIndex = 0;
  std::array<std::deque<Request>, kNumPriorities> Queues;
  /// Samples queued (not yet formed into a batch), per class.
  std::array<size_t, kNumPriorities> QueuedSamples{};
};

/// A formed micro-batch: requests of one model and one priority class,
/// executed as one engine call.
struct InferenceServer::Batch {
  ModelEntry *Model = nullptr;
  Priority ThePriority = Priority::Bulk;
  std::vector<Request> Requests;
  size_t TotalSamples = 0;
};

/// One shard: an independent batcher + queues + worker pool with its own
/// mutex, so shards never contend with each other. Everything below
/// Mutex is guarded by it (the worker pool and batcher thread are
/// touched only at construction/shutdown).
struct InferenceServer::Shard {
  size_t Index = 0;
  mutable std::mutex Mutex;
  /// Wakes the shard's batcher on new work or shutdown.
  std::condition_variable WorkAvailable;
  /// Wakes submitters blocked on this shard when queue space frees up.
  std::condition_variable SpaceAvailable;

  /// Models placed on this shard, in registration order (the per-class
  /// round-robin order).
  std::vector<ModelEntry *> Models;

  /// Admission-counted samples: queued plus executing.
  size_t OutstandingSamples = 0;
  /// Per-class round-robin cursor into Models.
  std::array<size_t, kNumPriorities> NextModel{};
  /// Weighted-fair-queueing dispatch credits, refilled from the
  /// configured weights when both classes are spent.
  std::array<unsigned, kNumPriorities> Credits{};
  /// Batches handed to the worker pool but not yet completed. The
  /// batcher stops dispatching at NumWorkers + 1 (workers busy plus
  /// one queued) so that under backlog the WFQ decision happens at
  /// dispatch time — without this cap the whole backlog would sink
  /// into the pool's FIFO queue and priority order would be decided
  /// by arrival after all.
  size_t InFlightBatches = 0;
  bool ShuttingDown = false;
  /// When the waiting batcher wakes: the time it waits until, or
  /// time_point::max() while it waits for a notification only;
  /// time_point::min() while it runs. A submit notifies it only when
  /// its request is due before this.
  Clock::time_point BatcherWakeAt = Clock::time_point::min();
  /// Queued requests that carry a deadline. The deadline walks run only
  /// while it is non-zero.
  size_t QueuedDeadlines = 0;

  ServerStats Stats;

  std::unique_ptr<ThreadPool> Workers;
  std::thread Batcher;

  /// True while the batcher holds off dispatching: NumWorkers + 1
  /// batches are in flight.
  bool throttled(unsigned NumWorkers) const {
    return InFlightBatches >= NumWorkers + size_t(1);
  }
};

//===----------------------------------------------------------------------===//
// Construction / registration / placement
//===----------------------------------------------------------------------===//

InferenceServer::InferenceServer(ServerConfig TheConfig,
                                 runtime::KernelCache *SharedCache)
    : Config(TheConfig) {
  // Clamps are warned about, not silent: a tuner (or operator) that
  // asked for an illegal value should see the knob it actually got.
  if (Config.MaxBatchSamples < 1) {
    std::fprintf(stderr,
                 "warning: InferenceServer clamped MaxBatchSamples "
                 "from %zu to 1\n",
                 Config.MaxBatchSamples);
    Config.MaxBatchSamples = 1;
  }
  if (Config.NumWorkers < 1) {
    std::fprintf(stderr,
                 "warning: InferenceServer clamped NumWorkers from %u "
                 "to 1\n",
                 Config.NumWorkers);
    Config.NumWorkers = 1;
  }
  if (Config.NumShards < 1) {
    std::fprintf(stderr,
                 "warning: InferenceServer clamped NumShards from %u "
                 "to 1\n",
                 Config.NumShards);
    Config.NumShards = 1;
  }
  if (Config.InteractiveWeight < 1) {
    std::fprintf(stderr,
                 "warning: InferenceServer clamped InteractiveWeight "
                 "from %u to 1\n",
                 Config.InteractiveWeight);
    Config.InteractiveWeight = 1;
  }
  if (Config.BulkWeight < 1) {
    std::fprintf(stderr,
                 "warning: InferenceServer clamped BulkWeight from %u "
                 "to 1\n",
                 Config.BulkWeight);
    Config.BulkWeight = 1;
  }
  if (SharedCache) {
    Cache = SharedCache;
  } else {
    OwnedCache = std::make_unique<runtime::KernelCache>();
    Cache = OwnedCache.get();
  }
  StartTime = Clock::now();
  Shards.reserve(Config.NumShards);
  for (unsigned I = 0; I < Config.NumShards; ++I) {
    auto TheShard = std::make_unique<Shard>();
    TheShard->Index = I;
    TheShard->Credits = {Config.InteractiveWeight, Config.BulkWeight};
    TheShard->Workers = std::make_unique<ThreadPool>(Config.NumWorkers);
    Shard *Raw = TheShard.get();
    TheShard->Batcher = std::thread([this, Raw] { batcherLoop(*Raw); });
    Shards.push_back(std::move(TheShard));
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

size_t InferenceServer::placeOnShard(uint64_t ModelHash,
                                     size_t NumShards) {
  assert(NumShards > 0 && "placement needs at least one shard");
  if (NumShards == 1)
    return 0;
  // Consistent-hash ring with virtual nodes: each shard owns
  // kVirtualNodes deterministic points; a model lands on the owner of
  // the first point at or after its hash (wrapping). Points come from
  // splitmix64 over the (shard, virtual-node) key, so the placement is
  // stable across runs and processes, and 256 points per shard keep the
  // per-shard load within ~10% of even. Placement runs once per
  // addModel, so the O(NumShards * kVirtualNodes) scan is irrelevant.
  constexpr size_t kVirtualNodes = 256;
  uint64_t Best = 0;
  size_t BestShard = 0;
  bool HaveBest = false;
  uint64_t WrapBest = 0;
  size_t WrapShard = 0;
  bool HaveWrap = false;
  for (size_t S = 0; S < NumShards; ++S) {
    for (size_t V = 0; V < kVirtualNodes; ++V) {
      uint64_t Point =
          splitmix64(static_cast<uint64_t>(S) * 0x100000001ULL +
                     static_cast<uint64_t>(V));
      // Track the smallest point overall (the wrap-around owner) and
      // the smallest point >= the model hash (the successor owner).
      if (!HaveWrap || Point < WrapBest) {
        WrapBest = Point;
        WrapShard = S;
        HaveWrap = true;
      }
      if (Point >= ModelHash && (!HaveBest || Point < Best)) {
        Best = Point;
        BestShard = S;
        HaveBest = true;
      }
    }
  }
  return HaveBest ? BestShard : WrapShard;
}

std::optional<Error>
InferenceServer::addModel(const std::string &Name,
                          const spn::Model &Model,
                          const spn::QueryConfig &Query,
                          const runtime::CompilerOptions &Options) {
  if (ShuttingDown.load())
    return makeError("cannot register model '" + Name +
                     "': server is shutting down");
  {
    std::lock_guard<std::mutex> Lock(RoutingMutex);
    if (Routing.count(Name))
      return makeError("model '" + Name + "' is already registered");
  }

  // Per-worker device streams: a GPU model whose device config leaves
  // NumStreams at 0 (auto) gets one stream per shard worker, so
  // NumWorkers > 1 overlaps on the simulated device instead of
  // serializing on the default stream. An explicit NumStreams wins.
  runtime::CompilerOptions Effective = Options;
  if (Effective.TheTarget == runtime::Target::GPU &&
      Effective.Device.NumStreams == 0)
    Effective.Device.NumStreams = Config.NumWorkers;

  // Merged serving for likelihood queries, whose kernels take weight
  // tables (docs/merging.md). MPE and sampling fall through to the
  // per-model path below, merging or not.
  if (Config.MergeModels && spn::isLikelihood(Query.Kind))
    return addMergedModel(Name, Model, Query, Effective);

  // Compile (or fetch) outside the locks: compilation is slow and the
  // cache serializes same-key work internally. The cache is shared by
  // every shard, so two models with the same cache key compile once no
  // matter where placement puts them.
  Expected<runtime::CompiledKernel> Kernel =
      Cache->getOrCompile(Model, Query, Effective);
  if (!Kernel)
    return Kernel.getError();

  size_t ShardIndex =
      placeOnShard(runtime::KernelCache::contentHash(Model), Shards.size());
  Shard &TheShard = *Shards[ShardIndex];

  auto Entry = std::make_unique<ModelEntry>();
  Entry->Name = Name;
  Entry->Kernel = Kernel.takeValue();
  Entry->Query = Query;
  Entry->NumFeatures = Model.getNumFeatures();
  Entry->ShardIndex = ShardIndex;
  ModelEntry *Raw = Entry.get();

  // Publish: route first under RoutingMutex (re-checking the duplicate
  // race), then hand the entry to its shard. A name is only routable
  // once its entry pointer is valid, so ordering here is safe.
  {
    std::lock_guard<std::mutex> Lock(RoutingMutex);
    if (ShuttingDown.load())
      return makeError("cannot register model '" + Name +
                       "': server is shutting down");
    auto [It, Inserted] = Routing.emplace(
        Name, Route{ShardIndex, Raw, Entry->NumFeatures});
    (void)It;
    if (!Inserted)
      return makeError("model '" + Name + "' is already registered");
    OwnedModels.push_back(std::move(Entry));
  }
  {
    std::lock_guard<std::mutex> Lock(TheShard.Mutex);
    TheShard.Models.push_back(Raw);
  }
  return std::nullopt;
}

std::optional<Error>
InferenceServer::addMergedModel(const std::string &Name,
                                const spn::Model &Model,
                                const spn::QueryConfig &Query,
                                const runtime::CompilerOptions &Options) {
  // One kernel per merge group: the cache keys likelihood kernels on
  // the structural hash, so every isomorphic model returns the same
  // engine with its own weight-table index (docs/merging.md).
  Expected<runtime::CompiledKernel> Merged =
      Cache->getOrCompile(Model, Query, Options);
  if (!Merged)
    return Merged.getError();

  // Placement: a group's first member is placed by the structural hash
  // (the kernel's key), and every later member joins the group's entry
  // and shard, where the group's shared queue lives. Only the first
  // member pays for a hash.
  const void *EngineKey = Merged->getEngineShared().get();
  std::optional<size_t> ShardIndex;
  {
    std::lock_guard<std::mutex> Lock(RoutingMutex);
    auto GroupIt = MergedGroups.find(EngineKey);
    if (GroupIt != MergedGroups.end())
      ShardIndex = GroupIt->second->ShardIndex;
  }
  if (!ShardIndex)
    ShardIndex = placeOnShard(runtime::KernelCache::structuralHash(Model),
                              Shards.size());

  std::unique_ptr<ModelEntry> Fresh;
  ModelEntry *Raw = nullptr;
  {
    std::lock_guard<std::mutex> Lock(RoutingMutex);
    if (ShuttingDown.load())
      return makeError("cannot register model '" + Name +
                       "': server is shutting down");
    auto GroupIt = MergedGroups.find(EngineKey);
    if (GroupIt != MergedGroups.end()) {
      // An isomorphic sibling already serves this group (perhaps one
      // registered since the look-up above); the new name joins its
      // entry (and therefore its shard, queues and batches).
      Raw = GroupIt->second;
      assert(Raw->NumFeatures == Model.getNumFeatures() &&
             "isomorphic models disagree on feature count");
    } else {
      Fresh = std::make_unique<ModelEntry>();
      Fresh->Name = Name;
      Fresh->Kernel = *Merged;
      Fresh->Query = Query;
      Fresh->NumFeatures = Model.getNumFeatures();
      Fresh->Merged = true;
      Fresh->ShardIndex = *ShardIndex;
      Raw = Fresh.get();
    }
    auto [It, Inserted] = Routing.emplace(
        Name, Route{Raw->ShardIndex, Raw, Raw->NumFeatures,
                    Merged->getTableIndex()});
    (void)It;
    if (!Inserted)
      return makeError("model '" + Name + "' is already registered");
    if (!Fresh) {
      ++Raw->NumMembers;
      return std::nullopt;
    }
    MergedGroups.emplace(EngineKey, Raw);
    OwnedModels.push_back(std::move(Fresh));
  }
  Shard &TheShard = *Shards[Raw->ShardIndex];
  std::lock_guard<std::mutex> Lock(TheShard.Mutex);
  TheShard.Models.push_back(Raw);
  return std::nullopt;
}

bool InferenceServer::hasModel(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(RoutingMutex);
  return Routing.count(Name) != 0;
}

unsigned InferenceServer::getNumFeatures(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(RoutingMutex);
  auto It = Routing.find(Name);
  return It == Routing.end() ? 0 : It->second.NumFeatures;
}

std::optional<size_t>
InferenceServer::getModelShard(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(RoutingMutex);
  auto It = Routing.find(Name);
  if (It == Routing.end())
    return std::nullopt;
  return It->second.ShardIndex;
}

std::optional<int32_t>
InferenceServer::getModelTableIndex(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(RoutingMutex);
  auto It = Routing.find(Name);
  if (It == Routing.end() || It->second.TableIndex < 0)
    return std::nullopt;
  return It->second.TableIndex;
}

//===----------------------------------------------------------------------===//
// Submission / admission control
//===----------------------------------------------------------------------===//

namespace {

/// A future completed on the spot (rejections, shutdown refusals).
ResultFuture immediateResult(RequestStatus Status, std::string Message) {
  Promise<InferenceResult> ThePromise;
  ResultFuture TheFuture = ThePromise.getFuture();
  InferenceResult Result;
  Result.Status = Status;
  Result.Message = std::move(Message);
  ThePromise.set(std::move(Result));
  return TheFuture;
}

} // namespace

ResultFuture InferenceServer::submit(const std::string &Name,
                                     const double *Samples,
                                     size_t NumSamples,
                                     uint64_t DeadlineUs,
                                     Priority ThePriority) {
  // Route under the (cheap, map-lookup-only) routing lock. Submits that
  // never reach a shard are counted here so the aggregate stays exact.
  Route TheRoute;
  {
    std::lock_guard<std::mutex> Lock(RoutingMutex);
    if (ShuttingDown.load()) {
      ++RoutingSubmittedRequests;
      RoutingSubmittedSamples += NumSamples;
      return immediateResult(RequestStatus::ShutDown,
                             "server is shutting down");
    }
    auto It = Routing.find(Name);
    if (It == Routing.end()) {
      ++RoutingSubmittedRequests;
      RoutingSubmittedSamples += NumSamples;
      ++RoutingRejectedRequests;
      return immediateResult(RequestStatus::Rejected,
                             "unknown model '" + Name + "'");
    }
    if (NumSamples == 0) {
      ++RoutingSubmittedRequests;
      ++RoutingRejectedRequests;
      return immediateResult(RequestStatus::Rejected,
                             "request carries no samples");
    }
    TheRoute = It->second;
  }

  Shard &TheShard = *Shards[TheRoute.ShardIndex];
  std::unique_lock<std::mutex> Lock(TheShard.Mutex);
  ++TheShard.Stats.SubmittedRequests;
  TheShard.Stats.SubmittedSamples += NumSamples;

  if (TheShard.ShuttingDown)
    return immediateResult(RequestStatus::ShutDown,
                           "server is shutting down");

  if (Config.MaxQueueDepth > 0 &&
      TheShard.OutstandingSamples + NumSamples > Config.MaxQueueDepth) {
    if (Config.Admission == ServerConfig::AdmissionPolicy::Reject) {
      ++TheShard.Stats.RejectedRequests;
      return immediateResult(
          RequestStatus::Rejected,
          "queue full (" +
              std::to_string(TheShard.OutstandingSamples) + " of " +
              std::to_string(Config.MaxQueueDepth) +
              " samples outstanding on shard " +
              std::to_string(TheShard.Index) + ")");
    }
    ++TheShard.Stats.BlockedSubmits;
    TheShard.SpaceAvailable.wait(Lock, [&] {
      return TheShard.ShuttingDown ||
             TheShard.OutstandingSamples + NumSamples <=
                 Config.MaxQueueDepth;
    });
    if (TheShard.ShuttingDown)
      return immediateResult(RequestStatus::ShutDown,
                             "server shut down while waiting for queue "
                             "space");
  }

  ModelEntry &Model = *TheRoute.Model;
  Request TheRequest;
  TheRequest.Model = &Model;
  TheRequest.Input.assign(Samples,
                          Samples + NumSamples * Model.NumFeatures);
  TheRequest.NumSamples = NumSamples;
  TheRequest.ThePriority = ThePriority;
  TheRequest.TableIndex = TheRoute.TableIndex;
  TheRequest.Enqueued = Clock::now();
  uint64_t EffectiveDeadlineUs =
      DeadlineUs ? DeadlineUs : Config.DefaultDeadlineUs;
  TheRequest.Deadline =
      EffectiveDeadlineUs
          ? TheRequest.Enqueued +
                std::chrono::microseconds(EffectiveDeadlineUs)
          : Clock::time_point::max();
  ResultFuture TheFuture = TheRequest.ResultPromise.getFuture();

  size_t Class = static_cast<size_t>(ThePriority);
  std::deque<Request> &Queue = Model.Queues[Class];
  Queue.push_back(std::move(TheRequest));
  Model.QueuedSamples[Class] += NumSamples;
  if (Queue.back().Deadline != Clock::time_point::max())
    ++TheShard.QueuedDeadlines;
  TheShard.OutstandingSamples += NumSamples;
  TheShard.Stats.PeakQueueDepth = std::max(
      TheShard.Stats.PeakQueueDepth, TheShard.OutstandingSamples);
  // The batcher re-reads every queue whenever it wakes, so it needs a
  // notification only when this request is due before it would wake
  // anyway.
  if (dueTime(TheShard, Model, Queue.back()) < TheShard.BatcherWakeAt)
    TheShard.WorkAvailable.notify_one();
  return TheFuture;
}

InferenceServer::Clock::time_point
InferenceServer::dueTime(const Shard &TheShard, const ModelEntry &Model,
                         const Request &TheRequest) const {
  Clock::time_point Due = TheRequest.Deadline;
  // While throttled, only a batch completion (which notifies) lets the
  // batcher dispatch.
  if (TheShard.throttled(Config.NumWorkers))
    return Due;
  size_t Class = static_cast<size_t>(TheRequest.ThePriority);
  const Request &Front = Model.Queues[Class].front();
  if (Model.QueuedSamples[Class] >= Config.MaxBatchSamples)
    return std::min(Due, Front.Enqueued);
  return std::min(Due, Front.Enqueued + std::chrono::microseconds(
                                            Config.MaxQueueDelayUs));
}

//===----------------------------------------------------------------------===//
// Batcher (per shard)
//===----------------------------------------------------------------------===//

void InferenceServer::failRequest(Request &TheRequest,
                                  RequestStatus Status,
                                  std::string Message) {
  InferenceResult Result;
  Result.Status = Status;
  Result.Message = std::move(Message);
  Result.LatencyNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now() - TheRequest.Enqueued)
          .count());
  TheRequest.ResultPromise.set(std::move(Result));
}

void InferenceServer::collectExpired(Shard &TheShard,
                                     Clock::time_point Now,
                                     std::vector<Request> &Expired) {
  if (TheShard.QueuedDeadlines == 0)
    return;
  for (ModelEntry *Model : TheShard.Models) {
    for (size_t Class = 0; Class < kNumPriorities; ++Class) {
      std::deque<Request> &Queue = Model->Queues[Class];
      for (auto It = Queue.begin(); It != Queue.end();) {
        if (It->Deadline > Now) {
          ++It;
          continue;
        }
        Model->QueuedSamples[Class] -= It->NumSamples;
        TheShard.OutstandingSamples -= It->NumSamples;
        --TheShard.QueuedDeadlines;
        ++TheShard.Stats.TimedOutRequests;
        Expired.push_back(std::move(*It));
        It = Queue.erase(It);
      }
    }
  }
  if (!Expired.empty())
    TheShard.SpaceAvailable.notify_all();
}

bool InferenceServer::selectReady(Shard &TheShard, Clock::time_point Now,
                                  ModelEntry *&Model,
                                  Priority &ThePriority) {
  std::chrono::microseconds Delay(Config.MaxQueueDelayUs);
  // A (model, class) queue is dispatchable when the sample cap is
  // reached, the oldest rider has waited out the batching window, or
  // the shard is draining.
  auto FindReady = [&](size_t Class) -> ModelEntry * {
    for (size_t I = 0; I < TheShard.Models.size(); ++I) {
      ModelEntry *Candidate =
          TheShard.Models[(TheShard.NextModel[Class] + I) %
                          TheShard.Models.size()];
      std::deque<Request> &Queue = Candidate->Queues[Class];
      if (Queue.empty())
        continue;
      if (TheShard.ShuttingDown ||
          Candidate->QueuedSamples[Class] >= Config.MaxBatchSamples ||
          Queue.front().Enqueued + Delay <= Now) {
        TheShard.NextModel[Class] =
            (TheShard.NextModel[Class] + I + 1) %
            TheShard.Models.size();
        return Candidate;
      }
    }
    return nullptr;
  };

  // Weighted fair queueing over the two classes: a dispatch charges the
  // class one credit; when both classes are spent, refill from the
  // configured weights. Pass 0 honors credits; pass 1 is the
  // work-conserving fallback — if only a spent (or only one) class has
  // ready work, it dispatches anyway without charge, keeping the other
  // class's credit for when its traffic returns.
  if (TheShard.Credits[0] == 0 && TheShard.Credits[1] == 0)
    TheShard.Credits = {Config.InteractiveWeight, Config.BulkWeight};
  for (int Pass = 0; Pass < 2; ++Pass) {
    for (size_t Class = 0; Class < kNumPriorities; ++Class) {
      if (Pass == 0 && TheShard.Credits[Class] == 0)
        continue;
      if (ModelEntry *Candidate = FindReady(Class)) {
        if (Pass == 0)
          --TheShard.Credits[Class];
        Model = Candidate;
        ThePriority = static_cast<Priority>(Class);
        return true;
      }
    }
  }
  return false;
}

InferenceServer::Batch InferenceServer::formBatch(Shard &TheShard,
                                                  ModelEntry &Model,
                                                  Priority ThePriority) {
  size_t Class = static_cast<size_t>(ThePriority);
  std::deque<Request> &Queue = Model.Queues[Class];
  Batch TheBatch;
  TheBatch.Model = &Model;
  TheBatch.ThePriority = ThePriority;
  while (!Queue.empty()) {
    Request &Front = Queue.front();
    // Always take at least one request; a single oversized request
    // becomes its own (over-cap) batch rather than being unservable.
    if (!TheBatch.Requests.empty() &&
        TheBatch.TotalSamples + Front.NumSamples >
            Config.MaxBatchSamples)
      break;
    TheBatch.TotalSamples += Front.NumSamples;
    Model.QueuedSamples[Class] -= Front.NumSamples;
    if (Front.Deadline != Clock::time_point::max())
      --TheShard.QueuedDeadlines;
    TheBatch.Requests.push_back(std::move(Front));
    Queue.pop_front();
  }
  return TheBatch;
}

void InferenceServer::batcherLoop(Shard &TheShard) {
#ifdef __linux__
  // Only the window timer below dispatches a batch under the cap, and
  // the default 50 us timer slack would fire it up to that much late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
  std::unique_lock<std::mutex> Lock(TheShard.Mutex);
  for (;;) {
    Clock::time_point Now = Clock::now();

    // 1. Expired requests leave the queue before they can occupy a
    // batch slot. Their promises are completed outside the lock.
    std::vector<Request> Expired;
    collectExpired(TheShard, Now, Expired);
    if (!Expired.empty()) {
      Lock.unlock();
      for (Request &TheRequest : Expired)
        failRequest(TheRequest, RequestStatus::TimedOut,
                    "deadline expired after " +
                        std::to_string(
                            std::chrono::duration_cast<
                                std::chrono::microseconds>(
                                Now - TheRequest.Enqueued)
                                .count()) +
                        " us in queue");
      Lock.lock();
      continue;
    }

    // 2. Dispatch the next ready (model, class) pair per the WFQ
    // credits; round-robin within the class keeps one hot model from
    // starving the others. Dispatch is throttled to the workers plus
    // one queued batch: requests the workers cannot start yet stay in
    // the class queues, where a later Interactive arrival can still
    // overtake them.
    bool Throttled = TheShard.throttled(Config.NumWorkers);
    ModelEntry *Ready = nullptr;
    Priority ReadyPriority = Priority::Bulk;
    if (!Throttled && selectReady(TheShard, Now, Ready, ReadyPriority)) {
      auto TheBatch = std::make_shared<Batch>(
          formBatch(TheShard, *Ready, ReadyPriority));
      ++TheShard.InFlightBatches;
      ++TheShard.Stats.BatchesDispatched;
      TheShard.Stats.BatchSizes.record(TheBatch->TotalSamples);
      Lock.unlock();
      // shared_ptr wrapper: std::function requires a copyable callable,
      // and a Batch owns move-only promises.
      TheShard.Workers->submit([this, &TheShard, TheBatch] {
        runBatch(TheShard, std::move(*TheBatch));
      });
      Lock.lock();
      continue;
    }

    // 3. Nothing dispatchable. Exit once draining is complete,
    // otherwise sleep until the earliest batching window or deadline
    // comes due. While throttled only deadlines matter — batch
    // completion wakes WorkAvailable, so the batching windows need no
    // timer (re-arming them here would spin when the window is
    // already open). The wake time is published for submit, which
    // notifies only for a request due before it.
    std::chrono::microseconds Delay(Config.MaxQueueDelayUs);
    bool AnyQueued = false;
    Clock::time_point WakeAt = Clock::time_point::max();
    for (ModelEntry *Model : TheShard.Models) {
      for (size_t Class = 0; Class < kNumPriorities; ++Class) {
        const std::deque<Request> &Queue = Model->Queues[Class];
        if (Queue.empty())
          continue;
        AnyQueued = true;
        if (!Throttled)
          WakeAt = std::min(WakeAt, Queue.front().Enqueued + Delay);
        if (TheShard.QueuedDeadlines != 0)
          for (const Request &TheRequest : Queue)
            WakeAt = std::min(WakeAt, TheRequest.Deadline);
      }
    }
    if (TheShard.ShuttingDown && !AnyQueued)
      return;
    TheShard.BatcherWakeAt = WakeAt;
    if (WakeAt == Clock::time_point::max())
      TheShard.WorkAvailable.wait(Lock);
    else
      TheShard.WorkAvailable.wait_until(Lock, WakeAt);
    TheShard.BatcherWakeAt = Clock::time_point::min();
    ++TheShard.Stats.BatcherWakeups;
  }
}

void InferenceServer::runBatch(Shard &TheShard, Batch TheBatch) {
  ModelEntry &Model = *TheBatch.Model;
  size_t NumFeatures = Model.NumFeatures;

  // Merged batches mix requests for different models of one merge
  // group. The engine takes rows in any table order; grouping
  // same-model rows together (stable within a model, so FIFO order
  // inside each model holds) makes more of its W-row blocks
  // single-table. The output scatter below walks the same sorted order,
  // so each rider still gets its own rows back.
  if (Model.Merged)
    std::stable_sort(TheBatch.Requests.begin(), TheBatch.Requests.end(),
                     [](const Request &A, const Request &B) {
                       return A.TableIndex < B.TableIndex;
                     });

  // Gather the request rows into one contiguous batch buffer (plus the
  // per-row weight-table indices when merged).
  std::vector<double> Input(TheBatch.TotalSamples * NumFeatures);
  std::vector<double> Output(TheBatch.TotalSamples);
  std::vector<uint32_t> TableIndices;
  if (Model.Merged)
    TableIndices.reserve(TheBatch.TotalSamples);
  size_t DistinctTables = 0;
  size_t Offset = 0;
  for (const Request &TheRequest : TheBatch.Requests) {
    std::copy(TheRequest.Input.begin(), TheRequest.Input.end(),
              Input.begin() +
                  static_cast<ptrdiff_t>(Offset * NumFeatures));
    if (Model.Merged) {
      if (TableIndices.empty() ||
          TableIndices.back() !=
              static_cast<uint32_t>(TheRequest.TableIndex))
        ++DistinctTables;
      TableIndices.insert(TableIndices.end(), TheRequest.NumSamples,
                          static_cast<uint32_t>(TheRequest.TableIndex));
    }
    Offset += TheRequest.NumSamples;
  }

  // One request of the query kind the model was compiled for.
  // Likelihood queries fill Output only; MPE fills Rows (assignments)
  // and Output (log-probabilities); sampling fills Rows only, seeded
  // from the configured base seed decorrelated per dispatched batch (the
  // counter is server-wide, so no two batches of any shard share a
  // stream).
  runtime::RunRequest Run;
  Run.Kind = Model.Query.Kind;
  Run.Input = Input.data();
  Run.Output = Output.data();
  Run.NumSamples = TheBatch.TotalSamples;
  if (Model.Merged)
    Run.TableIndices = TableIndices.data();
  std::vector<double> Rows;
  bool WantRows = spn::needsTraceback(Model.Query.Kind);
  if (WantRows) {
    Rows.resize(TheBatch.TotalSamples * NumFeatures);
    Run.Rows = Rows.data();
  }
  if (Model.Query.Kind == spn::QueryKind::Sample)
    Run.Seed = vm::perSampleSeed(Config.SampleSeed,
                                 SampleBatchCounter.fetch_add(1));
  runtime::ExecutionStats ExecStats;
  bool Executed = Model.Kernel.run(Run, &ExecStats);
  Clock::time_point Done = Clock::now();

  // Account first, then complete the promises: a submitter that
  // observes its future ready sees the completion in getStats() too.
  std::vector<uint64_t> Latencies;
  Latencies.reserve(TheBatch.Requests.size());
  for (const Request &TheRequest : TheBatch.Requests)
    Latencies.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Done - TheRequest.Enqueued)
            .count()));
  {
    std::lock_guard<std::mutex> Lock(TheShard.Mutex);
    if (Executed) {
      TheShard.Stats.CompletedRequests += TheBatch.Requests.size();
      TheShard.Stats.CompletedSamples += TheBatch.TotalSamples;
      TheShard.Stats.ExecutionNs += ExecStats.WallNs;
      if (DistinctTables >= 2)
        ++TheShard.Stats.CrossModelBatches;
      size_t Class = static_cast<size_t>(TheBatch.ThePriority);
      for (uint64_t Latency : Latencies) {
        TheShard.Stats.LatencyNs.record(Latency);
        TheShard.Stats.LatencyNsByPriority[Class].record(Latency);
      }
    }
    TheShard.OutstandingSamples -= TheBatch.TotalSamples;
    --TheShard.InFlightBatches;
    TheShard.SpaceAvailable.notify_all();
    // The batcher may be waiting on the dispatch throttle.
    TheShard.WorkAvailable.notify_all();
  }

  if (!Executed) {
    // The engine refused the batch (it cannot serve this query kind,
    // or execution failed outright). Every rider fails; the samples
    // were already released from admission accounting above.
    for (Request &TheRequest : TheBatch.Requests)
      failRequest(TheRequest, RequestStatus::Failed,
                  "engine failed to execute the batch for model '" +
                      Model.Name + "'");
    return;
  }

  bool WantLogLikelihoods = Model.Query.Kind != spn::QueryKind::Sample;
  Offset = 0;
  for (size_t I = 0; I < TheBatch.Requests.size(); ++I) {
    Request &TheRequest = TheBatch.Requests[I];
    InferenceResult Result;
    Result.Status = RequestStatus::Ok;
    if (WantLogLikelihoods)
      Result.LogLikelihoods.assign(
          Output.begin() + static_cast<ptrdiff_t>(Offset),
          Output.begin() +
              static_cast<ptrdiff_t>(Offset + TheRequest.NumSamples));
    if (WantRows)
      Result.Rows.assign(
          Rows.begin() +
              static_cast<ptrdiff_t>(Offset * NumFeatures),
          Rows.begin() +
              static_cast<ptrdiff_t>(
                  (Offset + TheRequest.NumSamples) * NumFeatures));
    Result.LatencyNs = Latencies[I];
    Result.BatchSamples = TheBatch.TotalSamples;
    Offset += TheRequest.NumSamples;
    TheRequest.ResultPromise.set(std::move(Result));
  }
}

//===----------------------------------------------------------------------===//
// Shutdown / stats
//===----------------------------------------------------------------------===//

void InferenceServer::shutdown() {
  // Serializes concurrent shutdown() calls (user + destructor).
  std::lock_guard<std::mutex> ShutdownLock(ShutdownMutex);
  if (ShutdownComplete)
    return;
  ShuttingDown.store(true);
  // Flag every shard, then wake everyone: the batchers drain, blocked
  // submitters give up.
  for (auto &TheShard : Shards) {
    {
      std::lock_guard<std::mutex> Lock(TheShard->Mutex);
      TheShard->ShuttingDown = true;
    }
    TheShard->WorkAvailable.notify_all();
    TheShard->SpaceAvailable.notify_all();
  }
  for (auto &TheShard : Shards) {
    if (TheShard->Batcher.joinable())
      TheShard->Batcher.join();
    // The batcher exited with empty queues; wait for the dispatched
    // batches to finish so every accepted future is completed.
    TheShard->Workers->wait();
    std::lock_guard<std::mutex> Lock(TheShard->Mutex);
    assert(TheShard->OutstandingSamples == 0 &&
           "shutdown drained but work remains outstanding");
  }
  ShutdownComplete = true;
}

ServerStats InferenceServer::getShardStats(size_t ShardIndex) const {
  assert(ShardIndex < Shards.size() && "shard index out of range");
  const Shard &TheShard = *Shards[ShardIndex];
  std::lock_guard<std::mutex> Lock(TheShard.Mutex);
  ServerStats Snapshot = TheShard.Stats;
  Snapshot.QueueDepth = TheShard.OutstandingSamples;
  Snapshot.ElapsedNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now() - StartTime)
          .count());
  return Snapshot;
}

std::vector<ServerStats> InferenceServer::getAllShardStats() const {
  std::vector<ServerStats> All;
  All.reserve(Shards.size());
  for (size_t I = 0; I < Shards.size(); ++I)
    All.push_back(getShardStats(I));
  return All;
}

ServerStats InferenceServer::getStats() const {
  // Aggregate: counters summed, histograms merged. Shards are snapshot
  // one at a time, so the aggregate is per-shard-consistent (exact
  // after quiescence; during traffic each shard's slice is itself
  // consistent).
  ServerStats Aggregate;
  for (size_t I = 0; I < Shards.size(); ++I) {
    ServerStats S = getShardStats(I);
    Aggregate.SubmittedRequests += S.SubmittedRequests;
    Aggregate.SubmittedSamples += S.SubmittedSamples;
    Aggregate.CompletedRequests += S.CompletedRequests;
    Aggregate.CompletedSamples += S.CompletedSamples;
    Aggregate.RejectedRequests += S.RejectedRequests;
    Aggregate.BlockedSubmits += S.BlockedSubmits;
    Aggregate.TimedOutRequests += S.TimedOutRequests;
    Aggregate.BatchesDispatched += S.BatchesDispatched;
    Aggregate.CrossModelBatches += S.CrossModelBatches;
    Aggregate.QueueDepth += S.QueueDepth;
    Aggregate.PeakQueueDepth += S.PeakQueueDepth;
    Aggregate.ExecutionNs += S.ExecutionNs;
    Aggregate.BatcherWakeups += S.BatcherWakeups;
    Aggregate.BatchSizes.merge(S.BatchSizes);
    Aggregate.LatencyNs.merge(S.LatencyNs);
    for (size_t Class = 0; Class < kNumPriorities; ++Class)
      Aggregate.LatencyNsByPriority[Class].merge(
          S.LatencyNsByPriority[Class]);
  }
  {
    std::lock_guard<std::mutex> Lock(RoutingMutex);
    Aggregate.SubmittedRequests += RoutingSubmittedRequests;
    Aggregate.SubmittedSamples += RoutingSubmittedSamples;
    Aggregate.RejectedRequests += RoutingRejectedRequests;
  }
  Aggregate.ElapsedNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now() - StartTime)
          .count());
  return Aggregate;
}
