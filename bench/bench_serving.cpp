//===- bench_serving.cpp - Batched serving vs per-request execution -------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closed-loop load generator for the serving layer: K client threads
/// issue single-sample requests back-to-back, either executing each
/// request directly on the shared engine (the per-request baseline, one
/// engine call per sample) or through the `InferenceServer` (requests
/// coalesced into micro-batches). The per-request baseline wastes the
/// engine's SIMD lanes and per-call overhead on one sample at a time —
/// the same effect the paper's batch-size sweeps quantify (§V) — so
/// batched serving must win on throughput once enough clients supply
/// concurrent arrivals. items_per_second counts samples.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "serving/InferenceServer.h"
#include "tuning/Tuner.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace spnc;
using namespace spnc::bench;
using namespace spnc::runtime;
using namespace spnc::serving;

namespace {

/// Requests per client per iteration (kept modest: google-benchmark
/// multiplies by iterations).
size_t requestsPerClient() { return fullScale() ? 512 : 128; }

struct ServingWorkload {
  spn::Model Model;
  std::vector<double> Data;
  size_t NumSamples = 0;
  unsigned NumFeatures = 0;
};

const ServingWorkload &workload() {
  static ServingWorkload W = [] {
    workloads::SpeakerModelOptions Options;
    Options.Seed = 3;
    // A large-end speaker model: per-sample execution cost must
    // dominate scheduling overhead for the batching comparison to
    // measure lane amortization rather than context switches.
    Options.TargetOperations = 8000;
    ServingWorkload Wl{workloads::generateSpeakerModel(Options), {}, 0,
                       0};
    Wl.NumSamples = 2048;
    Wl.Data = workloads::generateSpeechData(Options, Wl.NumSamples, 11);
    Wl.NumFeatures = Wl.Model.getNumFeatures();
    return Wl;
  }();
  return W;
}

CompilerOptions servingCompilerOptions() {
  CompilerOptions Options;
  Options.OptLevel = 2;
  Options.Execution.VectorWidth = 8;
  return Options;
}

/// Per-request baseline: every client calls the engine itself with its
/// single sample — no batching, full per-call overhead per sample.
void BM_PerRequestExecution(benchmark::State &State) {
  const ServingWorkload &W = workload();
  unsigned Clients = static_cast<unsigned>(State.range(0));
  KernelCache Cache;
  Expected<CompiledKernel> Kernel = Cache.getOrCompile(
      W.Model, spn::QueryConfig(), servingCompilerOptions());
  if (!Kernel) {
    State.SkipWithError(Kernel.getError().message().c_str());
    return;
  }
  size_t PerClient = requestsPerClient();
  for (auto _ : State) {
    std::vector<std::thread> Threads;
    Threads.reserve(Clients);
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        double Output = 0.0;
        for (size_t R = 0; R < PerClient; ++R) {
          size_t Index = (C * PerClient + R) % W.NumSamples;
          Kernel->execute(W.Data.data() + Index * W.NumFeatures,
                          &Output, 1);
          benchmark::DoNotOptimize(Output);
        }
      });
    for (std::thread &Thread : Threads)
      Thread.join();
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Clients) *
                          static_cast<int64_t>(PerClient));
  State.counters["clients"] = Clients;
}

/// The spnc-tune result for the serving workload, searched once per
/// process with a small budget (the EXPERIMENTS.md tuned-vs-default
/// numbers come from this leg vs BM_BatchedServing). Falls back to the
/// defaults if the search fails.
const tuning::TunedConfig &tunedConfig() {
  static tuning::TunedConfig Config = [] {
    workloads::SpeakerModelOptions Options;
    Options.Seed = 3;
    Options.TargetOperations = 8000;
    tuning::ServingEvaluatorOptions EvalOptions;
    EvalOptions.Clients = 8;
    EvalOptions.RequestsPerClient = fullScale() ? 64 : 16;
    tuning::ServingEvaluator Eval(
        workloads::generateSpeakerModel(Options), spn::QueryConfig(),
        EvalOptions);
    tuning::SearchSpace Space = tuning::SearchSpace::makeDefault();
    tuning::TunerOptions TunerOptions;
    // 12 evaluations cover the full serving-knob sweep (the leading
    // knobs of the default space); full scale also reaches the compile
    // knobs.
    TunerOptions.MaxEvaluations = fullScale() ? 32 : 12;
    TunerOptions.RandomRestarts = 0;
    tuning::Tuner TheTuner(Space, Eval, tuning::Objective{},
                           TunerOptions);
    Expected<tuning::TunerResult> Result = TheTuner.run();
    if (!Result)
      return tuning::TunedConfig{};
    return Space.materialize(Result->Best.Candidate);
  }();
  return Config;
}

/// Batched serving: the same client load submitted through the
/// InferenceServer, which coalesces concurrent arrivals into
/// micro-batches before touching the engine.
void BM_BatchedServing(benchmark::State &State) {
  const ServingWorkload &W = workload();
  unsigned Clients = static_cast<unsigned>(State.range(0));
  ServerConfig Config;
  Config.MaxBatchSamples = 256;
  // The co-batching window must cover the spread of client re-submits
  // after a batch completes (scheduling skew, not arrival rate: the
  // closed-loop clients all wake when their round's batch finishes).
  // Too short and batches stay lane-starved below the vector width;
  // this window reliably coalesces the full client set.
  Config.MaxQueueDelayUs = 500;
  Config.MaxQueueDepth = 0; // closed loop; no admission pressure
  Config.NumWorkers = 2;
  InferenceServer Server(Config);
  if (std::optional<Error> Err =
          Server.addModel("speaker", W.Model, spn::QueryConfig(),
                          servingCompilerOptions())) {
    State.SkipWithError(Err->message().c_str());
    return;
  }
  size_t PerClient = requestsPerClient();
  std::atomic<uint64_t> Failures{0};
  for (auto _ : State) {
    std::vector<std::thread> Threads;
    Threads.reserve(Clients);
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        for (size_t R = 0; R < PerClient; ++R) {
          size_t Index = (C * PerClient + R) % W.NumSamples;
          InferenceResult Result =
              Server
                  .submit("speaker",
                          W.Data.data() + Index * W.NumFeatures, 1)
                  .take();
          if (Result.Status != RequestStatus::Ok)
            ++Failures;
          benchmark::DoNotOptimize(Result.LogLikelihoods);
        }
      });
    for (std::thread &Thread : Threads)
      Thread.join();
  }
  if (Failures.load() > 0)
    State.SkipWithError("serving requests failed");
  ServerStats Stats = Server.getStats();
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Clients) *
                          static_cast<int64_t>(PerClient));
  State.counters["clients"] = Clients;
  State.counters["mean_batch"] = Stats.meanBatchSize();
  Server.shutdown();
}

/// Batched serving under the autotuned configuration: server knobs and
/// compile options both come from a small spnc-tune search instead of
/// the hand-picked constants above.
void BM_TunedBatchedServing(benchmark::State &State) {
  const ServingWorkload &W = workload();
  unsigned Clients = static_cast<unsigned>(State.range(0));
  const tuning::TunedConfig &Tuned = tunedConfig();
  ServerConfig Config = Tuned.Server;
  Config.MaxQueueDepth = 0; // closed loop; no admission pressure
  InferenceServer Server(Config);
  if (std::optional<Error> Err = Server.addModel(
          "speaker", W.Model, spn::QueryConfig(), Tuned.Compile)) {
    State.SkipWithError(Err->message().c_str());
    return;
  }
  size_t PerClient = requestsPerClient();
  std::atomic<uint64_t> Failures{0};
  for (auto _ : State) {
    std::vector<std::thread> Threads;
    Threads.reserve(Clients);
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        for (size_t R = 0; R < PerClient; ++R) {
          size_t Index = (C * PerClient + R) % W.NumSamples;
          InferenceResult Result =
              Server
                  .submit("speaker",
                          W.Data.data() + Index * W.NumFeatures, 1)
                  .take();
          if (Result.Status != RequestStatus::Ok)
            ++Failures;
          benchmark::DoNotOptimize(Result.LogLikelihoods);
        }
      });
    for (std::thread &Thread : Threads)
      Thread.join();
  }
  if (Failures.load() > 0)
    State.SkipWithError("serving requests failed");
  ServerStats Stats = Server.getStats();
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Clients) *
                          static_cast<int64_t>(PerClient));
  State.counters["clients"] = Clients;
  State.counters["mean_batch"] = Stats.meanBatchSize();
  State.counters["tuned_workers"] = Tuned.Server.NumWorkers;
  State.counters["tuned_vector_width"] =
      Tuned.Compile.Execution.VectorWidth;
  State.counters["tuned_max_batch"] =
      static_cast<double>(Tuned.Server.MaxBatchSamples);
  State.counters["tuned_max_delay_us"] =
      static_cast<double>(Tuned.Server.MaxQueueDelayUs);
  Server.shutdown();
}

/// The shard-scaling workload: many small models spread over the
/// consistent-hash ring, so every shard owns a share of the routing
/// table and the per-shard batcher only scans its own queues. The
/// models are deliberately tiny — the sweep measures scheduler cost
/// (the batcher's O(queued-requests) scan per dispatched batch), not
/// engine time, because that is the term sharding divides by N.
struct ShardModelInstance {
  spn::Model Model;
  std::vector<double> Data;
  size_t NumSamples = 0;
  unsigned NumFeatures = 0;
  std::string Name;
};

const std::vector<ShardModelInstance> &shardModels() {
  static std::vector<ShardModelInstance> Models = [] {
    std::vector<ShardModelInstance> Instances;
    for (unsigned M = 0; M < 8; ++M) {
      workloads::SpeakerModelOptions Options;
      Options.Seed = 100 + M;
      Options.TargetOperations = 250 + 40 * M;
      ShardModelInstance Inst{
          workloads::generateSpeakerModel(Options), {}, 0, 0, {}};
      Inst.NumSamples = 256;
      Inst.Data =
          workloads::generateSpeechData(Options, Inst.NumSamples, 200 + M);
      Inst.NumFeatures = Inst.Model.getNumFeatures();
      Inst.Name = "speaker" + std::to_string(M);
      Instances.push_back(std::move(Inst));
    }
    return Instances;
  }();
  return Models;
}

/// One compile per model across every shard/client configuration: the
/// sweep compares scheduling, so kernels come from a shared cache.
KernelCache &shardKernelCache() {
  static KernelCache Cache;
  return Cache;
}

/// Shard-scaling sweep: range(0) shards x range(1) clients, each
/// client keeping a pipeline of single-sample requests in flight
/// across all eight models. Deep open-loop queues keep every shard's
/// batcher saturated: N shards run N independent batcher threads over
/// N-times-shorter queues (the batcher's deadline/wake scans are
/// O(queued requests) per iteration). On a multi-core host the shards
/// also run concurrently; on a single hardware thread only the
/// shorter scans help, so expect modest gains there.
void BM_ShardScaling(benchmark::State &State) {
  const std::vector<ShardModelInstance> &Models = shardModels();
  unsigned Shards = static_cast<unsigned>(State.range(0));
  unsigned Clients = static_cast<unsigned>(State.range(1));
  ServerConfig Config;
  // Small batches force many batcher iterations per client request;
  // zero delay dispatches as soon as work is queued.
  Config.MaxBatchSamples = 8;
  Config.MaxQueueDelayUs = 0;
  Config.MaxQueueDepth = 0; // open loop; no admission pressure
  Config.NumWorkers = 1;
  Config.NumShards = Shards;
  InferenceServer Server(Config, &shardKernelCache());
  for (const ShardModelInstance &Inst : Models) {
    if (std::optional<Error> Err =
            Server.addModel(Inst.Name, Inst.Model, spn::QueryConfig(),
                            servingCompilerOptions())) {
      State.SkipWithError(Err->message().c_str());
      return;
    }
  }
  const size_t Depth = 128; // in-flight requests per client
  size_t PerClient = std::max(requestsPerClient(), Depth);
  std::atomic<uint64_t> Failures{0};
  for (auto _ : State) {
    std::vector<std::thread> Threads;
    Threads.reserve(Clients);
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        for (size_t R = 0; R < PerClient; R += Depth) {
          std::vector<ResultFuture> Inflight;
          Inflight.reserve(Depth);
          for (size_t D = 0; D < Depth && R + D < PerClient; ++D) {
            size_t Seq = C * PerClient + R + D;
            const ShardModelInstance &Inst =
                Models[Seq % Models.size()];
            size_t Index = Seq % Inst.NumSamples;
            Inflight.push_back(Server.submit(
                Inst.Name, Inst.Data.data() + Index * Inst.NumFeatures,
                1));
          }
          for (ResultFuture &F : Inflight)
            if (F.take().Status != RequestStatus::Ok)
              ++Failures;
        }
      });
    for (std::thread &Thread : Threads)
      Thread.join();
  }
  if (Failures.load() > 0)
    State.SkipWithError("serving requests failed");
  ServerStats Stats = Server.getStats();
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Clients) *
                          static_cast<int64_t>(PerClient));
  State.counters["shards"] = Shards;
  State.counters["clients"] = Clients;
  State.counters["mean_batch"] = Stats.meanBatchSize();
  Server.shutdown();
}

struct TenantInstance {
  spn::Model Model;
  std::string Name;
};

/// Ten structurally-isomorphic RAT-SPN class models (shared random
/// structure, per-class weights) — the multi-tenant fleet merged-model
/// compilation exists for (docs/merging.md).
const std::vector<TenantInstance> &tenantModels() {
  static std::vector<TenantInstance> Models = [] {
    workloads::RatSpnOptions Rat;
    Rat.NumFeatures = 32;
    Rat.Depth = 3;
    Rat.Replicas = 2;
    Rat.SumsPerRegion = 4;
    Rat.LeafDistributions = 6;
    Rat.Seed = 77;
    std::vector<TenantInstance> Instances;
    for (unsigned Class = 0; Class < 10; ++Class)
      Instances.push_back({workloads::generateRatSpn(Rat, Class),
                           "tenant" + std::to_string(Class)});
    return Instances;
  }();
  return Models;
}

/// Multi-tenant serving over ten isomorphic models with mixed traffic
/// (every client interleaves tenants round-robin). range(0) selects
/// the mode — 0 registers each tenant unmerged (ten per-model queues
/// over the one kernel the cache shares among the tenants), 1 registers
/// the fleet with `ServerConfig::MergeModels` (one shared queue,
/// requests of different tenants coalescing into shared batches). range(1) selects
/// the load shape — 0 is thin closed-loop traffic (one request in
/// flight per client, the regime where per-tenant queues cannot batch
/// and cross-tenant coalescing is the only batching there is), 1 is a
/// saturated open loop (32 requests in flight per client, where
/// per-tenant backlogs batch fine on their own). The measurement is
/// what cross-tenant coalescing does to throughput and batch sizes in
/// each regime.
void BM_MergedMultiTenant(benchmark::State &State) {
  const std::vector<TenantInstance> &Tenants = tenantModels();
  bool Merged = State.range(0) != 0;
  bool Saturated = State.range(1) != 0;
  unsigned NumFeatures = Tenants.front().Model.getNumFeatures();
  static const std::vector<double> Data = workloads::generateImageData(
      NumFeatures, static_cast<unsigned>(Tenants.size()), 512, 19,
      nullptr);

  KernelCache Cache;
  ServerConfig Config;
  Config.MergeModels = Merged;
  Config.MaxBatchSamples = 32;
  // Zero batching window: coalescing must come from natural queue
  // backlog, not from stalling requests — the fairest comparison, since
  // the merged leg's shared queue backs up while the unmerged leg's
  // per-tenant queues each see only a thin trickle.
  Config.MaxQueueDelayUs = 0;
  Config.MaxQueueDepth = 0; // open loop; no admission pressure
  Config.NumWorkers = 1;
  InferenceServer Server(Config, &Cache);
  for (const TenantInstance &Tenant : Tenants) {
    if (std::optional<Error> Err =
            Server.addModel(Tenant.Name, Tenant.Model,
                            spn::QueryConfig(),
                            servingCompilerOptions())) {
      State.SkipWithError(Err->message().c_str());
      return;
    }
  }

  const unsigned Clients = 8;
  const size_t Depth = Saturated ? 32 : 1; // in-flight per client
  size_t PerClient = std::max(requestsPerClient(), Depth);
  std::atomic<uint64_t> Failures{0};
  for (auto _ : State) {
    std::vector<std::thread> Threads;
    Threads.reserve(Clients);
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        for (size_t R = 0; R < PerClient; R += Depth) {
          std::vector<ResultFuture> Inflight;
          Inflight.reserve(Depth);
          for (size_t D = 0; D < Depth && R + D < PerClient; ++D) {
            // Round-robin with a per-client offset: every dispatch
            // window sees arrivals for several tenants at once.
            size_t Seq = C * PerClient + R + D;
            const TenantInstance &Tenant =
                Tenants[(C + Seq) % Tenants.size()];
            Inflight.push_back(Server.submit(
                Tenant.Name, Data.data() + (Seq % 512) * NumFeatures,
                1));
          }
          for (ResultFuture &F : Inflight)
            if (F.take().Status != RequestStatus::Ok)
              ++Failures;
        }
      });
    for (std::thread &Thread : Threads)
      Thread.join();
  }
  if (Failures.load() > 0)
    State.SkipWithError("serving requests failed");
  ServerStats Stats = Server.getStats();
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Clients) *
                          static_cast<int64_t>(PerClient));
  State.counters["tenants"] =
      static_cast<double>(Tenants.size());
  State.counters["kernels"] = static_cast<double>(Cache.size());
  State.counters["mean_batch"] = Stats.meanBatchSize();
  State.counters["cross_model_batches"] =
      static_cast<double>(Stats.CrossModelBatches);
  Server.shutdown();
}

/// Mixed-priority scheduling: bulk clients keep a deep backlog of
/// 64-sample requests queued while latency-sensitive probe clients
/// submit single samples closed-loop and time each round trip.
/// range(0) selects the discipline — 0 submits the probes as Bulk too
/// (single FIFO, the pre-sharding behaviour), 1 submits them as
/// Interactive so weighted fair queueing drains them ahead of the
/// backlog. The probe p99 is the headline: under FIFO a probe waits
/// behind the entire queued backlog, under WFQ behind at most the
/// batch in flight.
void BM_PrioritySchedulingP99(benchmark::State &State) {
  const ServingWorkload &W = workload();
  bool UseWfq = State.range(0) != 0;
  const unsigned BulkClients = 6;
  const unsigned ProbeClients = 2;
  const size_t BulkRequestSamples = 64;
  const size_t BulkDepth = 4; // pipelined bulk requests per client
  ServerConfig Config;
  Config.MaxBatchSamples = 64;
  Config.MaxQueueDelayUs = 0;
  Config.MaxQueueDepth = 0;
  Config.NumWorkers = 1;
  Config.NumShards = 1;
  Config.InteractiveWeight = 4;
  Config.BulkWeight = 1;
  InferenceServer Server(Config);
  if (std::optional<Error> Err =
          Server.addModel("speaker", W.Model, spn::QueryConfig(),
                          servingCompilerOptions())) {
    State.SkipWithError(Err->message().c_str());
    return;
  }
  size_t BulkPerClient = fullScale() ? 128 : 48;
  std::atomic<uint64_t> Failures{0};
  std::mutex LatencyMutex;
  std::vector<double> ProbeLatencyMs;
  for (auto _ : State) {
    std::atomic<bool> BulkDone{false};
    std::vector<std::thread> Threads;
    Threads.reserve(BulkClients + ProbeClients);
    for (unsigned C = 0; C < BulkClients; ++C)
      Threads.emplace_back([&, C] {
        for (size_t R = 0; R < BulkPerClient; R += BulkDepth) {
          std::vector<ResultFuture> Inflight;
          for (size_t D = 0; D < BulkDepth && R + D < BulkPerClient;
               ++D) {
            size_t Index = (C * BulkPerClient + R + D) %
                           (W.NumSamples - BulkRequestSamples);
            Inflight.push_back(Server.submit(
                "speaker", W.Data.data() + Index * W.NumFeatures,
                BulkRequestSamples));
          }
          for (ResultFuture &F : Inflight)
            if (F.take().Status != RequestStatus::Ok)
              ++Failures;
        }
      });
    // Probes run for exactly as long as the backlog drains, so every
    // measurement sees the mixed load.
    for (unsigned C = 0; C < ProbeClients; ++C)
      Threads.emplace_back([&, C] {
        std::vector<double> Local;
        size_t Probe = 0;
        while (!BulkDone.load(std::memory_order_relaxed)) {
          size_t Index = (C * 131 + Probe++) % W.NumSamples;
          auto Start = std::chrono::steady_clock::now();
          InferenceResult Result =
              Server
                  .submit("speaker",
                          W.Data.data() + Index * W.NumFeatures, 1,
                          /*DeadlineUs=*/0,
                          UseWfq ? Priority::Interactive
                                 : Priority::Bulk)
                  .take();
          auto End = std::chrono::steady_clock::now();
          if (Result.Status != RequestStatus::Ok)
            ++Failures;
          Local.push_back(
              std::chrono::duration<double, std::milli>(End - Start)
                  .count());
        }
        std::lock_guard<std::mutex> Lock(LatencyMutex);
        ProbeLatencyMs.insert(ProbeLatencyMs.end(), Local.begin(),
                              Local.end());
      });
    for (unsigned T = 0; T < BulkClients; ++T)
      Threads[T].join();
    BulkDone.store(true);
    for (unsigned T = BulkClients; T < Threads.size(); ++T)
      Threads[T].join();
  }
  if (Failures.load() > 0)
    State.SkipWithError("serving requests failed");
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(BulkClients) *
                          static_cast<int64_t>(BulkPerClient) *
                          static_cast<int64_t>(BulkRequestSamples));
  std::sort(ProbeLatencyMs.begin(), ProbeLatencyMs.end());
  auto Quantile = [&](double Q) {
    if (ProbeLatencyMs.empty())
      return 0.0;
    size_t Index = static_cast<size_t>(
        Q * static_cast<double>(ProbeLatencyMs.size() - 1));
    return ProbeLatencyMs[Index];
  };
  State.counters["wfq"] = UseWfq ? 1 : 0;
  State.counters["probes"] =
      static_cast<double>(ProbeLatencyMs.size());
  State.counters["probe_p50_ms"] = Quantile(0.50);
  State.counters["probe_p99_ms"] = Quantile(0.99);
  Server.shutdown();
}

BENCHMARK(BM_PerRequestExecution)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_BatchedServing)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_TunedBatchedServing)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ShardScaling)
    ->Args({1, 8})
    ->Args({1, 32})
    ->Args({2, 8})
    ->Args({2, 32})
    ->Args({4, 8})
    ->Args({4, 32})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_MergedMultiTenant)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_PrioritySchedulingP99)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
