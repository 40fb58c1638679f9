//===- serving_test.cpp - Tests for the in-process serving layer ------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "serving/InferenceServer.h"
#include "serving/ServingReports.h"
#include "serving/SubmitTrace.h"
#include "support/JSON.h"
#include "support/RawOStream.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace spnc;
using namespace spnc::runtime;
using namespace spnc::serving;

namespace {

class ServingTest : public ::testing::Test {
protected:
  static constexpr size_t kNumSamples = 64;

  void SetUp() override {
    workloads::SpeakerModelOptions Options;
    Options.TargetOperations = 300;
    Options.Seed = 91;
    Model = std::make_unique<spn::Model>(
        workloads::generateSpeakerModel(Options));
    NumFeatures = Model->getNumFeatures();
    Data = workloads::generateSpeechData(Options, kNumSamples, 7);
  }

  /// Reference probabilities via the same cached engine the server
  /// uses (the cache is shared, so the key collides by construction).
  std::vector<double> directResults(KernelCache &Cache,
                                    const spn::QueryConfig &Query,
                                    const CompilerOptions &Options) {
    Expected<CompiledKernel> Kernel =
        Cache.getOrCompile(*Model, Query, Options);
    EXPECT_TRUE(static_cast<bool>(Kernel));
    std::vector<double> Expected(kNumSamples);
    Kernel->execute(Data.data(), Expected.data(), kNumSamples);
    return Expected;
  }

  const double *sampleRow(size_t Index) const {
    return Data.data() + (Index % kNumSamples) * NumFeatures;
  }

  std::unique_ptr<spn::Model> Model;
  unsigned NumFeatures = 0;
  std::vector<double> Data;
  spn::QueryConfig Query;
  CompilerOptions Compile;
};

TEST_F(ServingTest, ConcurrentRequestsMatchDirectExecutionAndBatch) {
  KernelCache Cache;
  std::vector<double> Expected = directResults(Cache, Query, Compile);

  ServerConfig Config;
  Config.MaxBatchSamples = 64;
  Config.MaxQueueDelayUs = 10000; // generous co-batching window
  Config.NumWorkers = 2;
  InferenceServer Server(Config, &Cache);
  ASSERT_FALSE(Server.addModel("speaker", *Model, Query, Compile));
  EXPECT_TRUE(Server.hasModel("speaker"));
  EXPECT_EQ(Server.getNumFeatures("speaker"), NumFeatures);

  constexpr unsigned kClients = 8;
  constexpr unsigned kPerClient = 20;
  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C < kClients; ++C)
    Clients.emplace_back([&, C] {
      for (unsigned R = 0; R < kPerClient; ++R) {
        size_t Index = (C * kPerClient + R) % kNumSamples;
        ResultFuture Future =
            Server.submit("speaker", sampleRow(Index), 1);
        InferenceResult Result = Future.take();
        if (Result.Status != RequestStatus::Ok ||
            Result.LogLikelihoods.size() != 1 ||
            Result.LogLikelihoods[0] != Expected[Index])
          ++Mismatches;
      }
    });
  for (std::thread &Client : Clients)
    Client.join();
  EXPECT_EQ(Mismatches.load(), 0u);

  ServerStats Stats = Server.getStats();
  EXPECT_EQ(Stats.CompletedRequests, uint64_t(kClients) * kPerClient);
  EXPECT_EQ(Stats.CompletedSamples, uint64_t(kClients) * kPerClient);
  EXPECT_EQ(Stats.RejectedRequests, 0u);
  EXPECT_EQ(Stats.TimedOutRequests, 0u);
  // The point of the layer: micro-batches actually form under
  // concurrent single-sample load.
  EXPECT_GT(Stats.meanBatchSize(), 1.0);
  EXPECT_LT(Stats.BatchesDispatched, uint64_t(kClients) * kPerClient);
  Server.shutdown();
}

TEST_F(ServingTest, RejectPolicyBoundsOutstandingSamples) {
  ServerConfig Config;
  Config.MaxBatchSamples = 256;
  Config.MaxQueueDelayUs = 50000; // keep admitted requests queued
  Config.MaxQueueDepth = 4;
  Config.Admission = ServerConfig::AdmissionPolicy::Reject;
  InferenceServer Server(Config);
  ASSERT_FALSE(Server.addModel("speaker", *Model, Query, Compile));

  constexpr unsigned kBurst = 20;
  std::vector<ResultFuture> Futures;
  for (unsigned I = 0; I < kBurst; ++I)
    Futures.push_back(Server.submit("speaker", sampleRow(I), 1));

  unsigned Ok = 0, Rejected = 0;
  for (ResultFuture &Future : Futures) {
    InferenceResult Result = Future.take();
    if (Result.Status == RequestStatus::Ok)
      ++Ok;
    else if (Result.Status == RequestStatus::Rejected) {
      ++Rejected;
      EXPECT_FALSE(Result.Message.empty());
    }
  }
  EXPECT_EQ(Ok, 4u);
  EXPECT_EQ(Rejected, kBurst - 4);

  ServerStats Stats = Server.getStats();
  EXPECT_EQ(Stats.RejectedRequests, uint64_t(kBurst - 4));
  EXPECT_LE(Stats.PeakQueueDepth, 4u);
  Server.shutdown();
}

TEST_F(ServingTest, BlockPolicyAppliesBackpressureWithoutLoss) {
  ServerConfig Config;
  Config.MaxBatchSamples = 256;
  Config.MaxQueueDelayUs = 20000;
  Config.MaxQueueDepth = 2;
  Config.Admission = ServerConfig::AdmissionPolicy::Block;
  InferenceServer Server(Config);
  ASSERT_FALSE(Server.addModel("speaker", *Model, Query, Compile));

  constexpr unsigned kBurst = 10;
  std::vector<ResultFuture> Futures;
  for (unsigned I = 0; I < kBurst; ++I)
    Futures.push_back(Server.submit("speaker", sampleRow(I), 1));
  for (ResultFuture &Future : Futures)
    EXPECT_EQ(Future.take().Status, RequestStatus::Ok);

  ServerStats Stats = Server.getStats();
  EXPECT_EQ(Stats.CompletedRequests, uint64_t(kBurst));
  EXPECT_EQ(Stats.RejectedRequests, 0u);
  // The submitting thread outpaces the 20ms batching window, so at
  // least one submit must have waited for space.
  EXPECT_GE(Stats.BlockedSubmits, 1u);
  EXPECT_LE(Stats.PeakQueueDepth, 2u);
  Server.shutdown();
}

TEST_F(ServingTest, ExpiredDeadlinesTimeOutInsteadOfExecuting) {
  ServerConfig Config;
  Config.MaxBatchSamples = 256;
  Config.MaxQueueDelayUs = 100000; // longer than every deadline below
  InferenceServer Server(Config);
  ASSERT_FALSE(Server.addModel("speaker", *Model, Query, Compile));

  std::vector<ResultFuture> Futures;
  for (unsigned I = 0; I < 3; ++I)
    Futures.push_back(
        Server.submit("speaker", sampleRow(I), 1, /*DeadlineUs=*/1000));
  for (ResultFuture &Future : Futures) {
    InferenceResult Result = Future.take();
    EXPECT_EQ(Result.Status, RequestStatus::TimedOut);
    EXPECT_TRUE(Result.LogLikelihoods.empty());
    EXPECT_FALSE(Result.Message.empty());
  }
  ServerStats Stats = Server.getStats();
  EXPECT_EQ(Stats.TimedOutRequests, 3u);
  EXPECT_EQ(Stats.CompletedRequests, 0u);
  Server.shutdown();
}

TEST_F(ServingTest, ShutdownDrainsEveryAcceptedRequest) {
  ServerConfig Config;
  Config.MaxBatchSamples = 8;
  // A window far beyond the test duration: only the shutdown drain can
  // dispatch these.
  Config.MaxQueueDelayUs = 60000000;
  InferenceServer Server(Config);
  ASSERT_FALSE(Server.addModel("speaker", *Model, Query, Compile));

  constexpr unsigned kQueued = 30;
  std::vector<ResultFuture> Futures;
  for (unsigned I = 0; I < kQueued; ++I)
    Futures.push_back(Server.submit("speaker", sampleRow(I), 1));
  Server.shutdown();

  for (ResultFuture &Future : Futures) {
    ASSERT_TRUE(Future.ready());
    EXPECT_EQ(Future.get().Status, RequestStatus::Ok);
  }
  ServerStats Stats = Server.getStats();
  EXPECT_EQ(Stats.CompletedRequests, uint64_t(kQueued));
  EXPECT_EQ(Stats.QueueDepth, 0u);

  // Post-shutdown submits resolve immediately with ShutDown.
  InferenceResult Late =
      Server.submit("speaker", sampleRow(0), 1).take();
  EXPECT_EQ(Late.Status, RequestStatus::ShutDown);
}

TEST_F(ServingTest, MultiModelMultiSampleScatterIsExact) {
  workloads::SpeakerModelOptions OtherOptions;
  OtherOptions.TargetOperations = 450;
  OtherOptions.Seed = 17;
  spn::Model Other = workloads::generateSpeakerModel(OtherOptions);
  std::vector<double> OtherData =
      workloads::generateSpeechData(OtherOptions, kNumSamples, 3);

  KernelCache Cache;
  std::vector<double> ExpectedA = directResults(Cache, Query, Compile);
  Expected<CompiledKernel> OtherKernel =
      Cache.getOrCompile(Other, Query, Compile);
  ASSERT_TRUE(static_cast<bool>(OtherKernel));
  std::vector<double> ExpectedB(kNumSamples);
  OtherKernel->execute(OtherData.data(), ExpectedB.data(), kNumSamples);

  ServerConfig Config;
  Config.MaxQueueDelayUs = 2000;
  InferenceServer Server(Config, &Cache);
  ASSERT_FALSE(Server.addModel("a", *Model, Query, Compile));
  ASSERT_FALSE(Server.addModel("b", Other, Query, Compile));
  // Registering the same name twice fails.
  EXPECT_TRUE(Server.addModel("a", Other, Query, Compile));

  std::vector<ResultFuture> FuturesA, FuturesB;
  constexpr size_t kChunk = 4;
  for (size_t I = 0; I + kChunk <= kNumSamples; I += kChunk) {
    FuturesA.push_back(Server.submit(
        "a", Data.data() + I * NumFeatures, kChunk));
    FuturesB.push_back(Server.submit(
        "b", OtherData.data() + I * Other.getNumFeatures(), kChunk));
  }
  for (size_t Request = 0; Request < FuturesA.size(); ++Request) {
    InferenceResult A = FuturesA[Request].take();
    InferenceResult B = FuturesB[Request].take();
    ASSERT_EQ(A.Status, RequestStatus::Ok);
    ASSERT_EQ(B.Status, RequestStatus::Ok);
    ASSERT_EQ(A.LogLikelihoods.size(), kChunk);
    ASSERT_EQ(B.LogLikelihoods.size(), kChunk);
    EXPECT_GE(A.BatchSamples, kChunk);
    for (size_t S = 0; S < kChunk; ++S) {
      EXPECT_EQ(A.LogLikelihoods[S], ExpectedA[Request * kChunk + S]);
      EXPECT_EQ(B.LogLikelihoods[S], ExpectedB[Request * kChunk + S]);
    }
  }
  Server.shutdown();
}

TEST_F(ServingTest, UnknownModelAndEmptyRequestsAreRejected) {
  InferenceServer Server;
  ASSERT_FALSE(Server.addModel("speaker", *Model, Query, Compile));
  InferenceResult Unknown =
      Server.submit("nope", sampleRow(0), 1).take();
  EXPECT_EQ(Unknown.Status, RequestStatus::Rejected);
  EXPECT_NE(Unknown.Message.find("nope"), std::string::npos);
  InferenceResult Empty =
      Server.submit("speaker", sampleRow(0), 0).take();
  EXPECT_EQ(Empty.Status, RequestStatus::Rejected);
  EXPECT_EQ(std::string("rejected"),
            requestStatusName(RequestStatus::Rejected));
}

/// Member names of \p Value in document order.
std::vector<std::string> memberKeys(const json::Value &Value) {
  std::vector<std::string> Keys;
  for (const auto &Member : Value.getMembers())
    Keys.push_back(Member.first);
  return Keys;
}

TEST_F(ServingTest, StatsReportHasGoldenKeyOrder) {
  ServerConfig Config;
  Config.MaxQueueDelayUs = 500;
  InferenceServer Server(Config);
  ASSERT_FALSE(Server.addModel("speaker", *Model, Query, Compile));
  for (unsigned I = 0; I < 10; ++I)
    Server.submit("speaker", sampleRow(I), 1).wait();
  ServerStats Stats = Server.getStats();
  Server.shutdown();

  std::string Text;
  {
    StringOStream OS(Text);
    writeServerStatsReport(Stats, OS);
  }
  Expected<json::Value> Doc = json::parse(Text);
  ASSERT_TRUE(static_cast<bool>(Doc));
  const std::vector<std::string> Golden = {
      "submitted_requests", "submitted_samples", "completed_requests",
      "completed_samples", "rejected_requests", "blocked_submits",
      "timed_out_requests", "batches_dispatched", "cross_model_batches",
      "mean_batch_size",
      "queue_depth", "peak_queue_depth", "execution_ns", "elapsed_ns",
      "throughput_samples_per_s", "batch_size", "latency_ns"};
  EXPECT_EQ(memberKeys(*Doc), Golden);
  const std::vector<std::string> HistogramGolden = {
      "count", "min", "max", "mean", "p50", "p95", "p99"};
  EXPECT_EQ(memberKeys(*Doc->find("batch_size")), HistogramGolden);
  EXPECT_EQ(memberKeys(*Doc->find("latency_ns")), HistogramGolden);
  EXPECT_EQ(Doc->find("completed_requests")->getNumber(), 10.0);
  EXPECT_EQ(Doc->find("latency_ns")->find("count")->getNumber(), 10.0);
}

TEST_F(ServingTest, PlacementIsDeterministicAndInRange) {
  for (uint64_t Hash : {0ull, 1ull, 0x9e3779b97f4a7c15ull, ~0ull}) {
    EXPECT_EQ(InferenceServer::placeOnShard(Hash, 1), 0u);
    for (size_t NumShards : {2, 4, 8}) {
      size_t First = InferenceServer::placeOnShard(Hash, NumShards);
      EXPECT_LT(First, NumShards);
      // Pure function of (hash, shard count).
      EXPECT_EQ(InferenceServer::placeOnShard(Hash, NumShards), First);
    }
  }
}

TEST_F(ServingTest, PriorityNamesRoundTrip) {
  EXPECT_STREQ(priorityName(Priority::Interactive), "interactive");
  EXPECT_STREQ(priorityName(Priority::Bulk), "bulk");
  Priority Parsed = Priority::Bulk;
  EXPECT_TRUE(parsePriority("interactive", Parsed));
  EXPECT_EQ(Parsed, Priority::Interactive);
  EXPECT_TRUE(parsePriority("bulk", Parsed));
  EXPECT_EQ(Parsed, Priority::Bulk);
  EXPECT_FALSE(parsePriority("urgent", Parsed));
  EXPECT_EQ(Parsed, Priority::Bulk); // untouched on failure
}

TEST_F(ServingTest, ShardedServerIsExactAndAggregatesAcrossShards) {
  // Several distinct models spread over 4 shards; results must match
  // direct execution regardless of where placement put each model, and
  // the aggregate stats must equal the sum of the per-shard snapshots.
  constexpr size_t kModels = 6;
  std::vector<spn::Model> Models;
  std::vector<std::vector<double>> ModelData;
  std::vector<std::vector<double>> References;
  KernelCache Cache;
  for (size_t M = 0; M < kModels; ++M) {
    workloads::SpeakerModelOptions Options;
    Options.TargetOperations = 250 + 40 * M;
    Options.Seed = 100 + M;
    Models.push_back(workloads::generateSpeakerModel(Options));
    ModelData.push_back(
        workloads::generateSpeechData(Options, kNumSamples, M));
    Expected<CompiledKernel> Kernel =
        Cache.getOrCompile(Models.back(), Query, Compile);
    ASSERT_TRUE(static_cast<bool>(Kernel));
    std::vector<double> Reference(kNumSamples);
    Kernel->execute(ModelData.back().data(), Reference.data(),
                    kNumSamples);
    References.push_back(std::move(Reference));
  }

  ServerConfig Config;
  Config.NumShards = 4;
  Config.MaxQueueDelayUs = 500;
  InferenceServer Server(Config, &Cache);
  ASSERT_EQ(Server.getNumShards(), 4u);
  // Appended rather than "m" + ..., which GCC 12 flags with -Wrestrict.
  std::vector<std::string> Names(kModels, "m");
  for (size_t M = 0; M < kModels; ++M) {
    Names[M] += std::to_string(M);
    ASSERT_FALSE(Server.addModel(Names[M], Models[M], Query, Compile));
  }

  // Placement is the documented consistent hash, observable per model.
  for (size_t M = 0; M < kModels; ++M) {
    std::optional<size_t> Placed = Server.getModelShard(Names[M]);
    ASSERT_TRUE(Placed.has_value());
    EXPECT_EQ(*Placed,
              InferenceServer::placeOnShard(
                  KernelCache::contentHash(Models[M]), 4));
  }
  EXPECT_FALSE(Server.getModelShard("nope").has_value());

  constexpr size_t kRequests = 24;
  std::vector<std::vector<ResultFuture>> Futures(kModels);
  for (size_t R = 0; R < kRequests; ++R)
    for (size_t M = 0; M < kModels; ++M) {
      unsigned Features = Models[M].getNumFeatures();
      Futures[M].push_back(Server.submit(
          Names[M], ModelData[M].data() + (R % kNumSamples) * Features, 1));
    }
  for (size_t M = 0; M < kModels; ++M)
    for (size_t R = 0; R < kRequests; ++R) {
      InferenceResult Result = Futures[M][R].take();
      ASSERT_EQ(Result.Status, RequestStatus::Ok);
      ASSERT_EQ(Result.LogLikelihoods.size(), 1u);
      EXPECT_EQ(Result.LogLikelihoods[0],
                References[M][R % kNumSamples]);
    }

  ServerStats Aggregate = Server.getStats();
  std::vector<ServerStats> PerShard = Server.getAllShardStats();
  ASSERT_EQ(PerShard.size(), 4u);
  uint64_t Submitted = 0, Completed = 0, Batches = 0, LatencyCount = 0;
  for (const ServerStats &S : PerShard) {
    Submitted += S.SubmittedRequests;
    Completed += S.CompletedRequests;
    Batches += S.BatchesDispatched;
    LatencyCount += S.LatencyNs.getCount();
  }
  EXPECT_EQ(Aggregate.SubmittedRequests, Submitted);
  EXPECT_EQ(Aggregate.SubmittedRequests, kModels * kRequests);
  EXPECT_EQ(Aggregate.CompletedRequests, Completed);
  EXPECT_EQ(Aggregate.BatchesDispatched, Batches);
  EXPECT_EQ(Aggregate.LatencyNs.getCount(), LatencyCount);
  // The six models cannot all share one shard's queues: at least two
  // shards saw traffic (placement spreads 6 models over 4 shards).
  unsigned ActiveShards = 0;
  for (const ServerStats &S : PerShard)
    ActiveShards += S.SubmittedRequests > 0;
  EXPECT_GE(ActiveShards, 2u);
  Server.shutdown();
}

TEST_F(ServingTest, InteractiveOvertakesBulkBacklogWithoutStarvingIt) {
  // One shard, one worker, one-sample batches: the WFQ decision is made
  // per dispatched request. A bulk backlog goes in first; interactive
  // requests arriving behind it must overtake most of it (4:1 credits),
  // while every bulk request still completes.
  ServerConfig Config;
  Config.NumShards = 1;
  Config.NumWorkers = 1;
  Config.MaxBatchSamples = 1;
  Config.MaxQueueDelayUs = 0;
  Config.InteractiveWeight = 4;
  Config.BulkWeight = 1;
  InferenceServer Server(Config);

  // The backlog must comfortably outlast the submission loop: the
  // worker drains it concurrently, and if too few bulk requests remain
  // by the time the interactive ones arrive, the mean-latency gap the
  // assertion below relies on collapses into scheduling noise. The
  // fixture model evaluates in well under a microsecond — on par with
  // the cost of submitting — so this test uses a much heavier model to
  // keep dispatches slower than submissions.
  workloads::SpeakerModelOptions HeavyOptions;
  HeavyOptions.TargetOperations = 60000;
  HeavyOptions.Seed = 91;
  spn::Model HeavyModel = workloads::generateSpeakerModel(HeavyOptions);
  std::vector<double> HeavyData =
      workloads::generateSpeechData(HeavyOptions, kNumSamples, 7);
  const size_t HeavyFeatures = HeavyModel.getNumFeatures();
  ASSERT_FALSE(Server.addModel("speaker", HeavyModel, Query, Compile));

  constexpr unsigned kBulk = 200;
  constexpr unsigned kInteractive = 10;
  std::vector<ResultFuture> BulkFutures, InteractiveFutures;
  for (unsigned I = 0; I < kBulk; ++I)
    BulkFutures.push_back(Server.submit(
        "speaker", HeavyData.data() + (I % kNumSamples) * HeavyFeatures,
        1, /*DeadlineUs=*/0, Priority::Bulk));
  for (unsigned I = 0; I < kInteractive; ++I)
    InteractiveFutures.push_back(Server.submit(
        "speaker", HeavyData.data() + (I % kNumSamples) * HeavyFeatures,
        1, /*DeadlineUs=*/0, Priority::Interactive));

  double InteractiveMeanNs = 0, BulkMeanNs = 0;
  for (ResultFuture &Future : InteractiveFutures) {
    InferenceResult Result = Future.take();
    ASSERT_EQ(Result.Status, RequestStatus::Ok);
    InteractiveMeanNs += static_cast<double>(Result.LatencyNs);
  }
  InteractiveMeanNs /= kInteractive;
  for (ResultFuture &Future : BulkFutures) {
    InferenceResult Result = Future.take();
    ASSERT_EQ(Result.Status, RequestStatus::Ok); // no starvation
    BulkMeanNs += static_cast<double>(Result.LatencyNs);
  }
  BulkMeanNs /= kBulk;
  // Submitted after the whole bulk backlog, yet faster on average:
  // only priority scheduling can produce that ordering.
  EXPECT_LT(InteractiveMeanNs, BulkMeanNs);

  ServerStats Stats = Server.getStats();
  EXPECT_EQ(Stats.LatencyNsByPriority[static_cast<size_t>(
                                          Priority::Interactive)]
                .getCount(),
            kInteractive);
  EXPECT_EQ(
      Stats.LatencyNsByPriority[static_cast<size_t>(Priority::Bulk)]
          .getCount(),
      kBulk);
  EXPECT_EQ(Stats.LatencyNs.getCount(),
            uint64_t(kBulk) + kInteractive);
  Server.shutdown();
}

TEST_F(ServingTest, ShardedStatsReportWrapsGoldenSchema) {
  ServerConfig Config;
  Config.NumShards = 2;
  Config.MaxQueueDelayUs = 500;
  InferenceServer Server(Config);
  ASSERT_FALSE(Server.addModel("speaker", *Model, Query, Compile));
  for (unsigned I = 0; I < 6; ++I)
    Server
        .submit("speaker", sampleRow(I), 1, /*DeadlineUs=*/0,
                I % 2 ? Priority::Bulk : Priority::Interactive)
        .wait();
  ServerStats Aggregate = Server.getStats();
  std::vector<ServerStats> PerShard = Server.getAllShardStats();
  Server.shutdown();

  std::string Text;
  {
    StringOStream OS(Text);
    writeShardedStatsReport(Aggregate, PerShard, OS);
  }
  Expected<json::Value> Doc = json::parse(Text);
  ASSERT_TRUE(static_cast<bool>(Doc));
  const std::vector<std::string> TopGolden = {
      "num_shards", "aggregate", "latency_ns_by_priority", "shards"};
  EXPECT_EQ(memberKeys(*Doc), TopGolden);
  EXPECT_EQ(Doc->find("num_shards")->getNumber(), 2.0);

  // The nested aggregate and every shard object carry exactly the flat
  // report's golden schema — consumers of the old report keep working
  // on doc["aggregate"].
  const std::vector<std::string> StatsGolden = {
      "submitted_requests", "submitted_samples", "completed_requests",
      "completed_samples", "rejected_requests", "blocked_submits",
      "timed_out_requests", "batches_dispatched", "cross_model_batches",
      "mean_batch_size",
      "queue_depth", "peak_queue_depth", "execution_ns", "elapsed_ns",
      "throughput_samples_per_s", "batch_size", "latency_ns"};
  EXPECT_EQ(memberKeys(*Doc->find("aggregate")), StatsGolden);
  const json::Value *Shards = Doc->find("shards");
  ASSERT_NE(Shards, nullptr);
  ASSERT_EQ(Shards->getArray().size(), 2u);
  for (const json::Value &ShardDoc : Shards->getArray())
    EXPECT_EQ(memberKeys(ShardDoc), StatsGolden);
  EXPECT_EQ(memberKeys(*Doc->find("latency_ns_by_priority")),
            (std::vector<std::string>{"interactive", "bulk"}));
  EXPECT_EQ(Doc->find("latency_ns_by_priority")
                ->find("interactive")
                ->find("count")
                ->getNumber(),
            3.0);
  EXPECT_EQ(Doc->find("aggregate")->find("completed_requests")
                ->getNumber(),
            6.0);
}

//===----------------------------------------------------------------------===//
// Merged-model serving (docs/merging.md)
//===----------------------------------------------------------------------===//

TEST_F(ServingTest, MergedModelsShareOneKernelAndBatchAcrossModels) {
  // Ten same-structure, different-weight RAT-SPN class models — the
  // multi-tenant scenario merging exists for.
  constexpr unsigned kTenants = 10;
  workloads::RatSpnOptions Rat;
  Rat.NumFeatures = 16;
  Rat.Depth = 2;
  Rat.Replicas = 2;
  Rat.SumsPerRegion = 3;
  Rat.LeafDistributions = 4;
  Rat.Seed = 23;
  std::vector<spn::Model> Tenants;
  for (unsigned Class = 0; Class < kTenants; ++Class)
    Tenants.push_back(workloads::generateRatSpn(Rat, Class));
  std::vector<double> Inputs = workloads::generateImageData(
      Rat.NumFeatures, kTenants, kNumSamples, 11, nullptr);

  // Unmerged reference: each tenant's own kernel.
  std::vector<std::vector<double>> Reference(kTenants);
  {
    KernelCache Plain;
    for (unsigned T = 0; T < kTenants; ++T) {
      Expected<CompiledKernel> Kernel =
          Plain.getOrCompile(Tenants[T], Query, Compile);
      ASSERT_TRUE(static_cast<bool>(Kernel));
      Reference[T].resize(kNumSamples);
      Kernel->execute(Inputs.data(), Reference[T].data(), kNumSamples);
    }
  }

  KernelCache Cache;
  ServerConfig Config;
  Config.MergeModels = true;
  Config.NumShards = 2; // group members must still land on ONE shard
  Config.MaxBatchSamples = 64;
  Config.MaxQueueDelayUs = 10000; // wide window so tenants co-batch
  Config.NumWorkers = 2;
  InferenceServer Server(Config, &Cache);
  for (unsigned T = 0; T < kTenants; ++T)
    ASSERT_FALSE(Server.addModel("tenant" + std::to_string(T),
                                 Tenants[T], Query, Compile))
        << "tenant " << T;

  // One compile for the whole fleet; every tenant got its own weight
  // table.
  EXPECT_EQ(Cache.getStats().Misses, 1u);
  EXPECT_EQ(Cache.size(), 1u);
  std::vector<bool> SeenTable(kTenants, false);
  for (unsigned T = 0; T < kTenants; ++T) {
    std::optional<int32_t> Table =
        Server.getModelTableIndex("tenant" + std::to_string(T));
    ASSERT_TRUE(Table.has_value()) << "tenant " << T;
    ASSERT_GE(*Table, 0);
    ASSERT_LT(static_cast<unsigned>(*Table), kTenants);
    EXPECT_FALSE(SeenTable[*Table]) << "duplicate table " << *Table;
    SeenTable[*Table] = true;
  }

  // Mixed traffic: every client interleaves tenants, so batches carry
  // rows for several models.
  constexpr unsigned kClients = 6;
  constexpr unsigned kPerClient = 30;
  std::atomic<unsigned> Mismatches{0};
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C < kClients; ++C)
    Clients.emplace_back([&, C] {
      for (unsigned R = 0; R < kPerClient; ++R) {
        unsigned T = (C + R) % kTenants;
        size_t Index = (C * kPerClient + R) % kNumSamples;
        ResultFuture Future =
            Server.submit("tenant" + std::to_string(T),
                          Inputs.data() + Index * Rat.NumFeatures, 1);
        InferenceResult Result = Future.take();
        if (Result.Status != RequestStatus::Ok ||
            Result.LogLikelihoods.size() != 1 ||
            std::abs(Result.LogLikelihoods[0] -
                     Reference[T][Index]) > 1e-9)
          ++Mismatches;
      }
    });
  for (std::thread &Client : Clients)
    Client.join();
  EXPECT_EQ(Mismatches.load(), 0u);

  ServerStats Stats = Server.getStats();
  EXPECT_EQ(Stats.CompletedRequests, uint64_t(kClients) * kPerClient);
  EXPECT_EQ(Stats.RejectedRequests, 0u);
  EXPECT_EQ(Stats.TimedOutRequests, 0u);
  // The headline behavior: at least one dispatched batch carried rows
  // for two or more tenants.
  EXPECT_GE(Stats.CrossModelBatches, 1u);
  EXPECT_GT(Stats.meanBatchSize(), 1.0);
  Server.shutdown();
}

TEST_F(ServingTest, MergedGroupMembersShareTheFirstMembersShard) {
  // The first member of a merge group is placed by its structural hash;
  // every later member joins the group's entry, so the whole group
  // lands on that one shard. Tenants differ in their content hashes,
  // so placing them one by one would spread them over the shards.
  constexpr unsigned kTenants = 10;
  constexpr size_t kShards = 4;
  workloads::RatSpnOptions Rat;
  Rat.NumFeatures = 16;
  Rat.Depth = 2;
  Rat.Replicas = 2;
  Rat.SumsPerRegion = 3;
  Rat.LeafDistributions = 4;
  Rat.Seed = 23;
  std::vector<spn::Model> Tenants;
  for (unsigned Class = 0; Class < kTenants; ++Class)
    Tenants.push_back(workloads::generateRatSpn(Rat, Class));

  KernelCache Cache;
  ServerConfig Config;
  Config.MergeModels = true;
  Config.NumShards = kShards;
  InferenceServer Server(Config, &Cache);
  for (unsigned T = 0; T < kTenants; ++T)
    ASSERT_FALSE(Server.addModel("tenant" + std::to_string(T),
                                 Tenants[T], Query, Compile))
        << "tenant " << T;

  size_t GroupShard = InferenceServer::placeOnShard(
      KernelCache::structuralHash(Tenants[0]), kShards);
  for (unsigned T = 0; T < kTenants; ++T) {
    std::optional<size_t> Placed =
        Server.getModelShard("tenant" + std::to_string(T));
    ASSERT_TRUE(Placed.has_value()) << "tenant " << T;
    EXPECT_EQ(*Placed, GroupShard) << "tenant " << T;
  }
  Server.shutdown();
}

TEST_F(ServingTest, ConcurrentRegistrationsAllRoute) {
  // Registration is thread-safe like every public member: names added
  // from several threads at once, merged or not, all route and answer.
  KernelCache Cache;
  std::vector<double> Expected = directResults(Cache, Query, Compile);
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPerThread = 4;
  // Appended rather than "m" + ..., which GCC 12 flags with -Wrestrict.
  std::vector<std::string> Names(kThreads * kPerThread, "m");
  for (unsigned M = 0; M < Names.size(); ++M)
    Names[M] += std::to_string(M);
  for (bool Merge : {false, true}) {
    ServerConfig Config;
    Config.MergeModels = Merge;
    Config.NumShards = 2;
    InferenceServer Server(Config, &Cache);
    std::atomic<unsigned> Failures{0};
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < kThreads; ++T)
      Threads.emplace_back([&, T] {
        for (unsigned I = 0; I < kPerThread; ++I)
          if (Server.addModel(Names[T * kPerThread + I], *Model, Query,
                              Compile))
            ++Failures;
      });
    for (std::thread &Thread : Threads)
      Thread.join();
    EXPECT_EQ(Failures.load(), 0u) << "merged: " << Merge;
    for (unsigned M = 0; M < Names.size(); ++M) {
      InferenceResult Result = Server.submit(Names[M], sampleRow(M), 1).take();
      ASSERT_EQ(Result.Status, RequestStatus::Ok) << Names[M];
      EXPECT_EQ(Result.LogLikelihoods[0], Expected[M % kNumSamples])
          << Names[M];
    }
    Server.shutdown();
  }
}

TEST_F(ServingTest, MergeModelsFallsBackForUnsupportedQueries) {
  // MPE kernels bake their parameters: the server must silently fall
  // back to a per-model queue, not fail registration.
  KernelCache Cache;
  ServerConfig Config;
  Config.MergeModels = true;
  Config.MaxQueueDelayUs = 500;
  InferenceServer Server(Config, &Cache);
  spn::QueryConfig Mpe;
  Mpe.Kind = spn::QueryKind::Mpe;
  ASSERT_FALSE(Server.addModel("speaker-mpe", *Model, Mpe, Compile));
  EXPECT_TRUE(Server.hasModel("speaker-mpe"));
  // Unmerged registrations expose no weight-table index.
  EXPECT_FALSE(Server.getModelTableIndex("speaker-mpe").has_value());

  std::vector<double> Evidence(NumFeatures,
                               std::numeric_limits<double>::quiet_NaN());
  ResultFuture Future = Server.submit("speaker-mpe", Evidence.data(), 1);
  InferenceResult Result = Future.take();
  EXPECT_EQ(Result.Status, RequestStatus::Ok);

  // The simulated GPU binds weight tables like the CPU engines, so a
  // GPU-targeted likelihood model merges.
  CompilerOptions Gpu = Compile;
  Gpu.TheTarget = Target::GPU;
  ASSERT_FALSE(Server.addModel("speaker-gpu", *Model, spn::QueryConfig(),
                               Gpu));
  EXPECT_TRUE(Server.getModelTableIndex("speaker-gpu").has_value());
  std::vector<double> Row(Data.begin(),
                          Data.begin() + static_cast<ptrdiff_t>(NumFeatures));
  InferenceResult GpuResult =
      Server.submit("speaker-gpu", Row.data(), 1).take();
  ASSERT_EQ(GpuResult.Status, RequestStatus::Ok);
  ASSERT_EQ(GpuResult.LogLikelihoods.size(), 1u);
  double Want = Model->evalLogLikelihood(Row);
  EXPECT_NEAR(GpuResult.LogLikelihoods[0], Want,
              1e-4 * std::fabs(Want) + 1e-4);
  Server.shutdown();
}

//===----------------------------------------------------------------------===//
// Submit traces
//===----------------------------------------------------------------------===//

class TraceFileTest : public ::testing::Test {
protected:
  void SetUp() override {
    TempDir = std::filesystem::path(::testing::TempDir()) /
              ("spnc-serving-trace-" +
               std::to_string(::testing::UnitTest::GetInstance()
                                  ->random_seed()) +
               "-" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name());
    std::filesystem::remove_all(TempDir);
    std::filesystem::create_directories(TempDir);
  }
  void TearDown() override { std::filesystem::remove_all(TempDir); }

  std::string writeFile(const char *Name, const char *Contents) {
    std::string Path = (TempDir / Name).string();
    std::FILE *File = std::fopen(Path.c_str(), "w");
    EXPECT_NE(File, nullptr);
    std::fputs(Contents, File);
    std::fclose(File);
    return Path;
  }

  std::filesystem::path TempDir;
};

TEST_F(TraceFileTest, LoadsRecordedTrace) {
  std::string Path = writeFile("good.trace",
                               "# header comment\n"
                               "0 0 4\n"
                               "1 250\n"
                               "0 125 2\n");
  Expected<std::vector<TraceEvent>> Trace =
      loadSubmitTrace(Path, /*DefaultSamples=*/8);
  ASSERT_TRUE(static_cast<bool>(Trace));
  ASSERT_EQ(Trace->size(), 3u);
  EXPECT_EQ((*Trace)[0].NumSamples, 4u);
  EXPECT_EQ((*Trace)[1].ModelIndex, 1u);
  EXPECT_EQ((*Trace)[1].DelayUs, 250u);
  EXPECT_EQ((*Trace)[1].NumSamples, 8u); // default filled in
  EXPECT_EQ((*Trace)[2].NumSamples, 2u);
}

TEST_F(TraceFileTest, MissingFileFails) {
  Expected<std::vector<TraceEvent>> Trace =
      loadSubmitTrace((TempDir / "nope.trace").string(), 1);
  ASSERT_FALSE(static_cast<bool>(Trace));
  EXPECT_NE(Trace.getError().message().find("cannot open"),
            std::string::npos);
}

TEST_F(TraceFileTest, EmptyTraceFails) {
  std::string Path =
      writeFile("empty.trace", "# only comments\n\n   \n");
  Expected<std::vector<TraceEvent>> Trace = loadSubmitTrace(Path, 1);
  ASSERT_FALSE(static_cast<bool>(Trace));
  EXPECT_NE(Trace.getError().message().find("contains no requests"),
            std::string::npos);
}

TEST_F(TraceFileTest, MalformedLineFailsWithLineNumber) {
  std::string Path = writeFile("bad.trace",
                               "0 0 1\n"
                               "not a trace line\n");
  Expected<std::vector<TraceEvent>> Trace = loadSubmitTrace(Path, 1);
  ASSERT_FALSE(static_cast<bool>(Trace));
  EXPECT_NE(Trace.getError().message().find("bad trace line 2"),
            std::string::npos);
}

TEST_F(TraceFileTest, PriorityFieldRoundTripsAndDefaultsToBulk) {
  // The optional 4th field carries the scheduling class; lines without
  // it (pre-priority recordings) load as Bulk.
  std::string Path = writeFile("prio.trace",
                               "# mixed-priority trace\n"
                               "0 0 4 interactive\n"
                               "1 250 2 bulk\n"
                               "0 125 1\n"
                               "1 10\n");
  Expected<std::vector<TraceEvent>> Trace =
      loadSubmitTrace(Path, /*DefaultSamples=*/8);
  ASSERT_TRUE(static_cast<bool>(Trace));
  ASSERT_EQ(Trace->size(), 4u);
  EXPECT_EQ((*Trace)[0].ThePriority, serving::Priority::Interactive);
  EXPECT_EQ((*Trace)[0].NumSamples, 4u);
  EXPECT_EQ((*Trace)[1].ThePriority, serving::Priority::Bulk);
  EXPECT_EQ((*Trace)[2].ThePriority, serving::Priority::Bulk);
  EXPECT_EQ((*Trace)[3].ThePriority, serving::Priority::Bulk);
  EXPECT_EQ((*Trace)[3].NumSamples, 8u); // default filled in
}

TEST_F(TraceFileTest, UnknownPriorityTokenFails) {
  std::string Path = writeFile("badprio.trace",
                               "0 0 1 interactive\n"
                               "0 0 1 urgent\n");
  Expected<std::vector<TraceEvent>> Trace = loadSubmitTrace(Path, 1);
  ASSERT_FALSE(static_cast<bool>(Trace));
  EXPECT_NE(Trace.getError().message().find("bad trace line 2"),
            std::string::npos);
}

Expected<std::vector<TraceEvent>> parseTrace(const std::string &Text) {
  return parseSubmitTrace(Text, /*DefaultSamples=*/8);
}

TEST(SubmitTraceTest, FormattedEventsParseBack) {
  std::vector<TraceEvent> Events = {
      {0, 0, 1, Priority::Interactive},
      {3, 18446744073709551615ull, 4096, Priority::Bulk},
      {7, 250, 8, Priority::Interactive}};
  std::string Text;
  for (const TraceEvent &Event : Events)
    Text += formatTraceEvent(Event);
  EXPECT_EQ(formatTraceEvent(Events[1]),
            "3 18446744073709551615 4096 bulk\n");
  Expected<std::vector<TraceEvent>> Parsed = parseTrace(Text);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.getError().message();
  ASSERT_EQ(Parsed->size(), Events.size());
  for (size_t I = 0; I < Events.size(); ++I) {
    EXPECT_EQ((*Parsed)[I].ModelIndex, Events[I].ModelIndex);
    EXPECT_EQ((*Parsed)[I].DelayUs, Events[I].DelayUs);
    EXPECT_EQ((*Parsed)[I].NumSamples, Events[I].NumSamples);
    EXPECT_EQ((*Parsed)[I].ThePriority, Events[I].ThePriority);
  }

  // Two fields take the default sample count and the bulk class.
  Expected<std::vector<TraceEvent>> Short = parseTrace("2 5\n");
  ASSERT_TRUE(static_cast<bool>(Short));
  EXPECT_EQ((*Short)[0].NumSamples, 8u);
  EXPECT_EQ((*Short)[0].ThePriority, Priority::Bulk);
}

TEST(SubmitTraceTest, RejectsSignsOverflowZeroSamplesAndExtraFields) {
  for (const char *Bad : {"0 -5 -1", "-1 0", "0 0 -1", "+1 0",
                          "0 18446744073709551616", "0 0 0",
                          "0 0 1 bulk extra", "0 0 1x", "0"}) {
    Expected<std::vector<TraceEvent>> Trace =
        parseTrace(std::string("# header\n0 0 1\n") + Bad + "\n");
    ASSERT_FALSE(static_cast<bool>(Trace)) << Bad;
    EXPECT_NE(Trace.getError().message().find("bad trace line 3"),
              std::string::npos)
        << Bad << ": " << Trace.getError().message();
  }
}

TEST(SubmitTraceTest, LongCommentLinesParse) {
  std::string Text = "#" + std::string(300, 'c') + "\n\t1 2 3\r\n";
  Expected<std::vector<TraceEvent>> Trace = parseTrace(Text);
  ASSERT_TRUE(static_cast<bool>(Trace)) << Trace.getError().message();
  ASSERT_EQ(Trace->size(), 1u);
  EXPECT_EQ((*Trace)[0].ModelIndex, 1u);
  EXPECT_EQ((*Trace)[0].DelayUs, 2u);
  EXPECT_EQ((*Trace)[0].NumSamples, 3u);
}

} // namespace
