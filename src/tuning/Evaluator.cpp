//===- Evaluator.cpp - Measuring one tuning candidate -------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "tuning/Evaluator.h"

#include "backend/LookupBackend.h"
#include "serving/InferenceServer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

using namespace spnc;
using namespace spnc::tuning;

double Objective::score(const Measurement &M) const {
  switch (TheKind) {
  case Kind::Throughput:
    return M.ThroughputSamplesPerSec;
  case Kind::P99Latency:
    return -M.P99LatencyNs;
  case Kind::Blend: {
    // Log scales keep the two terms comparable: the weight trades
    // relative improvements, not nanoseconds against samples/s.
    double Throughput = std::max(M.ThroughputSamplesPerSec, 1e-9);
    double P99 = std::max(M.P99LatencyNs, 1.0);
    return (1.0 - LatencyWeight) * std::log(Throughput) -
           LatencyWeight * std::log(P99);
  }
  }
  return 0.0;
}

std::string Objective::describe() const {
  switch (TheKind) {
  case Kind::Throughput:
    return "throughput";
  case Kind::P99Latency:
    return "p99-latency";
  case Kind::Blend: {
    char Buffer[48];
    std::snprintf(Buffer, sizeof(Buffer), "blend(latency-weight=%g)",
                  LatencyWeight);
    return Buffer;
  }
  }
  return "unknown";
}

ServingEvaluator::ServingEvaluator(spn::Model Model,
                                   spn::QueryConfig Query,
                                   ServingEvaluatorOptions Options)
    : Model(std::move(Model)), Query(Query),
      Options(std::move(Options)) {}

ServingEvaluator::~ServingEvaluator() = default;

Expected<runtime::KernelCache *>
ServingEvaluator::cacheFor(const std::string &BackendName) {
  auto It = Caches.find(BackendName);
  if (It != Caches.end())
    return It->second.get();
  Expected<std::shared_ptr<backend::Backend>> Backend =
      backend::lookupBackend(BackendName);
  if (!Backend)
    return Backend.getError();
  runtime::KernelCache::Config Config;
  Config.Directory = Options.CacheDirectory;
  Config.TheBackend = Backend.takeValue();
  auto Cache = std::make_unique<runtime::KernelCache>(Config);
  runtime::KernelCache *Raw = Cache.get();
  Caches.emplace(BackendName, std::move(Cache));
  return Raw;
}

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

Expected<Measurement>
ServingEvaluator::evaluate(const TunedConfig &Config) {
  Expected<runtime::KernelCache *> Cache =
      cacheFor(Config.BackendName);
  if (!Cache)
    return Cache.getError();

  serving::InferenceServer Server(Config.Server, Cache.get());
  const char *Name = "tuned-model";
  uint64_t CompileStart = nowNs();
  if (std::optional<Error> Err =
          Server.addModel(Name, Model, Query, Config.Compile))
    return makeError("candidate failed to compile: " +
                     Err->message());
  Measurement M;
  M.CompileNs = nowNs() - CompileStart;

  unsigned NumFeatures = Model.getNumFeatures();
  uint64_t ServeStart = nowNs();
  uint64_t Ok = 0, Failed = 0;
  if (!Options.Trace.empty()) {
    // Trace replay: keep the events of the tuned model, fold the
    // delays of dropped (other-model) events into the next kept one so
    // the arrival timeline survives the filter.
    std::vector<serving::TraceEvent> Replay;
    uint64_t CarriedDelayUs = 0;
    for (const serving::TraceEvent &Event : Options.Trace) {
      if (Event.ModelIndex != Options.TraceModelIndex) {
        CarriedDelayUs += Event.DelayUs;
        continue;
      }
      serving::TraceEvent Kept = Event;
      Kept.DelayUs += CarriedDelayUs;
      CarriedDelayUs = 0;
      Replay.push_back(Kept);
    }
    if (Replay.empty())
      return makeError(
          "trace has no requests for model index " +
          std::to_string(Options.TraceModelIndex));
    double Speedup = Options.TraceSpeedup > 0 ? Options.TraceSpeedup
                                              : 1.0;
    std::vector<serving::ResultFuture> Futures;
    Futures.reserve(Replay.size());
    for (size_t I = 0; I < Replay.size(); ++I) {
      const serving::TraceEvent &Event = Replay[I];
      uint64_t DelayUs = static_cast<uint64_t>(
          static_cast<double>(Event.DelayUs) / Speedup);
      if (DelayUs)
        std::this_thread::sleep_for(
            std::chrono::microseconds(DelayUs));
      std::vector<double> Rows = serving::makeSyntheticRows(
          NumFeatures, Event.NumSamples, Options.Seed + I);
      Futures.push_back(Server.submit(Name, Rows.data(),
                                      Event.NumSamples,
                                      /*DeadlineUs=*/0,
                                      Event.ThePriority));
    }
    for (serving::ResultFuture &Future : Futures) {
      serving::InferenceResult Result = Future.take();
      (Result.Status == serving::RequestStatus::Ok ? Ok : Failed) += 1;
    }
  } else {
    // Synthetic closed loop.
    std::atomic<uint64_t> OkCount{0}, FailedCount{0};
    std::vector<std::thread> Clients;
    Clients.reserve(Options.Clients);
    for (unsigned C = 0; C < Options.Clients; ++C)
      Clients.emplace_back([&, C] {
        for (unsigned R = 0; R < Options.RequestsPerClient; ++R) {
          std::vector<double> Rows = serving::makeSyntheticRows(
              NumFeatures, Options.SamplesPerRequest,
              Options.Seed + (uint64_t(C) << 32 | R));
          serving::InferenceResult Result =
              Server
                  .submit(Name, Rows.data(),
                          Options.SamplesPerRequest)
                  .take();
          if (Result.Status == serving::RequestStatus::Ok)
            ++OkCount;
          else
            ++FailedCount;
        }
      });
    for (std::thread &Client : Clients)
      Client.join();
    Ok = OkCount.load();
    Failed = FailedCount.load();
  }
  uint64_t ServeEnd = nowNs();

  serving::ServerStats Stats = Server.getStats();
  Server.shutdown();

  M.WallNs = ServeEnd - ServeStart;
  M.OkRequests = Ok;
  M.FailedRequests = Failed;
  M.MeanBatchSamples = Stats.meanBatchSize();
  M.P99LatencyNs =
      static_cast<double>(Stats.LatencyNs.quantile(0.99));
  // Our own serving-phase wall clock, not Stats.ElapsedNs — the latter
  // starts at server construction and would charge compile time to the
  // candidate.
  M.ThroughputSamplesPerSec =
      M.WallNs ? static_cast<double>(Stats.CompletedSamples) * 1e9 /
                     static_cast<double>(M.WallNs)
               : 0.0;
  if (Ok == 0)
    return makeError("candidate completed no requests successfully (" +
                     std::to_string(Failed) + " failed)");
  return M;
}

std::string ServingEvaluator::describe() const {
  char Buffer[128];
  if (!Options.Trace.empty()) {
    std::snprintf(Buffer, sizeof(Buffer),
                  "trace-replay events=%zu model-index=%zu speedup=%g",
                  Options.Trace.size(), Options.TraceModelIndex,
                  Options.TraceSpeedup);
    return Buffer;
  }
  std::snprintf(Buffer, sizeof(Buffer),
                "closed-loop clients=%u requests=%u samples=%zu",
                Options.Clients, Options.RequestsPerClient,
                Options.SamplesPerRequest);
  return Buffer;
}
