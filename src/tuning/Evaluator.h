//===- Evaluator.h - Measuring one tuning candidate ---------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How the tuner scores a candidate. An `Evaluator` turns a
/// `TunedConfig` into a `Measurement` (throughput, tail latency, request
/// outcomes); an `Objective` folds a measurement into one scalar score,
/// higher-is-better. The shipped `ServingEvaluator` measures the
/// configuration the way it will actually run: it compiles the model
/// through the candidate's backend into a shared `KernelCache` and
/// drives a `serving::InferenceServer` either with a synthetic
/// closed loop (N clients x R requests) or by replaying a recorded
/// `spnc-serve --record-trace` log. Throughput is measured against the
/// evaluator's own serving-phase wall clock, so candidate compile time
/// does not distort the score (the cache also makes revisited
/// candidates cheap).
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_TUNING_EVALUATOR_H
#define SPNC_TUNING_EVALUATOR_H

#include "frontend/Model.h"
#include "frontend/Query.h"
#include "runtime/KernelCache.h"
#include "serving/SubmitTrace.h"
#include "tuning/SearchSpace.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace spnc {
namespace tuning {

/// What one candidate evaluation measured.
struct Measurement {
  /// Ok-completed samples per second of serving-phase wall clock
  /// (compilation excluded).
  double ThroughputSamplesPerSec = 0.0;
  /// p99 submit-to-completion latency of Ok requests, nanoseconds.
  double P99LatencyNs = 0.0;
  /// Request outcomes (Failed = rejected + timed out + shut down).
  uint64_t OkRequests = 0;
  uint64_t FailedRequests = 0;
  /// Mean samples per dispatched micro-batch.
  double MeanBatchSamples = 0.0;
  /// Time spent registering the model (compile or cache hit).
  uint64_t CompileNs = 0;
  /// Serving-phase wall clock (submit of the first request to the last
  /// drained future).
  uint64_t WallNs = 0;
};

/// Folds a Measurement into one higher-is-better score.
struct Objective {
  enum class Kind : uint8_t {
    /// Maximize ThroughputSamplesPerSec.
    Throughput,
    /// Minimize P99LatencyNs (score is its negation).
    P99Latency,
    /// Maximize (1-w)*log(throughput) - w*log(p99): log scales make the
    /// weight mean "relative-change trade-off", not "nanoseconds vs
    /// samples/s".
    Blend,
  };

  Kind TheKind = Kind::Throughput;
  /// Blend only: weight w on the latency term, in [0, 1].
  double LatencyWeight = 0.5;

  double score(const Measurement &M) const;
  /// Printable name ("throughput", "p99-latency",
  /// "blend(latency-weight=0.5)").
  std::string describe() const;
};

/// Measures one candidate configuration.
class Evaluator {
public:
  virtual ~Evaluator() = default;

  /// Measures \p Config. Fails when the candidate cannot run at all
  /// (unknown backend, compilation failure) — the tuner skips such
  /// candidates rather than aborting the search.
  virtual Expected<Measurement> evaluate(const TunedConfig &Config) = 0;

  /// Printable description of the load this evaluator applies (stored
  /// in the TuningRecord for provenance).
  virtual std::string describe() const = 0;
};

/// Load shape of the ServingEvaluator.
struct ServingEvaluatorOptions {
  /// Closed loop (when Trace is empty): client threads, requests per
  /// client, and samples per request.
  unsigned Clients = 4;
  unsigned RequestsPerClient = 64;
  size_t SamplesPerRequest = 1;
  /// Seed of the synthetic feature rows.
  uint64_t Seed = 1;
  /// When non-empty, replay these events (serving::loadSubmitTrace)
  /// instead of the closed loop.
  std::vector<serving::TraceEvent> Trace;
  /// Trace events are filtered to this model index (the evaluator
  /// serves one model); dropped events donate their inter-arrival
  /// delays to the next kept event, preserving the arrival timeline.
  size_t TraceModelIndex = 0;
  /// Replay DelayUs / TraceSpeedup (1.0 = as recorded).
  double TraceSpeedup = 1.0;
  /// Disk tier of the per-backend kernel caches (empty = memory only).
  std::string CacheDirectory;
};

/// Evaluates candidates by serving the model under load (see file
/// comment). Not thread-safe; the tuner evaluates sequentially.
class ServingEvaluator : public Evaluator {
public:
  ServingEvaluator(spn::Model Model, spn::QueryConfig Query,
                   ServingEvaluatorOptions Options = {});
  ~ServingEvaluator() override;

  Expected<Measurement> evaluate(const TunedConfig &Config) override;
  std::string describe() const override;

private:
  /// The per-backend caches persist across evaluations, so a candidate
  /// revisiting an already-compiled (backend, compile-options) point
  /// pays a cache hit instead of a recompile. Fails on an unknown
  /// backend name.
  Expected<runtime::KernelCache *>
  cacheFor(const std::string &BackendName);

  spn::Model Model;
  spn::QueryConfig Query;
  ServingEvaluatorOptions Options;
  std::map<std::string, std::unique_ptr<runtime::KernelCache>> Caches;
};

} // namespace tuning
} // namespace spnc

#endif // SPNC_TUNING_EVALUATOR_H
