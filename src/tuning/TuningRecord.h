//===- TuningRecord.h - Persisted per-model tuning result ---------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable output of a tuning run: which knob values won, what they
/// measured, and how they were measured — serialized as JSON through the
/// `json::Writer` report machinery (stable key order) and parsed back
/// with `json::parse`. Records live beside the kernels they select:
/// `KernelCache::tuningRecordPath(modelHash)` names the per-model
/// sidecar `<cache-dir>/<modelhash>.tune.json` (see docs/tuning.md and
/// docs/spnk-format.md), which `spnc-tune` writes and
/// `spnc-cli`/`spnc-serve --tuned` load and apply.
///
/// Schema (version 1):
///
///   {
///     "tuning_record_version": 1,
///     "model": "...", "model_hash": "0011223344556677",
///     "objective": "throughput",
///     "evaluator": "closed-loop clients=4 requests=64 samples=1",
///     "knobs": { "opt-level": 3, "partition-slack": 0.05,
///                "backend": "vm", ... },
///     "score": ..., "throughput_samples_per_s": ...,
///     "p99_latency_ns": ..., "evaluations": ..., "seed": ...
///   }
///
/// `model_hash` is `KernelCache::contentHash` rendered as 16 hex digits
/// (JSON numbers are doubles and cannot carry 64 bits exactly). Knob
/// values keep their type: JSON numbers for integer/real knobs, strings
/// for text knobs.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_TUNING_TUNINGRECORD_H
#define SPNC_TUNING_TUNINGRECORD_H

#include "support/Expected.h"
#include "support/LogicalResult.h"
#include "tuning/SearchSpace.h"

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spnc {

class RawOStream;

namespace tuning {

/// The winning configuration of one tuning run, plus its provenance.
struct TuningRecord {
  /// Current schema version (see file comment).
  static constexpr unsigned kVersion = 1;

  /// Model name (diagnostics only; the hash is the identity).
  std::string ModelName;
  /// KernelCache::contentHash of the tuned model.
  uint64_t ModelHash = 0;
  /// Printable objective the run optimized ("throughput",
  /// "p99-latency", "blend(latency-weight=0.5)").
  std::string Objective;
  /// Printable description of the evaluator (load shape or trace).
  std::string Evaluator;
  /// Winning knob values, in search-space knob order.
  std::vector<std::pair<std::string, KnobValue>> Knobs;
  /// The winner's objective score (higher is better).
  double Score = 0.0;
  /// The winner's raw measurements.
  double ThroughputSamplesPerSec = 0.0;
  double P99LatencyNs = 0.0;
  /// Candidate evaluations the run spent, and its seed.
  uint64_t Evaluations = 0;
  uint64_t Seed = 0;
};

/// What applyTuningRecord did with one recorded knob.
struct AppliedKnob {
  std::string Name;
  std::string Value;
  /// The knob was left alone because the caller set it explicitly.
  bool Overridden = false;
  /// The knob name is unknown to this build (record from a newer
  /// version); skipped.
  bool Unknown = false;
};

/// Applies \p Record's knobs onto \p Config, skipping every knob named
/// in \p ExplicitKnobs (flags the user set explicitly always win) and
/// every unknown knob. Returns one entry per recorded knob saying what
/// happened — callers log this so a tuned run is auditable.
std::vector<AppliedKnob>
applyTuningRecord(const TuningRecord &Record, TunedConfig &Config,
                  const std::vector<std::string> &ExplicitKnobs = {});

/// Writes \p Record as JSON to \p OS (stable key order, golden-tested).
void writeTuningRecord(const TuningRecord &Record, RawOStream &OS);

/// Writes the record to \p Path (overwritten). On failure,
/// \p ErrorMessage (when non-null) receives the reason.
LogicalResult saveTuningRecord(const TuningRecord &Record,
                               const std::string &Path,
                               std::string *ErrorMessage = nullptr);

/// Parses a record previously written by writeTuningRecord. Fails with
/// a diagnostic on malformed JSON, a missing/malformed member, or an
/// unsupported schema version.
Expected<TuningRecord> parseTuningRecord(std::string_view Json);

/// Reads and parses the record at \p Path.
Expected<TuningRecord> loadTuningRecord(const std::string &Path);

} // namespace tuning
} // namespace spnc

#endif // SPNC_TUNING_TUNINGRECORD_H
