//===- SubmitTrace.h - Recorded submit traces ---------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The submit-trace format that `spnc-serve --record-trace` writes and
/// `spnc-serve --trace` and `spnc-tune --trace` replay, one request per
/// line:
///
///   MODEL_INDEX DELAY_US [NUM_SAMPLES [PRIORITY]]
///
/// MODEL_INDEX, DELAY_US and NUM_SAMPLES are unsigned decimal integers
/// (no sign, no overflow), NUM_SAMPLES is at least 1 and defaults to the
/// replayer's sample count, and PRIORITY is `interactive` or `bulk`
/// (default bulk). Fields are separated by spaces or tabs; a line whose
/// first non-blank character is '#' is a comment. A line with another
/// field count or a bad field is rejected with its line number. Also
/// here: the synthetic feature rows the replayers submit.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_SERVING_SUBMITTRACE_H
#define SPNC_SERVING_SUBMITTRACE_H

#include "serving/InferenceServer.h"
#include "support/Expected.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace spnc {
namespace serving {

/// One request of a submit trace.
struct TraceEvent {
  size_t ModelIndex = 0;
  /// Inter-arrival sleep before this submit.
  uint64_t DelayUs = 0;
  size_t NumSamples = 0;
  /// Scheduling class; lines without the optional priority field
  /// (pre-priority recordings) load as Bulk.
  Priority ThePriority = Priority::Bulk;
};

/// Parses the trace \p Text. \p DefaultSamples fills lines that omit
/// NUM_SAMPLES. Fails with "bad trace line N (expected ...)" on a
/// malformed line and with "trace contains no requests" when no line
/// holds a request.
Expected<std::vector<TraceEvent>> parseSubmitTrace(std::string_view Text,
                                                   size_t DefaultSamples);

/// Reads the trace at \p Path and parses it; errors name the path.
Expected<std::vector<TraceEvent>> loadSubmitTrace(const std::string &Path,
                                                  size_t DefaultSamples);

/// The newline-terminated trace line of \p Event, every field written.
std::string formatTraceEvent(const TraceEvent &Event);

/// Deterministic synthetic feature rows: \p NumSamples rows of
/// \p NumFeatures values uniform in [0, 4), drawn from a 64-bit
/// Mersenne twister seeded with \p Seed. Load drivers measure serving
/// behaviour, not model accuracy.
std::vector<double> makeSyntheticRows(unsigned NumFeatures,
                                      size_t NumSamples, uint64_t Seed);

} // namespace serving
} // namespace spnc

#endif // SPNC_SERVING_SUBMITTRACE_H
