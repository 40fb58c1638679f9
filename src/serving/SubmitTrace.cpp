//===- SubmitTrace.cpp - Recorded submit traces -------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "serving/SubmitTrace.h"

#include "support/FileIO.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <random>

using namespace spnc;
using namespace spnc::serving;

namespace {

/// What separates the fields of a line.
constexpr std::string_view kBlank = " \t\r";

/// Parses one request line into \p Event; false when it is malformed.
bool parseLine(std::string_view Line, size_t DefaultSamples,
               TraceEvent &Event) {
  std::string_view Fields[4];
  size_t NumFields = 0;
  for (size_t Begin = Line.find_first_not_of(kBlank);
       Begin != std::string_view::npos;) {
    if (NumFields == 4)
      return false;
    size_t End = std::min(Line.find_first_of(kBlank, Begin), Line.size());
    Fields[NumFields++] = Line.substr(Begin, End - Begin);
    Begin = Line.find_first_not_of(kBlank, End);
  }
  Event.NumSamples = DefaultSamples;
  if (NumFields < 2 ||
      !parseUnsigned(Fields[0], Event.ModelIndex) ||
      !parseUnsigned(Fields[1], Event.DelayUs) ||
      (NumFields >= 3 && !parseUnsigned(Fields[2], Event.NumSamples)) ||
      Event.NumSamples == 0)
    return false;
  return NumFields < 4 ||
         parsePriority(std::string(Fields[3]).c_str(), Event.ThePriority);
}

} // namespace

Expected<std::vector<TraceEvent>>
spnc::serving::parseSubmitTrace(std::string_view Text,
                                size_t DefaultSamples) {
  std::vector<TraceEvent> Trace;
  size_t LineNo = 0;
  while (!Text.empty()) {
    size_t End = std::min(Text.find('\n'), Text.size());
    std::string_view Line = Text.substr(0, End);
    Text.remove_prefix(std::min(End + 1, Text.size()));
    ++LineNo;
    size_t First = Line.find_first_not_of(kBlank);
    if (First == std::string_view::npos || Line[First] == '#')
      continue;
    TraceEvent Event;
    if (!parseLine(Line, DefaultSamples, Event))
      return makeError("bad trace line " + std::to_string(LineNo) +
                       " (expected MODEL_INDEX DELAY_US "
                       "[NUM_SAMPLES [PRIORITY]])");
    Trace.push_back(Event);
  }
  if (Trace.empty())
    return makeError("trace contains no requests");
  return Trace;
}

Expected<std::vector<TraceEvent>>
spnc::serving::loadSubmitTrace(const std::string &Path,
                               size_t DefaultSamples) {
  Expected<std::string> Text = readWholeFile(Path);
  if (!Text)
    return Text.getError();
  Expected<std::vector<TraceEvent>> Trace =
      parseSubmitTrace(*Text, DefaultSamples);
  if (!Trace)
    return makeError("'" + Path + "': " + Trace.getError().message());
  return Trace;
}

std::string spnc::serving::formatTraceEvent(const TraceEvent &Event) {
  return std::to_string(Event.ModelIndex) + ' ' +
         std::to_string(Event.DelayUs) + ' ' +
         std::to_string(Event.NumSamples) + ' ' +
         priorityName(Event.ThePriority) + '\n';
}

std::vector<double> spnc::serving::makeSyntheticRows(unsigned NumFeatures,
                                                     size_t NumSamples,
                                                     uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> Dist(0.0, 4.0);
  std::vector<double> Rows(NumSamples * NumFeatures);
  for (double &V : Rows)
    V = Dist(Rng);
  return Rows;
}
