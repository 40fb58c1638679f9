//===- TuningRecord.cpp - Persisted per-model tuning result ------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "tuning/TuningRecord.h"

#include "support/FileIO.h"
#include "support/JSON.h"
#include "support/RawOStream.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

using namespace spnc;
using namespace spnc::tuning;

std::vector<AppliedKnob>
spnc::tuning::applyTuningRecord(const TuningRecord &Record,
                                TunedConfig &Config,
                                const std::vector<std::string> &ExplicitKnobs) {
  std::vector<AppliedKnob> Applied;
  Applied.reserve(Record.Knobs.size());
  for (const auto &[Name, Value] : Record.Knobs) {
    AppliedKnob Info;
    Info.Name = Name;
    Info.Value = Value.text();
    bool Explicit = std::find(ExplicitKnobs.begin(), ExplicitKnobs.end(),
                              Name) != ExplicitKnobs.end();
    if (Explicit)
      Info.Overridden = true;
    else if (!applyKnobByName(Config, Name, Value))
      Info.Unknown = true;
    Applied.push_back(std::move(Info));
  }
  return Applied;
}

static std::string hashToHex(uint64_t Hash) {
  char Buffer[17];
  std::snprintf(Buffer, sizeof(Buffer), "%016llx",
                static_cast<unsigned long long>(Hash));
  return Buffer;
}

void spnc::tuning::writeTuningRecord(const TuningRecord &Record,
                                     RawOStream &OS) {
  json::Writer W(OS);
  W.beginObject();
  W.member("tuning_record_version", uint64_t(TuningRecord::kVersion));
  W.member("model", Record.ModelName);
  // 16 hex digits: JSON numbers are doubles and would round a 64-bit
  // hash.
  W.member("model_hash", hashToHex(Record.ModelHash));
  W.member("objective", Record.Objective);
  W.member("evaluator", Record.Evaluator);
  W.key("knobs");
  W.beginObject();
  for (const auto &[Name, Value] : Record.Knobs) {
    W.key(Name);
    switch (Value.kind()) {
    case KnobValue::Kind::UInt:
      W.value(Value.getUInt());
      break;
    case KnobValue::Kind::Real:
      W.value(Value.getReal());
      break;
    case KnobValue::Kind::Text:
      W.value(Value.getText());
      break;
    }
  }
  W.endObject();
  W.member("score", Record.Score);
  W.member("throughput_samples_per_s", Record.ThroughputSamplesPerSec);
  W.member("p99_latency_ns", Record.P99LatencyNs);
  W.member("evaluations", Record.Evaluations);
  W.member("seed", Record.Seed);
  W.endObject();
  OS << '\n';
}

LogicalResult spnc::tuning::saveTuningRecord(const TuningRecord &Record,
                                             const std::string &Path,
                                             std::string *ErrorMessage) {
  std::string Text;
  StringOStream OS(Text);
  writeTuningRecord(Record, OS);
  return replaceFileAtomically(Path, Text, ErrorMessage);
}

/// Parses the 16-hex-digit model hash written by writeTuningRecord.
static bool parseHexHash(const std::string &Text, uint64_t &Hash) {
  if (Text.empty() || Text.size() > 16)
    return false;
  Hash = 0;
  for (char C : Text) {
    unsigned Digit;
    if (C >= '0' && C <= '9')
      Digit = static_cast<unsigned>(C - '0');
    else if (C >= 'a' && C <= 'f')
      Digit = static_cast<unsigned>(C - 'a') + 10;
    else if (C >= 'A' && C <= 'F')
      Digit = static_cast<unsigned>(C - 'A') + 10;
    else
      return false;
    Hash = (Hash << 4) | Digit;
  }
  return true;
}

static Expected<double> getNumberMember(const json::Value &Object,
                                        std::string_view Key) {
  const json::Value *Member = Object.find(Key);
  if (!Member || !Member->isNumber())
    return makeError("tuning record: missing or non-numeric '" +
                     std::string(Key) + "'");
  return Member->getNumber();
}

static Expected<std::string> getStringMember(const json::Value &Object,
                                             std::string_view Key) {
  const json::Value *Member = Object.find(Key);
  if (!Member || !Member->isString())
    return makeError("tuning record: missing or non-string '" +
                     std::string(Key) + "'");
  return Member->getString();
}

Expected<TuningRecord>
spnc::tuning::parseTuningRecord(std::string_view Json) {
  Expected<json::Value> Doc = json::parse(Json);
  if (!Doc)
    return makeError("tuning record: " + Doc.getError().message());
  const json::Value &Root = Doc.get();
  if (!Root.isObject())
    return makeError("tuning record: top-level value is not an object");

  Expected<double> Version =
      getNumberMember(Root, "tuning_record_version");
  if (!Version)
    return Version.getError();
  if (Version.get() != double(TuningRecord::kVersion))
    return makeError("tuning record: unsupported version " +
                     std::to_string(static_cast<long>(Version.get())) +
                     " (this build reads version " +
                     std::to_string(TuningRecord::kVersion) + ")");

  TuningRecord Record;
  Expected<std::string> Model = getStringMember(Root, "model");
  if (!Model)
    return Model.getError();
  Record.ModelName = std::move(Model.get());

  Expected<std::string> Hash = getStringMember(Root, "model_hash");
  if (!Hash)
    return Hash.getError();
  if (!parseHexHash(Hash.get(), Record.ModelHash))
    return makeError("tuning record: malformed 'model_hash' \"" +
                     Hash.get() + "\" (expected up to 16 hex digits)");

  Expected<std::string> Objective = getStringMember(Root, "objective");
  if (!Objective)
    return Objective.getError();
  Record.Objective = std::move(Objective.get());

  Expected<std::string> Evaluator = getStringMember(Root, "evaluator");
  if (!Evaluator)
    return Evaluator.getError();
  Record.Evaluator = std::move(Evaluator.get());

  const json::Value *Knobs = Root.find("knobs");
  if (!Knobs || !Knobs->isObject())
    return makeError("tuning record: missing or non-object 'knobs'");
  for (const auto &[Name, Value] : Knobs->getMembers()) {
    if (Value.isString()) {
      Record.Knobs.emplace_back(Name,
                                KnobValue::ofText(Value.getString()));
      continue;
    }
    if (!Value.isNumber())
      return makeError("tuning record: knob '" + Name +
                       "' is neither a number nor a string");
    double Number = Value.getNumber();
    // Integral values round-trip as UInt so applyKnobByName sees the
    // kind the search space used; everything else is a real knob.
    if (Number >= 0 && Number == std::floor(Number) &&
        Number <= 9007199254740992.0 /* 2^53 */)
      Record.Knobs.emplace_back(
          Name, KnobValue::ofUInt(static_cast<uint64_t>(Number)));
    else
      Record.Knobs.emplace_back(Name, KnobValue::ofReal(Number));
  }

  Expected<double> Score = getNumberMember(Root, "score");
  if (!Score)
    return Score.getError();
  Record.Score = Score.get();

  Expected<double> Throughput =
      getNumberMember(Root, "throughput_samples_per_s");
  if (!Throughput)
    return Throughput.getError();
  Record.ThroughputSamplesPerSec = Throughput.get();

  Expected<double> P99 = getNumberMember(Root, "p99_latency_ns");
  if (!P99)
    return P99.getError();
  Record.P99LatencyNs = P99.get();

  Expected<double> Evaluations = getNumberMember(Root, "evaluations");
  if (!Evaluations)
    return Evaluations.getError();
  Record.Evaluations = static_cast<uint64_t>(Evaluations.get());

  Expected<double> Seed = getNumberMember(Root, "seed");
  if (!Seed)
    return Seed.getError();
  Record.Seed = static_cast<uint64_t>(Seed.get());

  return Record;
}

Expected<TuningRecord>
spnc::tuning::loadTuningRecord(const std::string &Path) {
  Expected<std::string> Text = readWholeFile(Path);
  if (!Text)
    return Text.getError();
  Expected<TuningRecord> Record = parseTuningRecord(*Text);
  if (!Record)
    return makeError("'" + Path + "': " + Record.getError().message());
  return Record;
}
