//===- spnc-tune.cpp - Search-based compile + serving autotuner ----------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Searches the compile + serving knob space (vector width, opt level,
/// graph partitioning, backend, micro-batching, worker count; see
/// docs/tuning.md) for the configuration that maximizes the chosen
/// objective on a real serving workload — either a synthetic closed
/// loop or a replayed `spnc-serve --record-trace` log. The winner is
/// written as a per-model `TuningRecord` JSON, either to --output or
/// into the kernel-cache directory (`<hash>.tune.json`, next to the
/// `.spnk` kernels the run compiled), where `spnc-cli --tuned` and
/// `spnc-serve --tuned` pick it up automatically.
///
//===----------------------------------------------------------------------===//

#include "frontend/Serializer.h"
#include "runtime/KernelCache.h"
#include "support/RawOStream.h"
#include "support/StringUtils.h"
#include "tuning/Tuner.h"
#include "tuning/TuningRecord.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

using namespace spnc;
using namespace spnc::tuning;

namespace {

struct TuneOptions {
  std::string ModelPath;
  Objective TheObjective;
  TunerOptions Tuner;
  ServingEvaluatorOptions Evaluator;
  std::vector<std::string> Backends = {"vm"};
  runtime::Target Target = runtime::Target::CPU;
  std::string TracePath;
  std::string CacheDirectory;
  std::string OutputPath;
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: spnc-tune MODEL.spnb [options]\n"
      "  --objective NAME     throughput (default), p99-latency, or "
      "blend\n"
      "  --blend-latency-weight W\n"
      "                       blend objective: weight on the latency "
      "term,\n"
      "                       0..1 (default 0.5)\n"
      "  --budget-evals N     evaluator-call budget (default 48)\n"
      "  --budget-ms N        wall-clock budget, 0 = none (default)\n"
      "  --restarts N         random restarts after the default "
      "descent\n"
      "                       (default 1)\n"
      "  --seed N             search + workload seed (default 1)\n"
      "  --clients N          closed-loop client threads (default 4)\n"
      "  --requests N         requests per client (default 64)\n"
      "  --samples N          samples per request (default 1)\n"
      "  --trace FILE         evaluate by replaying a recorded submit\n"
      "                       trace instead of the closed loop\n"
      "  --trace-model N      model index to keep from the trace "
      "(default 0)\n"
      "  --trace-speedup X    divide recorded inter-arrival delays by "
      "X\n"
      "                       (default 1)\n"
      "  --backends a,b       candidate backends (default 'vm'; add "
      "cpp\n"
      "                       to search the native backend too)\n"
      "  --target cpu|gpu     compilation target (default cpu; gpu "
      "adds\n"
      "                       the gpu-block-size knob)\n"
      "  --kernel-cache DIR   kernel cache directory; the winning "
      "record\n"
      "                       is stored there as <hash>.tune.json\n"
      "  --output FILE.json   also write the TuningRecord here\n"
      "  --help, -h           print this message and exit\n");
}

bool parseArguments(int Argc, char **Argv, TuneOptions &Options) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto NextValue = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    auto NextUnsigned = [&](auto &Out) -> bool {
      const char *V = NextValue();
      return V && parseUnsigned(V, Out);
    };
    if (Arg == "--objective") {
      const char *V = NextValue();
      if (!V)
        return false;
      if (std::strcmp(V, "throughput") == 0)
        Options.TheObjective.TheKind = Objective::Kind::Throughput;
      else if (std::strcmp(V, "p99-latency") == 0)
        Options.TheObjective.TheKind = Objective::Kind::P99Latency;
      else if (std::strcmp(V, "blend") == 0)
        Options.TheObjective.TheKind = Objective::Kind::Blend;
      else
        return false;
    } else if (Arg == "--blend-latency-weight") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.TheObjective.LatencyWeight = std::strtod(V, nullptr);
      if (Options.TheObjective.LatencyWeight < 0 ||
          Options.TheObjective.LatencyWeight > 1)
        return false;
    } else if (Arg == "--budget-evals") {
      if (!NextUnsigned(Options.Tuner.MaxEvaluations))
        return false;
    } else if (Arg == "--budget-ms") {
      if (!NextUnsigned(Options.Tuner.TimeBudgetMs))
        return false;
    } else if (Arg == "--restarts") {
      if (!NextUnsigned(Options.Tuner.RandomRestarts))
        return false;
    } else if (Arg == "--seed") {
      if (!NextUnsigned(Options.Tuner.Seed))
        return false;
      Options.Evaluator.Seed = Options.Tuner.Seed;
    } else if (Arg == "--clients") {
      if (!NextUnsigned(Options.Evaluator.Clients))
        return false;
    } else if (Arg == "--requests") {
      if (!NextUnsigned(Options.Evaluator.RequestsPerClient))
        return false;
    } else if (Arg == "--samples") {
      if (!NextUnsigned(Options.Evaluator.SamplesPerRequest))
        return false;
    } else if (Arg == "--trace") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.TracePath = V;
    } else if (Arg == "--trace-model") {
      if (!NextUnsigned(Options.Evaluator.TraceModelIndex))
        return false;
    } else if (Arg == "--trace-speedup") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.Evaluator.TraceSpeedup = std::strtod(V, nullptr);
      if (Options.Evaluator.TraceSpeedup <= 0)
        return false;
    } else if (Arg == "--backends") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.Backends.clear();
      std::string List = V;
      size_t Start = 0;
      while (Start <= List.size()) {
        size_t Comma = List.find(',', Start);
        if (Comma == std::string::npos)
          Comma = List.size();
        if (Comma > Start)
          Options.Backends.push_back(
              List.substr(Start, Comma - Start));
        Start = Comma + 1;
      }
      if (Options.Backends.empty())
        return false;
    } else if (Arg == "--target") {
      const char *V = NextValue();
      if (!V)
        return false;
      if (std::strcmp(V, "gpu") == 0)
        Options.Target = runtime::Target::GPU;
      else if (std::strcmp(V, "cpu") != 0)
        return false;
    } else if (Arg == "--kernel-cache") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.CacheDirectory = V;
    } else if (Arg == "--output") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.OutputPath = V;
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      return false;
    } else if (Options.ModelPath.empty()) {
      Options.ModelPath = Arg;
    } else {
      std::fprintf(stderr, "spnc-tune takes exactly one model\n");
      return false;
    }
  }
  return !Options.ModelPath.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--help") == 0 ||
        std::strcmp(Argv[I], "-h") == 0) {
      printUsage();
      return 0;
    }
  TuneOptions Options;
  if (!parseArguments(Argc, Argv, Options)) {
    printUsage();
    return 2;
  }
  if (Options.CacheDirectory.empty() && Options.OutputPath.empty()) {
    std::fprintf(stderr,
                 "spnc-tune: need --kernel-cache DIR and/or --output "
                 "FILE to store the tuning record\n");
    return 2;
  }

  Expected<spn::Model> Model = spn::loadModel(Options.ModelPath);
  if (!Model) {
    std::fprintf(stderr, "failed to load model '%s': %s\n",
                 Options.ModelPath.c_str(),
                 Model.getError().message().c_str());
    return 1;
  }
  uint64_t ModelHash = runtime::KernelCache::contentHash(*Model);

  if (!Options.TracePath.empty()) {
    Expected<std::vector<serving::TraceEvent>> Trace =
        serving::loadSubmitTrace(Options.TracePath,
                                 Options.Evaluator.SamplesPerRequest);
    if (!Trace) {
      std::fprintf(stderr, "%s\n",
                   Trace.getError().message().c_str());
      return 1;
    }
    Options.Evaluator.Trace = Trace.takeValue();
  }
  Options.Evaluator.CacheDirectory = Options.CacheDirectory;

  DefaultSpaceOptions SpaceOptions;
  SpaceOptions.Backends = Options.Backends;
  SpaceOptions.Target = Options.Target;
  SearchSpace Space = SearchSpace::makeDefault(SpaceOptions);
  std::fprintf(
      stderr,
      "tuning '%s' (hash %016llx): %zu knobs, %llu candidates, "
      "budget %llu evaluation(s)\n",
      Options.ModelPath.c_str(),
      static_cast<unsigned long long>(ModelHash), Space.getNumKnobs(),
      static_cast<unsigned long long>(Space.getNumCandidates()),
      static_cast<unsigned long long>(Options.Tuner.MaxEvaluations));

  spn::QueryConfig Query;
  ServingEvaluator Evaluator(std::move(*Model), Query,
                             Options.Evaluator);

  FileOStream Log(stderr);
  Options.Tuner.Log = &Log;
  Options.Tuner.BaseConfig.Compile.TheTarget = Options.Target;
  Tuner TheTuner(Space, Evaluator, Options.TheObjective,
                 Options.Tuner);
  Expected<TunerResult> Result = TheTuner.run();
  if (!Result) {
    std::fprintf(stderr, "%s\n", Result.getError().message().c_str());
    return 1;
  }

  // Default-vs-best summary: the default candidate is always the first
  // history entry when it evaluated successfully.
  const EvaluatedCandidate &Best = Result->Best;
  if (!Result->History.empty() &&
      Result->History.front().Candidate == Space.defaultCandidate()) {
    const EvaluatedCandidate &Default = Result->History.front();
    double DefaultThr =
        Default.TheMeasurement.ThroughputSamplesPerSec;
    double BestThr = Best.TheMeasurement.ThroughputSamplesPerSec;
    std::fprintf(stderr,
                 "default %.0f samples/s -> best %.0f samples/s "
                 "(%+.1f%%), p99 %.0f -> %.0f us, %llu evaluation(s)%s\n",
                 DefaultThr, BestThr,
                 DefaultThr > 0
                     ? (BestThr / DefaultThr - 1.0) * 100.0
                     : 0.0,
                 Default.TheMeasurement.P99LatencyNs / 1000.0,
                 Best.TheMeasurement.P99LatencyNs / 1000.0,
                 static_cast<unsigned long long>(Result->Evaluations),
                 Result->BudgetExhausted ? " (budget exhausted)" : "");
  }
  std::fprintf(stderr, "best configuration: %s\n",
               Space.describe(Best.Candidate).c_str());

  TuningRecord Record;
  Record.ModelName = Options.ModelPath;
  Record.ModelHash = ModelHash;
  Record.Objective = Options.TheObjective.describe();
  Record.Evaluator = Evaluator.describe();
  for (size_t K = 0; K < Space.getNumKnobs(); ++K) {
    const Knob &TheKnob = Space.getKnobs()[K];
    Record.Knobs.emplace_back(
        TheKnob.getName(), TheKnob.getValues()[Best.Candidate[K]]);
  }
  Record.Score = Best.Score;
  Record.ThroughputSamplesPerSec =
      Best.TheMeasurement.ThroughputSamplesPerSec;
  Record.P99LatencyNs = Best.TheMeasurement.P99LatencyNs;
  Record.Evaluations = Result->Evaluations;
  Record.Seed = Options.Tuner.Seed;

  std::vector<std::string> Destinations;
  if (!Options.CacheDirectory.empty()) {
    // The evaluator usually created the directory when it spilled
    // kernels; an evaluation-free run (budget 0) still needs it.
    std::error_code EC;
    std::filesystem::create_directories(Options.CacheDirectory, EC);
    runtime::KernelCache::Config CacheConfig;
    CacheConfig.Directory = Options.CacheDirectory;
    runtime::KernelCache Cache(CacheConfig);
    Destinations.push_back(Cache.tuningRecordPath(ModelHash));
  }
  if (!Options.OutputPath.empty())
    Destinations.push_back(Options.OutputPath);
  for (const std::string &Path : Destinations) {
    std::string SaveError;
    if (failed(saveTuningRecord(Record, Path, &SaveError))) {
      std::fprintf(stderr, "failed to save tuning record: %s\n",
                   SaveError.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote tuning record to '%s'\n",
                 Path.c_str());
  }
  return 0;
}
