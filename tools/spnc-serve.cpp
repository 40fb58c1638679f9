//===- spnc-serve.cpp - Serving-layer load driver -------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the in-process `serving::InferenceServer` against one or more
/// serialized models: either a synthetic closed-loop arrival process
/// (N client threads issuing R requests each, round-robin over the
/// models) or a recorded request trace. Prints a human summary to
/// stderr and, with --stats-report, the `ServerStats` snapshot as JSON.
/// With --record-trace, live submissions are logged in the replayable
/// trace format below; --backend selects the registered compilation
/// backend ('vm' bytecode interpreter or 'cpp' AOT native kernels);
/// --tuned applies a `spnc-tune` TuningRecord (explicit flags still
/// win) and logs every knob it set.
///
/// Trace format: one request per line,
///   MODEL_INDEX DELAY_US [NUM_SAMPLES [PRIORITY]]
/// where MODEL_INDEX selects the Nth positional model (0-based),
/// DELAY_US is the inter-arrival sleep before submitting, NUM_SAMPLES
/// defaults to --samples, and PRIORITY is 'interactive' or 'bulk'
/// (default bulk — priority-less traces from older recordings load
/// unchanged). '#' starts a comment.
///
//===----------------------------------------------------------------------===//

#include "backend/BackendRegistry.h"
#include "frontend/Serializer.h"
#include "runtime/KernelCache.h"
#include "serving/InferenceServer.h"
#include "serving/ServingReports.h"
#include "tuning/TuningRecord.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace spnc;
using namespace spnc::serving;

namespace {

struct ServeOptions {
  std::vector<std::string> ModelPaths;
  runtime::CompilerOptions Compile;
  spn::QueryConfig Query;
  ServerConfig Server;
  /// Client threads in the synthetic closed loop.
  unsigned Clients = 4;
  /// Requests per client thread.
  unsigned Requests = 256;
  /// Samples per request.
  size_t Samples = 1;
  /// Per-client inter-request think time (microseconds).
  uint64_t ThinkUs = 0;
  /// Deadline attached to every request (0 = none).
  uint64_t DeadlineUs = 0;
  /// Closed-loop clients with index < this submit Interactive; the rest
  /// submit Bulk.
  unsigned InteractiveClients = 0;
  std::string TracePath;
  /// Log live submissions here in the --trace line format (empty = off).
  std::string RecordTracePath;
  std::string StatsReportPath;
  /// Write the sharded (aggregate + per-shard) stats report here.
  std::string ShardReportPath;
  /// Registered backend compiling the served kernels.
  std::string BackendName = "vm";
  /// Disk tier of the kernel cache (also where bare --tuned looks for
  /// the tuning record).
  std::string KernelCacheDir;
  /// Apply a spnc-tune TuningRecord before serving.
  bool Tuned = false;
  /// Explicit record path (--tuned=FILE); empty = derive from
  /// --kernel-cache and the first model's hash.
  std::string TunedPath;
  /// Knobs the user pinned on the command line; a tuning record never
  /// overrides these.
  std::vector<std::string> ExplicitKnobs;
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: spnc-serve MODEL.spnb [MODEL2.spnb ...] [options]\n"
      "  --target cpu|gpu     compilation target (default cpu)\n"
      "  --query KIND         joint|marginal|mpe|sample (default "
      "joint)\n"
      "  --seed N             base RNG seed for --query=sample "
      "(default 0)\n"
      "  --opt N              optimization level 0-3 (default 2)\n"
      "  --vector-width N     SIMD lanes 1/4/8/16 (default 8)\n"
      "  --clients N          client threads (default 4)\n"
      "  --requests N         requests per client (default 256)\n"
      "  --samples N          samples per request (default 1)\n"
      "  --think-us N         per-client delay between requests "
      "(default 0)\n"
      "  --deadline-us N      per-request queue deadline (default: "
      "none)\n"
      "  --max-batch N        micro-batch sample cap (default 256)\n"
      "  --max-delay-us N     batching window (default 1000)\n"
      "  --queue-depth N      outstanding-sample bound, 0 = unbounded "
      "(default 4096)\n"
      "  --block              block on a full queue instead of "
      "rejecting\n"
      "  --workers N          batch-executing worker threads per shard "
      "(default 2)\n"
      "  --shards N           independent server shards (default 1)\n"
      "  --priority-weight N  interactive:bulk dispatch credit ratio "
      "N:1\n"
      "                       (default 4)\n"
      "  --interactive-clients N\n"
      "                       closed-loop clients 0..N-1 submit at\n"
      "                       interactive priority (default 0 = all "
      "bulk)\n"
      "  --gpu-streams N      simulated device streams per GPU model\n"
      "                       (default 0 = one per shard worker)\n"
      "  --merge-models       give structurally-isomorphic models "
      "(which\n"
      "                       share one kernel) one queue, so their\n"
      "                       traffic batches together (joint/marginal "
      "only;\n"
      "                       see docs/merging.md)\n"
      "  --backend NAME       execution backend: 'vm' (default) or "
      "'cpp'\n"
      "                       (AOT-compiled native kernels)\n"
      "  --kernel-cache DIR   persistent kernel cache directory\n"
      "  --tuned[=FILE]       apply a spnc-tune TuningRecord: FILE, or\n"
      "                       <kernel-cache>/<model-hash>.tune.json "
      "when\n"
      "                       bare; explicit flags still override\n"
      "  --trace FILE         replay 'MODEL_INDEX DELAY_US "
      "[NUM_SAMPLES [PRIORITY]]'\n"
      "                       lines instead of the synthetic closed "
      "loop\n"
      "  --record-trace FILE  log live submit timestamps in the --trace\n"
      "                       format (replayable with --trace FILE)\n"
      "  --stats-report FILE.json\n"
      "                       write the aggregated ServerStats snapshot "
      "as JSON\n"
      "  --shard-report FILE.json\n"
      "                       write the sharded report (aggregate +\n"
      "                       per-priority latency + per-shard stats)\n"
      "  --help, -h           print this message and exit\n");
}

bool parseArguments(int Argc, char **Argv, ServeOptions &Options) {
  Options.Compile.OptLevel = 2;
  Options.Compile.Execution.VectorWidth = 8;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto NextValue = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    auto NextUnsigned = [&](auto &Out) -> bool {
      const char *V = NextValue();
      if (!V)
        return false;
      Out = static_cast<std::remove_reference_t<decltype(Out)>>(
          std::strtoull(V, nullptr, 10));
      return true;
    };
    // "--flag=value" spelling.
    auto EqualsValue = [&](const char *Flag, std::string &Out) -> bool {
      std::string Prefix = std::string(Flag) + "=";
      if (Arg.rfind(Prefix, 0) != 0)
        return false;
      Out = Arg.substr(Prefix.size());
      return true;
    };
    if (EqualsValue("--trace", Options.TracePath) ||
        EqualsValue("--record-trace", Options.RecordTracePath) ||
        EqualsValue("--stats-report", Options.StatsReportPath) ||
        EqualsValue("--shard-report", Options.ShardReportPath) ||
        EqualsValue("--kernel-cache", Options.KernelCacheDir))
      continue;
    std::string EqualsNumber;
    if (EqualsValue("--shards", EqualsNumber)) {
      Options.Server.NumShards = static_cast<unsigned>(
          std::strtoull(EqualsNumber.c_str(), nullptr, 10));
      Options.ExplicitKnobs.push_back("num-shards");
      continue;
    }
    if (EqualsValue("--priority-weight", EqualsNumber)) {
      Options.Server.InteractiveWeight = static_cast<unsigned>(
          std::strtoull(EqualsNumber.c_str(), nullptr, 10));
      Options.ExplicitKnobs.push_back("priority-weight");
      continue;
    }
    if (EqualsValue("--clients", EqualsNumber)) {
      Options.Clients = static_cast<unsigned>(
          std::strtoull(EqualsNumber.c_str(), nullptr, 10));
      continue;
    }
    if (EqualsValue("--backend", Options.BackendName)) {
      Options.ExplicitKnobs.push_back("backend");
      continue;
    }
    if (EqualsValue("--tuned", Options.TunedPath)) {
      Options.Tuned = true;
      continue;
    }
    if (Arg == "--tuned") {
      Options.Tuned = true;
    } else if (Arg == "--kernel-cache") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.KernelCacheDir = V;
    } else if (Arg == "--target") {
      const char *V = NextValue();
      if (!V)
        return false;
      if (std::strcmp(V, "gpu") == 0)
        Options.Compile.TheTarget = runtime::Target::GPU;
      else if (std::strcmp(V, "cpu") != 0)
        return false;
    } else if (Arg == "--query" || Arg.rfind("--query=", 0) == 0) {
      const char *V = Arg[7] == '=' ? Arg.c_str() + 8 : NextValue();
      if (!V || !spn::parseQueryKind(V, Options.Query.Kind))
        return false;
    } else if (Arg == "--seed") {
      if (!NextUnsigned(Options.Server.SampleSeed))
        return false;
    } else if (Arg == "--opt") {
      if (!NextUnsigned(Options.Compile.OptLevel))
        return false;
      Options.ExplicitKnobs.push_back("opt-level");
    } else if (Arg == "--vector-width") {
      if (!NextUnsigned(Options.Compile.Execution.VectorWidth))
        return false;
      Options.ExplicitKnobs.push_back("vector-width");
    } else if (Arg == "--clients") {
      if (!NextUnsigned(Options.Clients))
        return false;
    } else if (Arg == "--requests") {
      if (!NextUnsigned(Options.Requests))
        return false;
    } else if (Arg == "--samples") {
      if (!NextUnsigned(Options.Samples))
        return false;
    } else if (Arg == "--think-us") {
      if (!NextUnsigned(Options.ThinkUs))
        return false;
    } else if (Arg == "--deadline-us") {
      if (!NextUnsigned(Options.DeadlineUs))
        return false;
    } else if (Arg == "--max-batch") {
      if (!NextUnsigned(Options.Server.MaxBatchSamples))
        return false;
      Options.ExplicitKnobs.push_back("max-batch-samples");
    } else if (Arg == "--max-delay-us") {
      if (!NextUnsigned(Options.Server.MaxQueueDelayUs))
        return false;
      Options.ExplicitKnobs.push_back("max-queue-delay-us");
    } else if (Arg == "--queue-depth") {
      if (!NextUnsigned(Options.Server.MaxQueueDepth))
        return false;
    } else if (Arg == "--block") {
      Options.Server.Admission = ServerConfig::AdmissionPolicy::Block;
    } else if (Arg == "--merge-models") {
      Options.Server.MergeModels = true;
    } else if (Arg == "--workers") {
      if (!NextUnsigned(Options.Server.NumWorkers))
        return false;
      Options.ExplicitKnobs.push_back("num-workers");
    } else if (Arg == "--shards") {
      if (!NextUnsigned(Options.Server.NumShards))
        return false;
      Options.ExplicitKnobs.push_back("num-shards");
    } else if (Arg == "--priority-weight") {
      if (!NextUnsigned(Options.Server.InteractiveWeight))
        return false;
      Options.ExplicitKnobs.push_back("priority-weight");
    } else if (Arg == "--interactive-clients") {
      if (!NextUnsigned(Options.InteractiveClients))
        return false;
    } else if (Arg == "--gpu-streams") {
      if (!NextUnsigned(Options.Compile.Device.NumStreams))
        return false;
    } else if (Arg == "--shard-report") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.ShardReportPath = V;
    } else if (Arg == "--trace") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.TracePath = V;
    } else if (Arg == "--record-trace") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.RecordTracePath = V;
    } else if (Arg == "--backend") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.BackendName = V;
      Options.ExplicitKnobs.push_back("backend");
    } else if (Arg == "--stats-report") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.StatsReportPath = V;
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      return false;
    } else {
      Options.ModelPaths.push_back(Arg);
    }
  }
  return !Options.ModelPaths.empty();
}

/// Synthetic feature rows: uniform values in a small range — the tool
/// measures serving behavior, not model accuracy.
std::vector<double> makeSyntheticRows(unsigned NumFeatures,
                                      size_t NumSamples, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> Dist(0.0, 4.0);
  std::vector<double> Rows(NumSamples * NumFeatures);
  for (double &V : Rows)
    V = Dist(Rng);
  return Rows;
}

struct Outcome {
  std::atomic<uint64_t> Ok{0};
  std::atomic<uint64_t> Rejected{0};
  std::atomic<uint64_t> TimedOut{0};
  std::atomic<uint64_t> Other{0};

  void count(const InferenceResult &Result) {
    switch (Result.Status) {
    case RequestStatus::Ok:
      ++Ok;
      break;
    case RequestStatus::Rejected:
      ++Rejected;
      break;
    case RequestStatus::TimedOut:
      ++TimedOut;
      break;
    case RequestStatus::ShutDown:
    case RequestStatus::Failed:
      ++Other;
      break;
    }
  }
};

/// One parsed trace line.
struct TraceRequest {
  size_t ModelIndex = 0;
  uint64_t DelayUs = 0;
  size_t NumSamples = 0;
  Priority ThePriority = Priority::Bulk;
};

bool loadTrace(const std::string &Path, size_t NumModels,
               size_t DefaultSamples,
               std::vector<TraceRequest> &Trace) {
  std::FILE *File = std::fopen(Path.c_str(), "r");
  if (!File) {
    std::fprintf(stderr, "cannot open trace '%s'\n", Path.c_str());
    return false;
  }
  char Line[256];
  size_t LineNo = 0;
  while (std::fgets(Line, sizeof(Line), File)) {
    ++LineNo;
    const char *Cursor = Line;
    while (*Cursor == ' ' || *Cursor == '\t')
      ++Cursor;
    if (*Cursor == '\0' || *Cursor == '\n' || *Cursor == '#')
      continue;
    TraceRequest Request;
    Request.NumSamples = DefaultSamples;
    char PriorityText[16] = {0};
    int Parsed = std::sscanf(Cursor, "%zu %llu %zu %15s",
                             &Request.ModelIndex,
                             reinterpret_cast<unsigned long long *>(
                                 &Request.DelayUs),
                             &Request.NumSamples, PriorityText);
    // The priority field is optional (older recordings lack it and load
    // as Bulk), but a present-and-unparsable one is an error.
    if (Parsed < 2 || Request.ModelIndex >= NumModels ||
        Request.NumSamples == 0 ||
        (Parsed >= 4 &&
         !parsePriority(PriorityText, Request.ThePriority))) {
      std::fprintf(stderr, "bad trace line %zu in '%s'\n", LineNo,
                   Path.c_str());
      std::fclose(File);
      return false;
    }
    Trace.push_back(Request);
  }
  std::fclose(File);
  return true;
}

/// Logs live submissions in the exact line format loadTrace parses, so
/// a recorded run replays with `--trace FILE`. Delays are the measured
/// inter-submit gaps of the merged arrival sequence (the first line
/// gets delay 0); concurrent closed-loop clients serialize through the
/// recorder's lock, which is also what makes the written order match
/// the recorded delays.
class TraceRecorder {
public:
  explicit TraceRecorder(std::FILE *File) : File(File) {
    std::fprintf(File,
                 "# spnc-serve --record-trace: MODEL_INDEX DELAY_US "
                 "NUM_SAMPLES PRIORITY\n");
  }

  ~TraceRecorder() {
    if (File)
      std::fclose(File);
  }

  TraceRecorder(const TraceRecorder &) = delete;
  TraceRecorder &operator=(const TraceRecorder &) = delete;

  void record(size_t ModelIndex, size_t NumSamples,
              Priority ThePriority) {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto Now = std::chrono::steady_clock::now();
    uint64_t DelayUs = 0;
    if (HaveLast)
      DelayUs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Now -
                                                                Last)
              .count());
    HaveLast = true;
    Last = Now;
    std::fprintf(File, "%zu %llu %zu %s\n", ModelIndex,
                 static_cast<unsigned long long>(DelayUs), NumSamples,
                 priorityName(ThePriority));
  }

private:
  std::FILE *File;
  std::mutex Mutex;
  bool HaveLast = false;
  std::chrono::steady_clock::time_point Last;
};

} // namespace

int main(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--help") == 0 ||
        std::strcmp(Argv[I], "-h") == 0) {
      printUsage();
      return 0;
    }
  ServeOptions Options;
  if (!parseArguments(Argc, Argv, Options)) {
    printUsage();
    return 2;
  }
  if (Options.Samples == 0)
    Options.Samples = 1;

  // Models load before the server exists: bare --tuned needs the first
  // model's hash to find its record, and the record decides the server
  // configuration.
  std::vector<std::pair<std::string, spn::Model>> Models;
  for (const std::string &Path : Options.ModelPaths) {
    Expected<spn::Model> Model = spn::loadModel(Path);
    if (!Model) {
      std::fprintf(stderr, "failed to load model '%s': %s\n",
                   Path.c_str(), Model.getError().message().c_str());
      return 1;
    }
    Models.emplace_back(Path, Model.takeValue());
  }

  if (Options.Tuned) {
    std::string RecordPath = Options.TunedPath;
    if (RecordPath.empty()) {
      if (Options.KernelCacheDir.empty()) {
        std::fprintf(stderr,
                     "--tuned needs --kernel-cache DIR (or "
                     "--tuned=FILE) to locate the tuning record\n");
        return 2;
      }
      runtime::KernelCache::Config PathConfig;
      PathConfig.Directory = Options.KernelCacheDir;
      runtime::KernelCache PathCache(PathConfig);
      RecordPath = PathCache.tuningRecordPath(
          runtime::KernelCache::contentHash(Models.front().second));
    }
    Expected<tuning::TuningRecord> Record =
        tuning::loadTuningRecord(RecordPath);
    if (!Record) {
      std::fprintf(stderr, "%s\n", Record.getError().message().c_str());
      return 1;
    }
    tuning::TunedConfig Tuned;
    Tuned.Compile = Options.Compile;
    Tuned.Server = Options.Server;
    Tuned.BackendName = Options.BackendName;
    std::vector<tuning::AppliedKnob> Applied = tuning::applyTuningRecord(
        *Record, Tuned, Options.ExplicitKnobs);
    Options.Compile = Tuned.Compile;
    Options.Server = Tuned.Server;
    Options.BackendName = Tuned.BackendName;
    std::string Summary;
    for (const tuning::AppliedKnob &Knob : Applied) {
      if (!Summary.empty())
        Summary += ' ';
      Summary += Knob.Name + "=" + Knob.Value;
      if (Knob.Overridden)
        Summary += " (overridden by flag)";
      else if (Knob.Unknown)
        Summary += " (unknown, skipped)";
    }
    std::fprintf(stderr,
                 "applied tuning record '%s' (objective %s): %s\n",
                 RecordPath.c_str(), Record->Objective.c_str(),
                 Summary.c_str());
  }

  Expected<std::shared_ptr<backend::Backend>> BackendOrErr =
      backend::BackendRegistry::global().lookup(Options.BackendName);
  if (!BackendOrErr) {
    std::fprintf(stderr, "%s\n",
                 BackendOrErr.getError().message().c_str());
    return 2;
  }

  std::unique_ptr<TraceRecorder> Recorder;
  if (!Options.RecordTracePath.empty()) {
    std::FILE *File = std::fopen(Options.RecordTracePath.c_str(), "w");
    if (!File) {
      std::fprintf(stderr, "cannot open '%s' for trace recording\n",
                   Options.RecordTracePath.c_str());
      return 1;
    }
    Recorder = std::make_unique<TraceRecorder>(File);
  }

  // The server compiles through this backend-configured cache; the
  // serving layer itself stays backend-agnostic.
  runtime::KernelCache::Config CacheConfig;
  CacheConfig.Directory = Options.KernelCacheDir;
  CacheConfig.TheBackend = BackendOrErr.takeValue();
  runtime::KernelCache Cache(CacheConfig);
  InferenceServer Server(Options.Server, &Cache);
  std::vector<std::string> ModelNames;
  for (const auto &[Path, Model] : Models) {
    if (std::optional<Error> Err = Server.addModel(
            Path, Model, Options.Query, Options.Compile)) {
      std::fprintf(stderr, "failed to register model '%s': %s\n",
                   Path.c_str(), Err->message().c_str());
      return 1;
    }
    if (std::optional<int32_t> Table = Server.getModelTableIndex(Path))
      std::fprintf(stderr,
                   "registered '%s': %u features (merged, weight table "
                   "%d)\n",
                   Path.c_str(), Model.getNumFeatures(), *Table);
    else
      std::fprintf(stderr, "registered '%s': %u features\n",
                   Path.c_str(), Model.getNumFeatures());
    ModelNames.push_back(Path);
  }

  Outcome Counts;
  if (!Options.TracePath.empty()) {
    // Trace replay: a single open-loop submitter sleeping the recorded
    // inter-arrival gaps; futures drain after the last submit.
    std::vector<TraceRequest> Trace;
    if (!loadTrace(Options.TracePath, ModelNames.size(),
                   Options.Samples, Trace))
      return 1;
    std::vector<ResultFuture> Futures;
    Futures.reserve(Trace.size());
    for (size_t I = 0; I < Trace.size(); ++I) {
      const TraceRequest &Request = Trace[I];
      if (Request.DelayUs)
        std::this_thread::sleep_for(
            std::chrono::microseconds(Request.DelayUs));
      std::vector<double> Rows = makeSyntheticRows(
          Server.getNumFeatures(ModelNames[Request.ModelIndex]),
          Request.NumSamples, /*Seed=*/I);
      if (Recorder)
        Recorder->record(Request.ModelIndex, Request.NumSamples,
                         Request.ThePriority);
      Futures.push_back(Server.submit(ModelNames[Request.ModelIndex],
                                      Rows.data(), Request.NumSamples,
                                      Options.DeadlineUs,
                                      Request.ThePriority));
    }
    for (ResultFuture &Future : Futures)
      Counts.count(Future.get());
    std::fprintf(stderr, "replayed %zu trace request(s)\n",
                 Trace.size());
  } else {
    // Synthetic closed loop: each client thread issues its requests
    // back-to-back (plus optional think time), models round-robin.
    std::vector<std::thread> Clients;
    Clients.reserve(Options.Clients);
    for (unsigned C = 0; C < Options.Clients; ++C)
      Clients.emplace_back([&, C] {
        Priority ClientPriority = C < Options.InteractiveClients
                                      ? Priority::Interactive
                                      : Priority::Bulk;
        for (unsigned R = 0; R < Options.Requests; ++R) {
          size_t ModelIndex = (C + R) % ModelNames.size();
          const std::string &Name = ModelNames[ModelIndex];
          std::vector<double> Rows = makeSyntheticRows(
              Server.getNumFeatures(Name), Options.Samples,
              /*Seed=*/uint64_t(C) << 32 | R);
          if (Recorder)
            Recorder->record(ModelIndex, Options.Samples,
                             ClientPriority);
          ResultFuture Future =
              Server.submit(Name, Rows.data(), Options.Samples,
                            Options.DeadlineUs, ClientPriority);
          Counts.count(Future.get());
          if (Options.ThinkUs)
            std::this_thread::sleep_for(
                std::chrono::microseconds(Options.ThinkUs));
        }
      });
    for (std::thread &Client : Clients)
      Client.join();
  }

  ServerStats Stats = Server.getStats();
  std::vector<ServerStats> PerShard = Server.getAllShardStats();
  Server.shutdown();
  if (Recorder) {
    Recorder.reset();
    std::fprintf(stderr, "recorded submit trace to '%s'\n",
                 Options.RecordTracePath.c_str());
  }
  std::fprintf(
      stderr,
      "served %llu request(s) (%llu sample(s)) in %llu batch(es): "
      "ok=%llu rejected=%llu timed-out=%llu shut-down=%llu\n"
      "mean batch %.2f samples, peak queue %zu, throughput %.0f "
      "samples/s, latency p50/p95/p99 = %llu/%llu/%llu us\n",
      static_cast<unsigned long long>(Stats.CompletedRequests),
      static_cast<unsigned long long>(Stats.CompletedSamples),
      static_cast<unsigned long long>(Stats.BatchesDispatched),
      static_cast<unsigned long long>(Counts.Ok.load()),
      static_cast<unsigned long long>(Counts.Rejected.load()),
      static_cast<unsigned long long>(Counts.TimedOut.load()),
      static_cast<unsigned long long>(Counts.Other.load()),
      Stats.meanBatchSize(), Stats.PeakQueueDepth,
      Stats.throughputSamplesPerSec(),
      static_cast<unsigned long long>(Stats.LatencyNs.quantile(0.50) /
                                      1000),
      static_cast<unsigned long long>(Stats.LatencyNs.quantile(0.95) /
                                      1000),
      static_cast<unsigned long long>(Stats.LatencyNs.quantile(0.99) /
                                      1000));
  if (Options.Server.MergeModels)
    std::fprintf(
        stderr,
        "  merged serving: %llu of %llu batch(es) carried rows for 2+ "
        "models\n",
        static_cast<unsigned long long>(Stats.CrossModelBatches),
        static_cast<unsigned long long>(Stats.BatchesDispatched));
  if (Server.getNumShards() > 1)
    for (size_t S = 0; S < PerShard.size(); ++S)
      std::fprintf(
          stderr,
          "  shard %zu: %llu request(s) in %llu batch(es), peak queue "
          "%zu\n",
          S,
          static_cast<unsigned long long>(PerShard[S].CompletedRequests),
          static_cast<unsigned long long>(
              PerShard[S].BatchesDispatched),
          PerShard[S].PeakQueueDepth);
  for (size_t Class = 0; Class < kNumPriorities; ++Class) {
    const Histogram &H = Stats.LatencyNsByPriority[Class];
    if (!H.getCount())
      continue;
    std::fprintf(
        stderr, "  %s: %llu request(s), latency p50/p99 = %llu/%llu us\n",
        priorityName(static_cast<Priority>(Class)),
        static_cast<unsigned long long>(H.getCount()),
        static_cast<unsigned long long>(H.quantile(0.50) / 1000),
        static_cast<unsigned long long>(H.quantile(0.99) / 1000));
  }

  if (!Options.StatsReportPath.empty()) {
    std::string ReportError;
    if (failed(writeServerStatsReport(Stats, Options.StatsReportPath,
                                      &ReportError))) {
      std::fprintf(stderr, "failed to write stats report: %s\n",
                   ReportError.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote stats report to '%s'\n",
                 Options.StatsReportPath.c_str());
  }
  if (!Options.ShardReportPath.empty()) {
    std::string ReportError;
    if (failed(writeShardedStatsReport(Stats, PerShard,
                                       Options.ShardReportPath,
                                       &ReportError))) {
      std::fprintf(stderr, "failed to write shard report: %s\n",
                   ReportError.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote shard report to '%s'\n",
                 Options.ShardReportPath.c_str());
  }
  return 0;
}
