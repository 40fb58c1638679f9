//===- spnc_perfbench.cpp - End-to-end and per-layer benchmark ------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the three ways SPNC is used, through public entry points
/// only (`CompiledKernel::execute`, `ExecutionEngine::executeIndexed`,
/// `KernelCache::getOrCompile[Merged]`, `InferenceServer::addModel` and
/// `submit`):
///
///  * speaker-offline — offline batch inference over three speaker SPNs
///    (paper Figs. 7/8), clean joint and noisy marginal batches through
///    one marginal-capable VM kernel per model, plus a cpp-backend leg;
///  * ratspn-classify — ten class RAT-SPNs compiled cold, every image
///    scored by all ten kernels and assigned the argmax (paper §V-B);
///  * fleet-serving — ten isomorphic tenants served merged by one
///    `InferenceServer`, warm-restarted from the `.spnk` disk tier, under
///    seeded Poisson open-loop load at two fixed rates and a closed-loop
///    saturation phase.
///
/// Every output is checked against `baselines::InterpreterEngine`, whose
/// outputs are computed during set-up, outside all timing. Layers are
/// timed from outside, around the calls above and from the statistics
/// they return. With `--trace 1` the workload is measured twice — once
/// untraced, once recording spans in memory that are written out as a
/// Chrome trace at the end — and the per-layer metrics plus the tracing
/// overhead are reported. perfbench/run.py builds this program and turns
/// its result line into the benchmark's output; see perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "backend/CppBackend.h"
#include "baselines/Baselines.h"
#include "runtime/KernelCache.h"
#include "serving/InferenceServer.h"
#include "support/JSON.h"
#include "workloads/Workloads.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace spnc;
using namespace spnc::runtime;

namespace {

//===----------------------------------------------------------------------===//
// Clock, statistics, configuration
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Aborts the run with a diagnostic; no result line is printed.
[[noreturn]] void fail(const std::string &Message) {
  std::fprintf(stderr, "perfbench: %s\n", Message.c_str());
  std::exit(2);
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

/// Nearest-rank \p Q-quantile of \p Values.
double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Rank = std::ceil(Q * static_cast<double>(Values.size()));
  size_t Index = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return Values[std::min(Index, Values.size() - 1)];
}

/// The tail percentile a sample of \p N values supports: the highest one
/// with at least ten samples beyond it, capped at the 99th.
double tailQuantile(size_t N) {
  if (N < 20)
    return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(N));
}

std::string fmt(const char *Format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char *Format, ...) {
  char Buffer[512];
  va_list Args;
  va_start(Args, Format);
  std::vsnprintf(Buffer, sizeof(Buffer), Format, Args);
  va_end(Args);
  return Buffer;
}

/// Samples per window of the windowed tail below.
constexpr size_t kTailWindow = 1000;
/// Windows a throughput phase is split into.
constexpr size_t kRateWindows = 10;

/// A timing distribution summarized as a median plus its tail.
struct Summary {
  double P50 = 0, Tail = 0, TailQ = 0;
  size_t N = 0, Windows = 1;
};

/// Summarizes \p Values, given in the order they were measured. The tail
/// is the highest percentile with at least ten samples beyond it. With
/// at least 2 * kTailWindow samples it is the 99th percentile, taken per
/// window of about kTailWindow consecutive samples and reported as the
/// median over the windows: a host stall then moves one window's tail
/// instead of the run's.
Summary summarize(const std::vector<double> &Values) {
  Summary S;
  S.N = Values.size();
  S.P50 = median(Values);
  S.TailQ = tailQuantile(S.N);
  S.Windows = std::max<size_t>(S.N / kTailWindow, 1);
  if (S.Windows == 1) {
    S.Tail = quantile(Values, S.TailQ);
    return S;
  }
  std::vector<double> Tails;
  for (size_t W = 0; W < S.Windows; ++W) {
    auto At = [&](size_t Window) {
      return Values.begin() +
             static_cast<std::ptrdiff_t>(Window * S.N / S.Windows);
    };
    Tails.push_back(quantile(std::vector<double>(At(W), At(W + 1)), S.TailQ));
  }
  S.Tail = median(Tails);
  return S;
}

std::string describe(const char *Name, const Summary &S) {
  return fmt("%s n=%zu (p%.2f, median of %zu windows)", Name, S.N,
             S.TailQ * 100, S.Windows);
}

/// Median over kRateWindows consecutive windows of the rate
/// sum(Work) / sum(Ns), with at least \p MinPerWindow entries per window.
double windowedRate(const std::vector<double> &Work,
                    const std::vector<double> &Ns, size_t MinPerWindow) {
  size_t N = Work.size();
  size_t Windows = std::clamp<size_t>(N / std::max<size_t>(MinPerWindow, 1),
                                      1, kRateWindows);
  std::vector<double> Rates;
  for (size_t W = 0; W < Windows; ++W) {
    double SumWork = 0, SumNs = 0;
    for (size_t I = W * N / Windows; I < (W + 1) * N / Windows; ++I) {
      SumWork += Work[I];
      SumNs += Ns[I];
    }
    if (SumNs > 0)
      Rates.push_back(SumWork * 1e9 / SumNs);
  }
  return median(Rates);
}

double peakRssMb() {
  struct rusage Usage;
  std::memset(&Usage, 0, sizeof(Usage));
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/// Read-only view of one object of perfbench/config.json.
class Section {
public:
  Section(const json::Value &Object, std::string Path)
      : Object(&Object), Path(std::move(Path)) {}

  const json::Value &get(const char *Key) const {
    const json::Value *V = Object->find(Key);
    if (!V)
      fail("config: missing " + Path + "." + Key);
    return *V;
  }
  double num(const char *Key) const {
    const json::Value &V = get(Key);
    if (!V.isNumber())
      fail("config: " + Path + "." + Key + " is not a number");
    return V.getNumber();
  }
  size_t count(const char *Key) const {
    double V = num(Key);
    if (V < 0 || V != std::floor(V))
      fail("config: " + Path + "." + Key + " is not a whole number");
    return static_cast<size_t>(V);
  }
  Section sub(const char *Key) const {
    const json::Value &V = get(Key);
    if (!V.isObject())
      fail("config: " + Path + "." + Key + " is not an object");
    return Section(V, Path + "." + Key);
  }
  std::vector<uint64_t> seeds(const char *Key) const {
    std::vector<uint64_t> Seeds;
    for (const json::Value &V : get(Key).getArray())
      Seeds.push_back(static_cast<uint64_t>(V.getNumber()));
    if (Seeds.empty())
      fail("config: " + Path + "." + Key + " is empty");
    return Seeds;
  }

private:
  const json::Value *Object;
  std::string Path;
};

uint64_t mix(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ULL * (Stream + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

//===----------------------------------------------------------------------===//
// Oracle comparison
//===----------------------------------------------------------------------===//

struct Tolerance {
  double Abs = 0, Rel = 0;

  bool close(double Got, double Ref) const {
    if (std::isinf(Ref) || std::isinf(Got))
      return Got == Ref;
    if (std::isnan(Ref) || std::isnan(Got))
      return false;
    return std::fabs(Got - Ref) <= Abs + Rel * std::fabs(Ref);
  }
};

/// Largest deviation seen by the checks, reported for information.
struct ErrorTracker {
  std::mutex Mutex;
  double MaxAbs = 0;

  void note(const double *Got, const double *Ref, size_t N) {
    double Local = 0;
    for (size_t I = 0; I < N; ++I)
      if (std::isfinite(Ref[I]) && std::isfinite(Got[I]))
        Local = std::max(Local, std::fabs(Got[I] - Ref[I]));
    std::lock_guard<std::mutex> Lock(Mutex);
    MaxAbs = std::max(MaxAbs, Local);
  }
};

size_t countMismatches(const Tolerance &Tol, const double *Got,
                       const double *Ref, size_t N) {
  size_t Bad = 0;
  for (size_t I = 0; I < N; ++I)
    if (!Tol.close(Got[I], Ref[I]))
      ++Bad;
  return Bad;
}

//===----------------------------------------------------------------------===//
// Spans: recorded around calls into each layer, kept in memory, written as
// Chrome trace events at the end of a traced run.
//===----------------------------------------------------------------------===//

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {
    if (Enabled)
      Spans.reserve(1 << 18);
  }

  /// Opens a span; returns its id (0 when tracing is off).
  uint32_t begin(const char *Name, uint32_t Parent = 0, uint64_t Arg = 0) {
    if (!Enabled)
      return 0;
    uint64_t Start = nowNs();
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans.push_back({Name, Start, 0, Parent, threadIndex(), Arg});
    return static_cast<uint32_t>(Spans.size());
  }

  void end(uint32_t Id) {
    if (!Enabled || Id == 0)
      return;
    uint64_t End = nowNs();
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans[Id - 1].End = End;
  }

  /// Records an already finished span.
  void record(const char *Name, uint64_t Start, uint64_t End,
              uint32_t Parent = 0, uint64_t Arg = 0) {
    if (!Enabled)
      return;
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans.push_back({Name, Start, End, Parent, threadIndex(), Arg});
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Spans.size();
  }

  /// Writes every span as a Chrome trace-event ("X") record.
  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    if (!Out)
      return false;
    std::lock_guard<std::mutex> Lock(Mutex);
    uint64_t Origin = Spans.empty() ? 0 : Spans.front().Start;
    for (const Span &S : Spans)
      Origin = std::min(Origin, S.Start);
    Out << "{\"traceEvents\":[\n";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      uint64_t End = S.End ? S.End : S.Start;
      char Line[256];
      std::snprintf(Line, sizeof(Line),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%u,\"arg\":%" PRIu64 "}}%s\n",
                    S.Name, S.Thread,
                    static_cast<double>(S.Start - Origin) / 1e3,
                    static_cast<double>(End - S.Start) / 1e3, I + 1,
                    S.Parent, S.Arg, I + 1 < Spans.size() ? "," : "");
      Out << Line;
    }
    Out << "]}\n";
    return static_cast<bool>(Out);
  }

private:
  struct Span {
    const char *Name;
    uint64_t Start, End;
    uint32_t Parent, Thread;
    uint64_t Arg;
  };

  static uint32_t threadIndex() {
    static std::atomic<uint32_t> Next{0};
    thread_local uint32_t Index = Next.fetch_add(1);
    return Index;
  }

  bool Enabled;
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// A list of metric names with their units, in BENCHMARK.json order.
using MetricList = std::vector<std::pair<std::string, std::string>>;

/// The metrics BENCHMARK.json defines: "end_to_end" and "per_layer".
/// Every run reports exactly these, under these units; layers a workload
/// bypasses report 0.
struct MetricCatalog {
  MetricList EndToEnd, Layers;

  static bool has(const MetricList &List, const std::string &Name) {
    return std::any_of(List.begin(), List.end(), [&](const auto &Entry) {
      return Entry.first == Name;
    });
  }
};

MetricCatalog TheCatalog;

MetricList readMetricList(const json::Value &Benchmark, const char *Key) {
  const json::Value *List = Benchmark.find(Key);
  if (!List || !List->isArray() || List->getArray().empty())
    fail(std::string("BENCHMARK.json: no ") + Key + " list");
  MetricList Metrics;
  for (const json::Value &Entry : List->getArray()) {
    const json::Value *Name = Entry.find("name");
    const json::Value *Unit = Entry.find("unit");
    if (!Name || !Name->isString() || !Unit || !Unit->isString())
      fail(std::string("BENCHMARK.json: ") + Key +
           " entry without a name and unit");
    Metrics.emplace_back(Name->getString(), Unit->getString());
  }
  return Metrics;
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// What one workload run reports back to main().
struct RunReport {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Mismatches = 0;
  std::string Invalid;
  std::map<std::string, double> EndToEnd;
  std::map<std::string, double> Layers;
  /// Deterministic counters (must repeat exactly for one seed).
  std::vector<Metric> Counters;
  /// Human-readable notes (sample counts, percentiles used, errors).
  std::vector<std::string> Notes;

  void e2e(const std::string &Name, double Value) {
    if (!MetricCatalog::has(TheCatalog.EndToEnd, Name))
      fail("end-to-end metric '" + Name + "' is not in BENCHMARK.json");
    EndToEnd[Name] = Value;
  }
  void layer(const std::string &Name, double Value) {
    if (!MetricCatalog::has(TheCatalog.Layers, Name))
      fail("per-layer metric '" + Name + "' is not in BENCHMARK.json");
    Layers[Name] = Value;
  }
  void counter(const std::string &Name, double Value) {
    Counters.push_back({Name, Value, "count"});
    layer(Name, Value);
  }
  void note(const std::string &Text) { Notes.push_back(Text); }
};

/// The low-load latency of a run. It is reported with the per-layer
/// metrics: on a shared host the serving latencies follow the host's
/// vCPU steal by more than any useful regression bound between runs
/// (see perfbench/README.md).
void reportLowLatency(RunReport &R, double P50Ns, double TailNs) {
  R.layer("latency_p50_ms.low", P50Ns * 1e-6);
  R.layer("latency_p99_ms.low", TailNs * 1e-6);
}

//===----------------------------------------------------------------------===//
// Compile-layer accounting
//===----------------------------------------------------------------------===//

/// Per-stage compile times of every cold compile in set-up.
struct CompileLayers {
  std::map<std::string, std::vector<double>> Ms;
  std::vector<double> MissMs;
  std::vector<double> HitUs;

  void add(const CompileStats &Stats) {
    auto Pass = [&](const char *Name) {
      double Sum = 0;
      for (const ir::PassTiming &P : Stats.PassTimings)
        if (P.PassName == Name)
          Sum += static_cast<double>(P.WallNs);
      return Sum * 1e-6;
    };
    auto Stage = [&](const char *Name) {
      for (const StageTiming &S : Stats.Stages)
        if (S.Name == Name)
          return static_cast<double>(S.WallNs) * 1e-6;
      return 0.0;
    };
    Ms["frontend.translate_ms"].push_back(
        static_cast<double>(Stats.TranslationNs) * 1e-6);
    Ms["transforms.lower_ms"].push_back(Pass("lower-hispn-to-lospn"));
    Ms["transforms.canonicalize_ms"].push_back(Pass("canonicalize"));
    Ms["transforms.cse_ms"].push_back(Pass("cse"));
    Ms["transforms.bufferize_ms"].push_back(Pass("bufferize"));
    Ms["partition.partition_ms"].push_back(Pass("partition-tasks"));
    Ms["codegen.codegen_ms"].push_back(Stage("codegen"));
    Ms["codegen.isel_ms"].push_back(
        static_cast<double>(Stats.Codegen.IselNs) * 1e-6);
    Ms["runtime.compile_ms"].push_back(
        static_cast<double>(Stats.TotalNs) * 1e-6);
  }

  void report(RunReport &R) const {
    for (const auto &[Name, Values] : Ms)
      R.layer(Name, median(Values));
    if (!MissMs.empty())
      R.layer("runtime.cache.miss_ms", median(MissMs));
    if (!HitUs.empty())
      R.layer("runtime.cache.hit_us", median(HitUs));
  }
};

/// Cold set-up of the offline workloads, repeated \p Reps times: a fresh
/// cache compiles every model (timed: the set-up), then is asked for
/// each model again (an in-memory hit). The last repetition's kernels
/// are kept.
struct ColdSetup {
  std::vector<CompiledKernel> Kernels;
  std::vector<double> Seconds;
  CompileLayers Layers;
  KernelCache::Stats CacheCounts;
  size_t Instructions = 0, Tasks = 0;
  /// False when the repetitions disagree on a compile counter.
  bool CountersAgree = true;

  ColdSetup(const std::vector<const spn::Model *> &Models,
            const spn::QueryConfig &Query, const CompilerOptions &Options,
            size_t Reps) {
    for (size_t Rep = 0; Rep < Reps; ++Rep) {
      KernelCache Cache;
      std::vector<CompiledKernel> Fresh;
      size_t RepInstructions = 0, RepTasks = 0;
      uint64_t Start = nowNs();
      for (const spn::Model *Model : Models) {
        CompileStats Stats;
        uint64_t T0 = nowNs();
        Expected<CompiledKernel> K =
            Cache.getOrCompile(*Model, Query, Options, &Stats);
        if (!K)
          fail("compile: " + K.getError().message());
        Layers.MissMs.push_back(static_cast<double>(nowNs() - T0) * 1e-6);
        Layers.add(Stats);
        RepInstructions += Stats.NumInstructions;
        RepTasks += Stats.NumTasks;
        Fresh.push_back(K.takeValue());
      }
      Seconds.push_back(static_cast<double>(nowNs() - Start) * 1e-9);
      for (const spn::Model *Model : Models) {
        uint64_t T0 = nowNs();
        if (!Cache.getOrCompile(*Model, Query, Options))
          fail("in-memory cache hit failed");
        Layers.HitUs.push_back(static_cast<double>(nowNs() - T0) * 1e-3);
      }
      if (Rep > 0 && (RepInstructions != Instructions || RepTasks != Tasks))
        CountersAgree = false;
      Instructions = RepInstructions;
      Tasks = RepTasks;
      CacheCounts = Cache.getStats();
      Kernels = std::move(Fresh);
    }
  }
};

/// Module op count after the IR pipeline, from a stage-report compile
/// (enableStageReport) of \p Model in a private cache.
size_t opsAfterPipeline(const spn::Model &Model, const spn::QueryConfig &Query,
                        const CompilerOptions &Options, bool Merged) {
  KernelCache::Config Config;
  Config.ConfigurePipeline =
      [](CompilationPipeline &P) -> std::optional<Error> {
    return P.enableStageReport();
  };
  KernelCache Cache(Config);
  CompileStats Stats;
  bool Ok = Merged
                ? static_cast<bool>(
                      Cache.getOrCompileMerged(Model, Query, Options, &Stats))
                : static_cast<bool>(
                      Cache.getOrCompile(Model, Query, Options, &Stats));
  if (!Ok)
    fail("stage-report compile failed");
  for (const StageOpCount &C : Stats.OpCounts)
    if (C.Stage == "ir-pipeline")
      return C.NumOps;
  fail("stage report has no ir-pipeline entry");
}

/// The deterministic counters: summed over the workload's distinct
/// kernels, and the cache decisions of one set-up.
void reportCounters(RunReport &R, size_t Instructions, size_t Tasks,
                    const KernelCache::Stats &S) {
  R.counter("codegen.instructions", static_cast<double>(Instructions));
  R.counter("partition.tasks", static_cast<double>(Tasks));
  R.counter("runtime.cache.hits", static_cast<double>(S.Hits));
  R.counter("runtime.cache.misses", static_cast<double>(S.Misses));
  R.counter("runtime.cache.disk_hits", static_cast<double>(S.DiskHits));
}

//===----------------------------------------------------------------------===//
// Offline phases: one caller issuing work units back to back
//===----------------------------------------------------------------------===//

/// One timed unit of offline work and its check.
struct UnitResult {
  uint64_t Ns = 0;
  size_t Samples = 0;
  size_t Mismatches = 0;
  unsigned Kind = 0;
};

/// Runs unit \p Index over \p Samples samples. Only the engine calls are
/// timed; the oracle check after them is not.
using UnitFn = std::function<UnitResult(uint64_t Index, size_t Samples,
                                        Tracer &T, uint32_t Parent)>;

struct OfflinePhase {
  std::vector<double> UnitNs;
  std::vector<double> UnitSamples;
  uint64_t BusyNs[2] = {0, 0};
  uint64_t Samples[2] = {0, 0};
  uint64_t Mismatches = 0;

  /// Samples per second of engine time, as a windowed median.
  double throughput() const {
    return windowedRate(UnitSamples, UnitNs, 20);
  }
  double nsPerSample(unsigned Kind) const {
    return Samples[Kind] ? static_cast<double>(BusyNs[Kind]) /
                               static_cast<double>(Samples[Kind])
                         : 0.0;
  }
  /// Counts every sample as attempted and every mismatched one as failed.
  void account(RunReport &R) const {
    R.Attempted += Samples[0] + Samples[1];
    R.Mismatches += Mismatches;
  }
};

/// One caller runs units of \p UnitSamples samples back to back for
/// \p Seconds (at least one unit).
OfflinePhase runOffline(double Seconds, size_t UnitSamples,
                        const UnitFn &Unit, Tracer &T,
                        const char *PhaseName) {
  OfflinePhase Phase;
  uint32_t PhaseSpan = T.begin(PhaseName);
  uint64_t End = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  for (uint64_t K = 0; K == 0 || nowNs() < End; ++K) {
    UnitResult R = Unit(K, UnitSamples, T, PhaseSpan);
    Phase.UnitNs.push_back(static_cast<double>(R.Ns));
    Phase.UnitSamples.push_back(static_cast<double>(R.Samples));
    Phase.BusyNs[R.Kind] += R.Ns;
    Phase.Samples[R.Kind] += R.Samples;
    Phase.Mismatches += R.Mismatches;
  }
  T.end(PhaseSpan);
  return Phase;
}

/// Reports an offline phase's throughput and, since an offline user's
/// offered load is the work handed over in one call, its per-call
/// latency as the `.low` latency.
void reportOffline(RunReport &R, const OfflinePhase &Phase) {
  Summary Calls = summarize(Phase.UnitNs);
  R.e2e("throughput_sps", Phase.throughput());
  reportLowLatency(R, Calls.P50, Calls.Tail);
  R.note("call latency: " + describe("low", Calls));
}

/// Shared run-level wrapper: the untraced measurement gives the
/// end-to-end metrics; in trace mode a second, traced measurement gives
/// the per-layer metrics, and the throughput gap is the tracing overhead.
template <typename MeasureFn>
void measureTwice(RunReport &R, double Seconds, bool Trace,
                  const std::string &TraceOut, MeasureFn &&Measure) {
  Tracer Off(false);
  if (!Trace) {
    Measure(Off, Seconds, /*Layers=*/false);
    return;
  }
  double Untraced = Measure(Off, Seconds / 2, /*Layers=*/false);
  Tracer On(true);
  double Traced = Measure(On, Seconds / 2, /*Layers=*/true);
  double Overhead = Traced > 0 ? (Untraced / Traced - 1.0) * 100.0 : 0.0;
  R.layer("trace.overhead_pct", Overhead);
  R.note(fmt("tracing overhead: untraced %.1f vs traced %.1f samples/s "
             "(%+.2f%%), %zu spans",
             Untraced, Traced, Overhead, On.size()));
  if (!TraceOut.empty()) {
    if (!On.write(TraceOut))
      fail("cannot write trace to " + TraceOut);
    R.note("spans written to " + TraceOut);
  }
}

//===----------------------------------------------------------------------===//
// speaker-offline
//===----------------------------------------------------------------------===//

struct SpeakerModelData {
  workloads::SpeakerModelOptions Options;
  spn::Model Model;
  std::vector<double> Clean, Noisy, RefClean, RefNoisy;
};

struct RunContext {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir, TraceOut;
  Tolerance Tol;
};

RunReport runSpeakerOffline(const RunContext &Ctx, const Section &Cfg) {
  RunReport R;
  std::vector<uint64_t> ModelSeeds = Cfg.seeds("model_seeds");
  size_t Pool = Cfg.count("pool_samples");
  size_t Batch = Cfg.count("batch_samples");
  size_t SetupReps = Cfg.count("setup_reps");
  double CppShare = Cfg.num("cpp_share");
  if (Batch > Pool)
    fail("config: batch_samples exceeds pool_samples");

  CompilerOptions Options;
  Options.OptLevel = static_cast<unsigned>(Cfg.count("opt_level"));
  Options.Execution.VectorWidth =
      static_cast<unsigned>(Cfg.count("vector_width"));
  spn::QueryConfig Marginal;
  Marginal.Kind = spn::QueryKind::Marginal;
  Marginal.SupportMarginal = true;
  spn::QueryConfig Joint;

  // Models are fixed by the configuration; the data come from --seed.
  std::vector<SpeakerModelData> Models;
  for (size_t M = 0; M < ModelSeeds.size(); ++M) {
    workloads::SpeakerModelOptions ModelOptions;
    ModelOptions.Seed = ModelSeeds[M];
    Models.push_back({ModelOptions,
                      workloads::generateSpeakerModel(ModelOptions),
                      {}, {}, {}, {}});
    SpeakerModelData &D = Models.back();
    D.Clean = workloads::generateSpeechData(D.Options, Pool,
                                            mix(Ctx.Seed, 2 * M));
    D.Noisy = workloads::generateNoisySpeechData(
        D.Options, Pool, mix(Ctx.Seed, 2 * M + 1),
        Cfg.num("noise_drop_probability"));
    baselines::InterpreterEngine Oracle(D.Model);
    D.RefClean.resize(Pool);
    D.RefNoisy.resize(Pool);
    Oracle.execute(D.Clean.data(), D.RefClean.data(), Pool);
    Oracle.execute(D.Noisy.data(), D.RefNoisy.data(), Pool);
  }
  unsigned NumFeatures = Models.front().Model.getNumFeatures();

  // The cpp leg needs a host toolchain; without one the run fails.
  backend::CppBackendOptions CppOptions;
  CppOptions.WorkDir = Ctx.WorkDir + "/cpp";
  auto Cpp = std::make_shared<backend::CppBackend>(CppOptions);
  std::string Reason;
  if (!Cpp->isAvailable(&Reason))
    fail("cpp backend unavailable: " + Reason);

  // Set-up: a cold VM compile of every model, repeated; then one cpp
  // build. setup_s = median VM set-up + the cpp build.
  std::vector<const spn::Model *> ModelRefs;
  for (const SpeakerModelData &D : Models)
    ModelRefs.push_back(&D.Model);
  ColdSetup Setup(ModelRefs, Marginal, Options, SetupReps);
  const std::vector<CompiledKernel> &Kernels = Setup.Kernels;
  KernelCache::Config CppConfig;
  CppConfig.TheBackend = Cpp;
  KernelCache CppCache(CppConfig);
  uint64_t CppStart = nowNs();
  Expected<CompiledKernel> CppKernel =
      CppCache.getOrCompile(Models.front().Model, Joint, Options);
  if (!CppKernel)
    fail("cpp build: " + CppKernel.getError().message());
  double CppBuildS = static_cast<double>(nowNs() - CppStart) * 1e-9;
  R.e2e("setup_s", median(Setup.Seconds) + CppBuildS);
  R.note(fmt("set-up: VM %zu reps, median %.3f s; cpp build %.2f s",
             Setup.Seconds.size(), median(Setup.Seconds), CppBuildS));

  ErrorTracker Errors;
  // Unit K: model (K/2) mod M, clean joint data when K is even, noisy
  // marginal data when odd; the slice rotates through the pool.
  UnitFn Unit = [&](uint64_t K, size_t N, Tracer &T, uint32_t Parent) {
    thread_local std::vector<double> Out;
    Out.resize(N);
    unsigned Kind = static_cast<unsigned>(K % 2);
    const SpeakerModelData &D = Models[(K / 2) % Models.size()];
    const CompiledKernel &Kernel = Kernels[(K / 2) % Models.size()];
    size_t Offset = ((K / 2) * N) % (Pool - N + 1);
    const double *In =
        (Kind ? D.Noisy.data() : D.Clean.data()) + Offset * NumFeatures;
    const double *Ref =
        (Kind ? D.RefNoisy.data() : D.RefClean.data()) + Offset;
    uint32_t Span = T.begin(
        Kind ? "vm.execute.marginal" : "vm.execute.joint", Parent, N);
    uint64_t T0 = nowNs();
    Kernel.execute(In, Out.data(), N);
    uint64_t Ns = nowNs() - T0;
    T.end(Span);
    uint32_t Check = T.begin("oracle.check", Parent);
    size_t Bad = countMismatches(Ctx.Tol, Out.data(), Ref, N);
    Errors.note(Out.data(), Ref, N);
    T.end(Check);
    return UnitResult{Ns, N, Bad, Kind};
  };
  UnitFn CppUnit = [&](uint64_t K, size_t N, Tracer &T, uint32_t Parent) {
    thread_local std::vector<double> Out;
    Out.resize(N);
    const SpeakerModelData &D = Models.front();
    size_t Offset = (K * N) % (Pool - N + 1);
    uint32_t Span = T.begin("backend.cpp.execute", Parent, N);
    uint64_t T0 = nowNs();
    CppKernel->execute(D.Clean.data() + Offset * NumFeatures, Out.data(), N);
    uint64_t Ns = nowNs() - T0;
    T.end(Span);
    size_t Bad = countMismatches(Ctx.Tol, Out.data(),
                                 D.RefClean.data() + Offset, N);
    Errors.note(Out.data(), D.RefClean.data() + Offset, N);
    return UnitResult{Ns, N, Bad, 0};
  };

  measureTwice(R, Ctx.Seconds, Ctx.Trace, Ctx.TraceOut,
               [&](Tracer &T, double Seconds, bool WantLayers) {
    OfflinePhase Vm =
        runOffline(Seconds * (1 - CppShare), Batch, Unit, T, "phase.vm");
    OfflinePhase Native =
        runOffline(Seconds * CppShare, Batch, CppUnit, T, "phase.cpp");
    Vm.account(R);
    Native.account(R);
    if (!WantLayers) {
      reportOffline(R, Vm);
      R.note(fmt("cpp leg: %.0f samples/s (model 0, joint)",
                 Native.throughput()));
    } else {
      R.layer("vm.joint_ns_per_sample", Vm.nsPerSample(0));
      R.layer("vm.marginal_ns_per_sample", Vm.nsPerSample(1));
      R.layer("backend.cpp_ns_per_sample", Native.nsPerSample(0));
      R.layer("throughput_sps.cpp", Native.throughput());
    }
    return Vm.throughput();
  });

  if (Ctx.Trace) {
    Setup.Layers.report(R);
    R.layer("backend.cpp_build_s", CppBuildS);
    size_t OpsAfter = 0;
    for (SpeakerModelData &D : Models)
      OpsAfter += opsAfterPipeline(D.Model, Marginal, Options, false);
    R.counter("transforms.ops_after", static_cast<double>(OpsAfter));
  }
  reportCounters(R, Setup.Instructions, Setup.Tasks, Setup.CacheCounts);
  if (!Setup.CountersAgree)
    R.Invalid = "compile counters differ between set-up repetitions";
  R.note(fmt("oracle: max |error| %.3g", Errors.MaxAbs));
  return R;
}

//===----------------------------------------------------------------------===//
// ratspn-classify
//===----------------------------------------------------------------------===//

unsigned argmaxRow(const std::vector<std::vector<double>> &Scores,
                   size_t Row) {
  unsigned Best = 0;
  for (unsigned C = 1; C < Scores.size(); ++C)
    if (Scores[C][Row] > Scores[Best][Row])
      Best = C;
  return Best;
}

RunReport runRatSpnClassify(const RunContext &Ctx, const Section &Cfg) {
  RunReport R;
  size_t NumClasses = Cfg.count("classes");
  size_t Pool = Cfg.count("pool_images");
  size_t Batch = Cfg.count("batch_images");
  size_t SetupReps = Cfg.count("setup_reps");
  uint64_t PrototypeSeed = Cfg.count("prototype_seed");
  if (Batch > Pool)
    fail("config: batch_images exceeds pool_images");

  CompilerOptions Options;
  Options.OptLevel = static_cast<unsigned>(Cfg.count("opt_level"));
  Options.MaxPartitionSize =
      static_cast<uint32_t>(Cfg.count("max_partition_size"));
  Options.Execution.VectorWidth =
      static_cast<unsigned>(Cfg.count("vector_width"));
  spn::QueryConfig Query;

  workloads::RatSpnOptions Rat = workloads::ratSpnSmallScale();
  Rat.PrototypeSeed = PrototypeSeed;
  std::vector<spn::Model> Classes;
  for (unsigned C = 0; C < NumClasses; ++C)
    Classes.push_back(workloads::generateRatSpn(Rat, C));
  unsigned NumFeatures = Rat.NumFeatures;

  // Images come from the class prototypes the models were fitted to;
  // --seed draws which images of a larger generated set are used, and
  // in which order.
  std::vector<unsigned> AllLabels;
  size_t Generated = Pool * Cfg.count("pool_oversample");
  std::vector<double> All = workloads::generateImageData(
      NumFeatures, static_cast<unsigned>(NumClasses), Generated,
      PrototypeSeed, &AllLabels);
  std::vector<size_t> Pick(Generated);
  for (size_t I = 0; I < Generated; ++I)
    Pick[I] = I;
  std::mt19937_64 Rng(mix(Ctx.Seed, 11));
  std::shuffle(Pick.begin(), Pick.end(), Rng);
  std::vector<double> Images(Pool * NumFeatures);
  std::vector<unsigned> Labels(Pool);
  for (size_t I = 0; I < Pool; ++I) {
    auto Row = [&](const std::vector<double> &Data, size_t Index) {
      return Data.begin() + static_cast<std::ptrdiff_t>(Index * NumFeatures);
    };
    std::copy_n(Row(All, Pick[I]), NumFeatures,
                Images.begin() +
                    static_cast<std::ptrdiff_t>(I * NumFeatures));
    Labels[I] = AllLabels[Pick[I]];
  }
  std::vector<std::vector<double>> RefScores(NumClasses,
                                             std::vector<double>(Pool));
  for (size_t C = 0; C < NumClasses; ++C)
    baselines::InterpreterEngine(Classes[C])
        .execute(Images.data(), RefScores[C].data(), Pool);
  std::vector<unsigned> RefClass(Pool);
  size_t Accurate = 0;
  for (size_t I = 0; I < Pool; ++I) {
    RefClass[I] = argmaxRow(RefScores, I);
    Accurate += RefClass[I] == Labels[I];
  }

  // Set-up: every class compiled cold through getOrCompile, repeated.
  std::vector<const spn::Model *> ClassRefs;
  for (const spn::Model &Model : Classes)
    ClassRefs.push_back(&Model);
  ColdSetup Setup(ClassRefs, Query, Options, SetupReps);
  const std::vector<CompiledKernel> &Kernels = Setup.Kernels;
  R.e2e("setup_s", median(Setup.Seconds));
  R.note(fmt("set-up: %zu reps of %zu cold class compiles, median %.3f s",
             Setup.Seconds.size(), NumClasses, median(Setup.Seconds)));

  ErrorTracker Errors;
  // Classifies \p N images starting at \p Offset: every class kernel
  // scores them, the argmax is the prediction. An image fails when its
  // predicted class differs from the oracle's or any of its class scores
  // is outside the tolerance.
  auto Classify = [&](size_t Offset, size_t N, Tracer &T, uint32_t Parent) {
    thread_local std::vector<std::vector<double>> Scores;
    thread_local std::vector<unsigned> Predicted;
    Scores.resize(NumClasses);
    Predicted.resize(N);
    uint32_t Span = T.begin("classify", Parent, N);
    uint64_t T0 = nowNs();
    for (size_t C = 0; C < NumClasses; ++C) {
      Scores[C].resize(N);
      uint32_t Call = T.begin("vm.execute", Span, N);
      Kernels[C].execute(Images.data() + Offset * NumFeatures,
                         Scores[C].data(), N);
      T.end(Call);
    }
    for (size_t I = 0; I < N; ++I)
      Predicted[I] = argmaxRow(Scores, I);
    uint64_t Ns = nowNs() - T0;
    T.end(Span);
    uint32_t Check = T.begin("oracle.check", Parent);
    size_t Bad = 0;
    for (size_t I = 0; I < N; ++I) {
      bool Ok = Predicted[I] == RefClass[Offset + I];
      for (size_t C = 0; C < NumClasses && Ok; ++C)
        Ok = Ctx.Tol.close(Scores[C][I], RefScores[C][Offset + I]);
      Bad += !Ok;
    }
    for (size_t C = 0; C < NumClasses; ++C)
      Errors.note(Scores[C].data(), RefScores[C].data() + Offset, N);
    T.end(Check);
    return UnitResult{Ns, N, Bad, 0};
  };
  UnitFn Unit = [&](uint64_t K, size_t N, Tracer &T, uint32_t Parent) {
    return Classify((K * N) % (Pool - N + 1), N, T, Parent);
  };

  measureTwice(R, Ctx.Seconds, Ctx.Trace, Ctx.TraceOut,
               [&](Tracer &T, double Seconds, bool WantLayers) {
    OfflinePhase Phase = runOffline(Seconds, Batch, Unit, T, "phase.vm");
    Phase.account(R);
    if (!WantLayers) {
      reportOffline(R, Phase);
    } else {
      double NsPerImage = Phase.nsPerSample(0);
      R.layer("vm.classify_ns_per_image", NsPerImage);
      R.layer("vm.joint_ns_per_sample",
              NsPerImage / static_cast<double>(NumClasses));
    }
    return Phase.throughput();
  });

  if (Ctx.Trace) {
    Setup.Layers.report(R);
    size_t OpsAfter = 0;
    for (const spn::Model &Model : Classes)
      OpsAfter += opsAfterPipeline(Model, Query, Options, false);
    R.counter("transforms.ops_after", static_cast<double>(OpsAfter));
  }
  reportCounters(R, Setup.Instructions, Setup.Tasks, Setup.CacheCounts);
  if (!Setup.CountersAgree)
    R.Invalid = "compile counters differ between set-up repetitions";
  R.note(fmt("oracle: max |score error| %.3g; oracle accuracy %.1f%% over "
             "%zu images",
             Errors.MaxAbs,
             100.0 * static_cast<double>(Accurate) /
                 static_cast<double>(Pool),
             Pool));
  return R;
}

//===----------------------------------------------------------------------===//
// fleet-serving
//===----------------------------------------------------------------------===//

using serving::InferenceResult;
using serving::InferenceServer;
using serving::Priority;
using serving::RequestStatus;
using serving::ResultFuture;
using serving::ServerConfig;
using serving::ServerStats;

struct Fleet {
  std::vector<spn::Model> Tenants;
  std::vector<std::string> Names;
  std::vector<double> Pool;
  /// Oracle[tenant][row]: each tenant's own unmerged model.
  std::vector<std::vector<double>> Oracle;
  unsigned NumFeatures = 0;
  size_t PoolRows = 0;
};

/// One request of a load phase.
struct Planned {
  uint64_t DueNs; // offset from the phase start (open loop)
  uint32_t Tenant;
  uint32_t Row;
  Priority Class;
};

/// What a load phase measured, per request and per server counter.
struct LoadPhase {
  /// Closed loop: only completion times are kept per request, so the
  /// benchmark's own memory does not grow with the server's throughput.
  bool Closed = false;
  /// (due time, latency from due) per completed request, by class.
  std::vector<std::pair<uint64_t, double>> LatencyNs[2];
  /// When each completion was observed.
  std::vector<double> CompletionNs;
  std::vector<double> ServerNs[2];  // InferenceResult::LatencyNs, by class
  std::vector<double> LatenessNs;
  std::vector<double> SubmitNs;
  std::vector<double> WakeNs;
  uint64_t Submitted = 0, Completed = 0, Failed = 0, Mismatches = 0;
  /// When the previous submit call returned.
  uint64_t LastSubmitEndNs = 0;
  /// Most requests submitted but not yet observed at once (open loop).
  int64_t PeakOutstanding = 0;
  ServerStats Before, After;
};

std::vector<Planned> planRequests(size_t N, double Rate, unsigned Tenants,
                                  size_t Rows, unsigned InteractiveEvery,
                                  uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> U(0.0, 1.0);
  std::vector<Planned> Plan(N);
  double Due = 0;
  for (size_t I = 0; I < N; ++I) {
    if (Rate > 0)
      Due += -std::log(1.0 - U(Rng)) / Rate * 1e9;
    Plan[I].DueNs = static_cast<uint64_t>(Due);
    Plan[I].Tenant = static_cast<uint32_t>(Rng() % Tenants);
    Plan[I].Row = static_cast<uint32_t>(Rng() % Rows);
    Plan[I].Class = I % InteractiveEvery == InteractiveEvery - 1
                        ? Priority::Interactive
                        : Priority::Bulk;
  }
  return Plan;
}

/// A submitted request waiting for its result.
struct PendingRequest {
  size_t Index;
  uint64_t DueNs, SubmitNs;
  uint32_t Span;
  ResultFuture Future;
};

/// Submits plan entry \p Index, due at \p DueNs (absolute).
PendingRequest submitPlanned(InferenceServer &Server, const Fleet &F,
                             const std::vector<Planned> &Plan, size_t Index,
                             uint64_t DueNs, LoadPhase &P, Tracer &T,
                             uint32_t PhaseSpan) {
  const Planned &Req = Plan[Index % Plan.size()];
  uint32_t Span = T.begin("serving.request", PhaseSpan, Req.Tenant);
  uint64_t S0 = nowNs();
  ResultFuture Future = Server.submit(
      F.Names[Req.Tenant], F.Pool.data() + size_t(Req.Row) * F.NumFeatures,
      1, /*DeadlineUs=*/0, Req.Class);
  uint64_t S1 = nowNs();
  T.record("serving.submit", S0, S1, Span);
  if (!P.Closed) {
    // Lateness is the generator's own delay: from when it could submit
    // (the due time, or the return of the previous submit if that was
    // later) to the submit. Time blocked inside submit belongs to the
    // server and shows in the latency, which is timed from the due time.
    uint64_t Ready = std::max(DueNs, P.LastSubmitEndNs);
    P.LatenessNs.push_back(static_cast<double>(S0) -
                           static_cast<double>(Ready));
    P.SubmitNs.push_back(static_cast<double>(S1 - S0));
  }
  P.LastSubmitEndNs = S1;
  ++P.Submitted;
  return {Index, DueNs, S0, Span, std::move(Future)};
}

/// Waits for \p Done, checks it against the oracle and records its
/// latencies into \p P.
void observe(PendingRequest &Done, const Fleet &F,
             const std::vector<Planned> &Plan, const Tolerance &Tol,
             ErrorTracker &Errors, LoadPhase &P, Tracer &T) {
  Done.Future.wait();
  uint64_t Observed = nowNs();
  const Planned &Req = Plan[Done.Index % Plan.size()];
  InferenceResult Result = Done.Future.take();
  T.record("serving.server", Done.SubmitNs, Done.SubmitNs + Result.LatencyNs,
           Done.Span);
  T.end(Done.Span);
  if (Result.Status != RequestStatus::Ok ||
      Result.LogLikelihoods.size() != 1) {
    ++P.Failed;
    return;
  }
  ++P.Completed;
  double Ref = F.Oracle[Req.Tenant][Req.Row];
  if (!Tol.close(Result.LogLikelihoods[0], Ref))
    ++P.Mismatches;
  Errors.note(&Result.LogLikelihoods[0], &Ref, 1);
  P.CompletionNs.push_back(static_cast<double>(Observed));
  if (P.Closed)
    return;
  size_t Class = static_cast<size_t>(Req.Class);
  P.LatencyNs[Class].push_back(
      {Done.DueNs, static_cast<double>(Observed - Done.DueNs)});
  P.ServerNs[Class].push_back(static_cast<double>(Result.LatencyNs));
  P.WakeNs.push_back(static_cast<double>(Observed - Done.SubmitNs) -
                     static_cast<double>(Result.LatencyNs));
}

void mergeInto(LoadPhase &Into, const LoadPhase &From) {
  for (size_t C = 0; C < 2; ++C) {
    Into.LatencyNs[C].insert(Into.LatencyNs[C].end(),
                             From.LatencyNs[C].begin(),
                             From.LatencyNs[C].end());
    Into.ServerNs[C].insert(Into.ServerNs[C].end(), From.ServerNs[C].begin(),
                            From.ServerNs[C].end());
  }
  Into.WakeNs.insert(Into.WakeNs.end(), From.WakeNs.begin(),
                     From.WakeNs.end());
  Into.CompletionNs.insert(Into.CompletionNs.end(),
                           From.CompletionNs.begin(),
                           From.CompletionNs.end());
  Into.Completed += From.Completed;
  Into.Failed += From.Failed;
  Into.Mismatches += From.Mismatches;
}

/// Open loop: one thread submits each planned request when it is due
/// (a Poisson schedule), and one observer thread per priority class
/// waits for that class's results in submission order, so an
/// interactive result is never observed behind a bulk one. Latency is
/// timed from when a request was due.
LoadPhase runOpenLoop(InferenceServer &Server, const Fleet &F,
                      const std::vector<Planned> &Plan, const Tolerance &Tol,
                      ErrorTracker &Errors, Tracer &T,
                      const char *PhaseName) {
  struct ClassQueue {
    std::mutex Mutex;
    std::condition_variable Ready;
    std::deque<PendingRequest> Queue;
    bool Closed = false;
    LoadPhase Observed;
  };
  LoadPhase P;
  P.Before = Server.getStats();
  uint32_t PhaseSpan = T.begin(PhaseName);
  std::array<ClassQueue, 2> Queues;
  std::atomic<int64_t> Outstanding{0};
  std::vector<std::thread> Observers;
  for (ClassQueue &Q : Queues)
    Observers.emplace_back([&] {
      while (true) {
        std::unique_lock<std::mutex> Lock(Q.Mutex);
        Q.Ready.wait(Lock, [&] { return Q.Closed || !Q.Queue.empty(); });
        if (Q.Queue.empty())
          return;
        PendingRequest Next = std::move(Q.Queue.front());
        Q.Queue.pop_front();
        Lock.unlock();
        observe(Next, F, Plan, Tol, Errors, Q.Observed, T);
        Outstanding.fetch_sub(1, std::memory_order_relaxed);
      }
    });
  // The default 50 us timer slack would make every wake-up late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  uint64_t Start = nowNs();
  for (size_t I = 0; I < Plan.size(); ++I) {
    uint64_t Due = Start + Plan[I].DueNs;
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(Due)));
    PendingRequest Req =
        submitPlanned(Server, F, Plan, I, Due, P, T, PhaseSpan);
    int64_t Now = Outstanding.fetch_add(1, std::memory_order_relaxed) + 1;
    P.PeakOutstanding = std::max(P.PeakOutstanding, Now);
    ClassQueue &Q = Queues[static_cast<size_t>(Plan[I].Class)];
    {
      std::lock_guard<std::mutex> Lock(Q.Mutex);
      Q.Queue.push_back(std::move(Req));
    }
    Q.Ready.notify_one();
  }
  for (ClassQueue &Q : Queues) {
    {
      std::lock_guard<std::mutex> Lock(Q.Mutex);
      Q.Closed = true;
    }
    Q.Ready.notify_one();
  }
  for (std::thread &Observer : Observers)
    Observer.join();
  for (ClassQueue &Q : Queues)
    mergeInto(P, Q.Observed);
  T.end(PhaseSpan);
  P.After = Server.getStats();
  return P;
}

/// Closed loop: keeps \p InFlight requests outstanding for \p Seconds,
/// replacing the oldest as it completes, then drains. Throughput is
/// completed samples over the phase's wall clock.
LoadPhase runClosedLoop(InferenceServer &Server, const Fleet &F,
                        const std::vector<Planned> &Plan, size_t InFlight,
                        double Seconds, const Tolerance &Tol,
                        ErrorTracker &Errors, Tracer &T,
                        const char *PhaseName) {
  LoadPhase P;
  P.Closed = true;
  P.Before = Server.getStats();
  uint32_t PhaseSpan = T.begin(PhaseName);
  std::deque<PendingRequest> Open;
  uint64_t Start = nowNs();
  uint64_t Stop = Start + static_cast<uint64_t>(Seconds * 1e9);
  size_t Next = 0;
  while (Open.size() < InFlight)
    Open.push_back(
        submitPlanned(Server, F, Plan, Next++, nowNs(), P, T, PhaseSpan));
  while (!Open.empty()) {
    observe(Open.front(), F, Plan, Tol, Errors, P, T);
    Open.pop_front();
    if (nowNs() < Stop)
      Open.push_back(
          submitPlanned(Server, F, Plan, Next++, nowNs(), P, T, PhaseSpan));
  }
  T.end(PhaseSpan);
  P.After = Server.getStats();
  return P;
}

/// One round of the fleet's load phases.
struct FleetRound {
  LoadPhase Low, High, Sat;
  Summary LowLatency, LowLate, HighLate;
  double Throughput = 0;
  /// Why the round does not count; empty when it does.
  std::string Invalid;
};

/// Latencies from due of the given classes, ordered by due time.
std::vector<double> inDueOrder(const LoadPhase &P,
                               std::initializer_list<size_t> Classes) {
  std::vector<std::pair<uint64_t, double>> All;
  for (size_t C : Classes)
    All.insert(All.end(), P.LatencyNs[C].begin(), P.LatencyNs[C].end());
  std::sort(All.begin(), All.end());
  std::vector<double> Values;
  for (const auto &[Due, Latency] : All)
    Values.push_back(Latency);
  return Values;
}

/// Completed requests per second of a closed-loop phase, as the median
/// over windows of consecutive completions.
double saturationRate(const LoadPhase &P) {
  std::vector<double> Times = P.CompletionNs;
  std::sort(Times.begin(), Times.end());
  std::vector<double> Ones(Times.size(), 1.0), Gaps(Times.size(), 0.0);
  for (size_t I = 1; I < Times.size(); ++I)
    Gaps[I] = Times[I] - Times[I - 1];
  return windowedRate(Ones, Gaps, 1000);
}

/// Per-phase server counters from the snapshots around a phase.
struct PhaseCounters {
  double MeanBatch = 0, CrossShare = 0, EngineMsPerBatch = 0, Busy = 0;
};

PhaseCounters phaseCounters(const LoadPhase &P, unsigned Workers) {
  PhaseCounters C;
  double Batches = static_cast<double>(P.After.BatchesDispatched -
                                       P.Before.BatchesDispatched);
  double Samples = static_cast<double>(P.After.BatchSizes.getSum() -
                                       P.Before.BatchSizes.getSum());
  double Exec =
      static_cast<double>(P.After.ExecutionNs - P.Before.ExecutionNs);
  double Elapsed =
      static_cast<double>(P.After.ElapsedNs - P.Before.ElapsedNs);
  if (Batches > 0) {
    C.MeanBatch = Samples / Batches;
    C.CrossShare = static_cast<double>(P.After.CrossModelBatches -
                                       P.Before.CrossModelBatches) /
                   Batches;
    C.EngineMsPerBatch = Exec / Batches * 1e-6;
  }
  if (Elapsed > 0)
    C.Busy = Exec / (Elapsed * Workers);
  return C;
}

/// Times executeIndexed on \p Rows rows per call for \p Seconds; returns
/// ns per sample.
double timeIndexed(const CompiledKernel &Kernel, const Fleet &F,
                   const std::vector<uint32_t> &Tables,
                   const std::vector<uint32_t> &Tenants, double Seconds,
                   const Tolerance &Tol, uint64_t &Mismatches, Tracer &T,
                   const char *Name) {
  size_t Rows = Tables.size();
  std::vector<double> In(Rows * F.NumFeatures), Out(Rows);
  for (size_t I = 0; I < Rows; ++I) {
    size_t From = (I % F.PoolRows) * F.NumFeatures;
    std::copy_n(F.Pool.begin() + static_cast<std::ptrdiff_t>(From),
                F.NumFeatures,
                In.begin() + static_cast<std::ptrdiff_t>(I * F.NumFeatures));
  }
  uint64_t Busy = 0, Samples = 0;
  uint64_t End = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  while (nowNs() < End) {
    uint32_t Span = T.begin(Name, 0, Rows);
    uint64_t T0 = nowNs();
    if (!Kernel.executeIndexed(In.data(), Tables.data(), Out.data(), Rows))
      fail("executeIndexed refused the batch");
    Busy += nowNs() - T0;
    T.end(Span);
    Samples += Rows;
  }
  for (size_t I = 0; I < Rows; ++I)
    if (!Tol.close(Out[I], F.Oracle[Tenants[I]][I % F.PoolRows]))
      ++Mismatches;
  return static_cast<double>(Busy) / static_cast<double>(Samples);
}

RunReport runFleetServing(const RunContext &Ctx, const Section &Cfg) {
  RunReport R;
  Section ModelCfg = Cfg.sub("tenant_model");
  Section ServerCfg = Cfg.sub("server");
  Section Load = Cfg.sub("load");
  size_t NumTenants = Cfg.count("tenants");
  size_t SetupReps = Cfg.count("setup_reps");

  workloads::RatSpnOptions Rat;
  Rat.NumFeatures = static_cast<unsigned>(ModelCfg.count("features"));
  Rat.Depth = static_cast<unsigned>(ModelCfg.count("depth"));
  Rat.Replicas = static_cast<unsigned>(ModelCfg.count("replicas"));
  Rat.SumsPerRegion = static_cast<unsigned>(ModelCfg.count("sums_per_region"));
  Rat.LeafDistributions =
      static_cast<unsigned>(ModelCfg.count("leaf_distributions"));
  Rat.Seed = ModelCfg.count("structure_seed");

  Fleet F;
  F.NumFeatures = Rat.NumFeatures;
  F.PoolRows = Cfg.count("pool_samples");
  for (unsigned T = 0; T < NumTenants; ++T) {
    F.Tenants.push_back(workloads::generateRatSpn(Rat, T));
    F.Names.push_back("tenant" + std::to_string(T));
  }
  F.Pool = workloads::generateImageData(F.NumFeatures,
                                        static_cast<unsigned>(NumTenants),
                                        F.PoolRows, mix(Ctx.Seed, 21),
                                        nullptr);
  for (const spn::Model &Tenant : F.Tenants) {
    F.Oracle.emplace_back(F.PoolRows);
    baselines::InterpreterEngine(Tenant).execute(
        F.Pool.data(), F.Oracle.back().data(), F.PoolRows);
  }

  CompilerOptions Options;
  Options.OptLevel = static_cast<unsigned>(Cfg.count("opt_level"));
  Options.Execution.VectorWidth =
      static_cast<unsigned>(Cfg.count("vector_width"));
  spn::QueryConfig Query;

  ServerConfig SC;
  SC.MergeModels = true;
  SC.NumShards = static_cast<unsigned>(ServerCfg.count("shards"));
  SC.NumWorkers = static_cast<unsigned>(ServerCfg.count("workers"));
  SC.MaxBatchSamples = ServerCfg.count("max_batch_samples");
  SC.MaxQueueDelayUs = ServerCfg.count("max_queue_delay_us");
  SC.MaxQueueDepth = ServerCfg.count("max_queue_depth");
  SC.InteractiveWeight =
      static_cast<unsigned>(ServerCfg.count("interactive_weight"));
  SC.BulkWeight = static_cast<unsigned>(ServerCfg.count("bulk_weight"));

  // Fill the .spnk disk tier before any timing: set-up then measures a
  // warm restart, whose first member loads from disk.
  std::string Disk = Ctx.WorkDir + "/spnk";
  CompileLayers Layers;
  size_t Instructions = 0, Tasks = 0;
  {
    KernelCache Fill(Disk);
    CompileStats Stats;
    uint64_t T0 = nowNs();
    Expected<KernelCache::MergedKernel> K =
        Fill.getOrCompileMerged(F.Tenants.front(), Query, Options, &Stats);
    if (!K)
      fail("fleet compile: " + K.getError().message());
    Layers.MissMs.push_back(static_cast<double>(nowNs() - T0) * 1e-6);
    Layers.add(Stats);
    Instructions = Stats.NumInstructions;
    Tasks = Stats.NumTasks;
    if (Fill.getStats().Recompiles != 1)
      fail("disk tier was not empty before the fill");
  }

  // Set-up: a fresh cache over the filled directory, a fresh server, all
  // tenants registered merged; repeated, the last one serves the load.
  std::vector<double> SetupS, DiskHitMs;
  std::unique_ptr<KernelCache> Cache;
  std::unique_ptr<InferenceServer> Server;
  KernelCache::Stats CacheCounts;
  for (size_t Rep = 0; Rep < SetupReps; ++Rep) {
    if (Server)
      Server->shutdown();
    Server.reset();
    Cache.reset();
    uint64_t Start = nowNs();
    Cache = std::make_unique<KernelCache>(Disk);
    Server = std::make_unique<InferenceServer>(SC, Cache.get());
    for (size_t T = 0; T < NumTenants; ++T) {
      uint64_t T0 = nowNs();
      if (std::optional<Error> Err =
              Server->addModel(F.Names[T], F.Tenants[T], Query, Options))
        fail("addModel: " + Err->message());
      double Ns = static_cast<double>(nowNs() - T0);
      if (T == 0)
        DiskHitMs.push_back(Ns * 1e-6);
      else
        Layers.HitUs.push_back(Ns * 1e-3);
    }
    SetupS.push_back(static_cast<double>(nowNs() - Start) * 1e-9);
    CacheCounts = Cache->getStats();
    if (CacheCounts.DiskHits != 1 || CacheCounts.Recompiles != 0)
      fail("warm restart did not load the fleet kernel from disk");
  }
  R.e2e("setup_s", median(SetupS));
  R.note(fmt("set-up: %zu warm restarts, median %.4f s", SetupS.size(),
             median(SetupS)));

  double LowRate = Load.num("low_rate"), HighRate = Load.num("high_rate");
  size_t InFlight = Load.count("saturation_in_flight");
  unsigned Every = static_cast<unsigned>(Load.count("interactive_every"));
  double MaxLatenessP50Us = Load.num("max_lateness_p50_us");
  double MaxLatenessP99Us = Load.num("max_lateness_p99_us");
  double LowShare = Load.num("low_share"), HighShare = Load.num("high_share");
  size_t NumRounds = Load.count("rounds");
  ErrorTracker Errors;
  uint64_t Pass = 0;
  measureTwice(R, Ctx.Seconds, Ctx.Trace, Ctx.TraceOut,
               [&](Tracer &T, double Seconds, bool WantLayers) {
    // The reference host steals vCPUs in bursts that last seconds, and a
    // burst inflates whatever phase it hits several-fold. The phases
    // therefore run in short rounds, and throughput and the low-rate
    // median latency are medians over the rounds. The other figures come
    // from the median round: the one whose low-rate median latency is the
    // median (the lower one of the middle two for an even count). A round
    // whose generator fell behind does not count.
    std::vector<FleetRound> Rounds;
    double RoundSeconds = Seconds / static_cast<double>(NumRounds);
    for (size_t Index = 0; Index < NumRounds; ++Index) {
      ++Pass;
      auto Plan = [&](double Rate, double Share, uint64_t Stream) {
        size_t N = Rate > 0
                       ? static_cast<size_t>(Rate * RoundSeconds * Share)
                       : size_t(1) << 16;
        return planRequests(N, Rate, static_cast<unsigned>(NumTenants),
                            F.PoolRows, Every,
                            mix(Ctx.Seed, 100 * Pass + Stream));
      };
      FleetRound Round;
      Round.Low = runOpenLoop(*Server, F, Plan(LowRate, LowShare, 1),
                              Ctx.Tol, Errors, T, "phase.low");
      Round.High = runOpenLoop(*Server, F, Plan(HighRate, HighShare, 2),
                               Ctx.Tol, Errors, T, "phase.high");
      Round.Sat = runClosedLoop(*Server, F, Plan(0, 0, 3), InFlight,
                                RoundSeconds * (1 - LowShare - HighShare),
                                Ctx.Tol, Errors, T, "phase.sat");
      for (const LoadPhase *P : {&Round.Low, &Round.High, &Round.Sat}) {
        R.Attempted += P->Submitted;
        R.Failed += P->Failed;
        R.Mismatches += P->Mismatches;
      }
      Round.LowLate = summarize(Round.Low.LatenessNs);
      Round.HighLate = summarize(Round.High.LatenessNs);
      for (const Summary *Late : {&Round.LowLate, &Round.HighLate})
        if (Late->P50 > MaxLatenessP50Us * 1e3 ||
            Late->Tail > MaxLatenessP99Us * 1e3)
          Round.Invalid =
              fmt("load generator fell behind its schedule: lateness p50 "
                  "%.0f us, p%.2f %.0f us (limits %.0f / %.0f us)",
                  Late->P50 * 1e-3, Late->TailQ * 100, Late->Tail * 1e-3,
                  MaxLatenessP50Us, MaxLatenessP99Us);
      Round.LowLatency = summarize(inDueOrder(Round.Low, {0, 1}));
      Round.Throughput = saturationRate(Round.Sat);
      R.note(fmt("round %zu: low p50 %.3f ms, saturation %.0f samples/s, "
                 "lateness p50/tail low %.1f/%.1f us, high %.1f/%.1f us%s",
                 Index + 1, Round.LowLatency.P50 * 1e-6, Round.Throughput,
                 Round.LowLate.P50 * 1e-3, Round.LowLate.Tail * 1e-3,
                 Round.HighLate.P50 * 1e-3, Round.HighLate.Tail * 1e-3,
                 Round.Invalid.empty() ? "" : " (invalid)"));
      Rounds.push_back(std::move(Round));
    }
    std::vector<const FleetRound *> Valid;
    std::vector<double> RoundThroughputs, RoundLowP50s;
    for (const FleetRound &Round : Rounds) {
      if (!Round.Invalid.empty())
        continue;
      Valid.push_back(&Round);
      RoundThroughputs.push_back(Round.Throughput);
      RoundLowP50s.push_back(Round.LowLatency.P50);
    }
    if (Valid.empty()) {
      R.Invalid = "every round invalid; last: " + Rounds.back().Invalid;
      return 0.0;
    }
    std::sort(Valid.begin(), Valid.end(), [](const auto *A, const auto *B) {
      return A->LowLatency.P50 < B->LowLatency.P50;
    });
    const FleetRound *Mid = Valid[(Valid.size() - 1) / 2];
    double Throughput = median(RoundThroughputs);
    const LoadPhase &Low = Mid->Low, &High = Mid->High, &Sat = Mid->Sat;
    if (!WantLayers) {
      Summary H = summarize(inDueOrder(High, {0, 1})),
              I = summarize(inDueOrder(High, {0}));
      R.e2e("throughput_sps", Throughput);
      reportLowLatency(R, median(RoundLowP50s), Mid->LowLatency.Tail);
      R.layer("latency_p50_ms.high", H.P50 * 1e-6);
      R.layer("latency_p99_ms.high", H.Tail * 1e-6);
      R.layer("latency_p99_ms.interactive", I.Tail * 1e-6);
      R.note(fmt("open loop at %.0f / %.0f req/s, low p50 median of %zu "
                 "valid rounds; tails from the median round: ",
                 LowRate, HighRate, Valid.size()) +
             describe("low", Mid->LowLatency) + ", " +
             describe("high", H) + ", " + describe("interactive", I) +
             fmt("; saturation: %zu in flight", InFlight));
      return Throughput;
    }
    const Summary &LowLate = Mid->LowLate, &HighLate = Mid->HighLate;
    R.layer("serving.submit_us", median(Low.SubmitNs) * 1e-3);
    R.layer("serving.wake_us", median(Low.WakeNs) * 1e-3);
    for (size_t Class : {size_t(0), size_t(1)}) {
      Summary S = summarize(High.ServerNs[Class]);
      std::string Base = std::string("serving.server_latency_ms.") +
                         serving::priorityName(static_cast<Priority>(Class));
      R.layer(Base + ".p50", S.P50 * 1e-6);
      R.layer(Base + ".p99", S.Tail * 1e-6);
    }
    R.layer("serving.peak_queue_depth",
            static_cast<double>(High.PeakOutstanding));
    const char *Names[] = {"low", "high", "sat"};
    const LoadPhase *Phases[] = {&Low, &High, &Sat};
    for (size_t I = 0; I < 3; ++I) {
      PhaseCounters C = phaseCounters(*Phases[I], SC.NumWorkers);
      std::string Suffix = std::string(".") + Names[I];
      R.layer("serving.mean_batch" + Suffix, C.MeanBatch);
      R.layer("serving.cross_model_share" + Suffix, C.CrossShare);
      R.layer("serving.engine_ms_per_batch" + Suffix, C.EngineMsPerBatch);
      R.layer("serving.engine_busy" + Suffix, C.Busy);
    }
    R.layer("serving.gen_lateness_us.low.p50", LowLate.P50 * 1e-3);
    R.layer("serving.gen_lateness_us.low.p99", LowLate.Tail * 1e-3);
    R.layer("serving.gen_lateness_us.high.p50", HighLate.P50 * 1e-3);
    R.layer("serving.gen_lateness_us.high.p99", HighLate.Tail * 1e-3);

    // The merged kernel itself: one batch of the server's cap from one
    // table, and one table-sorted batch spread over every tenant.
    std::vector<KernelCache::MergedKernel> Members;
    for (const spn::Model &Tenant : F.Tenants) {
      Expected<KernelCache::MergedKernel> M =
          Cache->getOrCompileMerged(Tenant, Query, Options);
      if (!M)
        fail("merged lookup: " + M.getError().message());
      Members.push_back(*M);
    }
    size_t Cap = SC.MaxBatchSamples;
    std::vector<uint32_t> Uniform(Cap), UniformTenant(Cap, 0), Mixed(Cap),
        MixedTenant(Cap);
    for (size_t I = 0; I < Cap; ++I) {
      Uniform[I] = static_cast<uint32_t>(Members[0].TableIndex);
      MixedTenant[I] = static_cast<uint32_t>(I * NumTenants / Cap);
      Mixed[I] =
          static_cast<uint32_t>(Members[MixedTenant[I]].TableIndex);
    }
    double ProbeSeconds = Load.num("merge_probe_seconds");
    R.layer("merge.uniform_ns_per_sample",
            timeIndexed(Members[0].Kernel, F, Uniform, UniformTenant,
                        ProbeSeconds, Ctx.Tol, R.Mismatches, T,
                        "merge.executeIndexed.uniform"));
    R.layer("merge.mixed_ns_per_sample",
            timeIndexed(Members[0].Kernel, F, Mixed, MixedTenant,
                        ProbeSeconds, Ctx.Tol, R.Mismatches, T,
                        "merge.executeIndexed.mixed"));
    return Throughput;
  });
  Server->shutdown();

  if (Ctx.Trace) {
    Layers.report(R);
    R.layer("runtime.cache.disk_hit_ms", median(DiskHitMs));
    R.counter("transforms.ops_after",
              static_cast<double>(opsAfterPipeline(F.Tenants.front(), Query,
                                                   Options, true)));
  }
  reportCounters(R, Instructions, Tasks, CacheCounts);
  R.note(fmt("oracle: max |error| %.3g", Errors.MaxAbs));
  return R;
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

void printJsonMetrics(std::string &Out, const std::vector<Metric> &Metrics) {
  Out += "{";
  for (size_t I = 0; I < Metrics.size(); ++I)
    Out += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
               I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
               Metrics[I].Unit.c_str());
  Out += "}";
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    fail("cannot read " + Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

json::Value readJson(const std::string &Path) {
  Expected<json::Value> Root = json::parse(readFile(Path));
  if (!Root)
    fail(Path + ": " + Root.getError().message());
  return Root.takeValue();
}

int usage() {
  std::fprintf(stderr,
               "usage: spnc-perfbench --benchmark BENCHMARK.json --config "
               "FILE --workload NAME --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-out FILE]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  RunContext Ctx;
  std::string BenchmarkPath, ConfigPath, Workload;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc)
      return usage();
    std::string Value = argv[++I];
    if (Arg == "--benchmark")
      BenchmarkPath = Value;
    else if (Arg == "--config")
      ConfigPath = Value;
    else if (Arg == "--workload")
      Workload = Value;
    else if (Arg == "--seed")
      Ctx.Seed = std::stoull(Value);
    else if (Arg == "--seconds")
      Ctx.Seconds = std::stod(Value);
    else if (Arg == "--trace")
      Ctx.Trace = Value == "1";
    else if (Arg == "--work-dir")
      Ctx.WorkDir = Value;
    else if (Arg == "--trace-out")
      Ctx.TraceOut = Value;
    else
      return usage();
  }
  if (BenchmarkPath.empty() || ConfigPath.empty() || Workload.empty() ||
      Ctx.WorkDir.empty() || Ctx.Seconds <= 0)
    return usage();

  json::Value Benchmark = readJson(BenchmarkPath);
  TheCatalog.EndToEnd = readMetricList(Benchmark, "end_to_end");
  TheCatalog.Layers = readMetricList(Benchmark, "per_layer");
  json::Value Root = readJson(ConfigPath);
  Section Top(Root, "config");
  Section Tol = Top.sub("tolerance");
  Ctx.Tol = {Tol.num("abs"), Tol.num("rel")};
  Section Workloads = Top.sub("workloads");
  if (!Root.find("workloads")->find(Workload))
    fail("unknown workload '" + Workload + "'");
  Section Cfg = Workloads.sub(Workload.c_str());
  std::error_code Ec;
  std::filesystem::create_directories(Ctx.WorkDir + "/cpp", Ec);
  if (Ec)
    fail("cannot create " + Ctx.WorkDir + ": " + Ec.message());

  RunReport R;
  uint64_t Start = nowNs();
  if (Workload == "speaker-offline")
    R = runSpeakerOffline(Ctx, Cfg);
  else if (Workload == "ratspn-classify")
    R = runRatSpnClassify(Ctx, Cfg);
  else if (Workload == "fleet-serving")
    R = runFleetServing(Ctx, Cfg);
  else
    fail("unknown workload '" + Workload + "'");
  R.e2e("peak_rss_mb", peakRssMb());
  R.Failed += R.Mismatches;

  std::printf("spnc-perfbench %s seed=%" PRIu64 " seconds=%g trace=%d "
              "(%.1f s in process)\n",
              Workload.c_str(), Ctx.Seed, Ctx.Seconds, Ctx.Trace ? 1 : 0,
              static_cast<double>(nowNs() - Start) * 1e-9);
  for (const std::string &Note : R.Notes)
    std::printf("  %s\n", Note.c_str());
  double ErrorRate = static_cast<double>(R.Failed) /
                     static_cast<double>(std::max<uint64_t>(R.Attempted, 1));
  std::printf("  error_rate = %.6g (%" PRIu64 " failed or mismatched of "
              "%" PRIu64 " attempted)\n",
              ErrorRate, R.Failed, R.Attempted);

  // Every end-to-end metric must have been measured (unless the run is
  // invalid and prints no result). Layers a workload does not exercise
  // report 0, so every run carries the full per-layer set.
  std::vector<Metric> EndToEnd, Layers;
  for (const auto &[Name, Unit] : TheCatalog.EndToEnd) {
    auto It = R.EndToEnd.find(Name);
    if (It == R.EndToEnd.end() && R.Invalid.empty())
      fail("end-to-end metric '" + Name + "' was not measured");
    EndToEnd.push_back(
        {Name, It == R.EndToEnd.end() ? 0.0 : It->second, Unit});
  }
  for (const auto &[Name, Unit] : TheCatalog.Layers) {
    auto It = R.Layers.find(Name);
    Layers.push_back({Name, It == R.Layers.end() ? 0.0 : It->second, Unit});
  }
  for (const Metric &M : Ctx.Trace ? Layers : EndToEnd)
    std::printf("  %-44s %16.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());

  std::string Json = fmt("{\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                         ", \"mismatches\": %" PRIu64 ", \"invalid\": ",
                         R.Attempted, R.Failed, R.Mismatches);
  Json += R.Invalid.empty() ? "null" : "\"" + R.Invalid + "\"";
  Json += fmt(", \"error_rate\": %.17g, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"metrics\": ",
              ErrorRate, SPNC_PERFBENCH_COMPILER, SPNC_PERFBENCH_BUILD_TYPE);
  printJsonMetrics(Json, Ctx.Trace ? Layers : EndToEnd);
  Json += ", \"counters\": ";
  printJsonMetrics(Json, R.Counters);
  Json += "}";
  std::printf("PERFBENCH-RESULT %s\n", Json.c_str());
  std::fflush(stdout);
  return 0;
}
