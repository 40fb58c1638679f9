//===- spnc-cli.cpp - Command-line compiler and inference driver -----------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end, the standalone analog of the paper's Python
/// interface (§IV-A1): loads a serialized SPN model (.spnb), compiles it
/// for CPU or simulated GPU, and runs inference over samples given as a
/// whitespace/comma-separated text file (one sample per line) — or just
/// reports compile statistics with --stats.
///
/// Usage:
///   spnc-cli MODEL.spnb [--input DATA.txt] [--target cpu|gpu]
///            [--backend vm|cpp]
///            [--opt N] [--vector-width N] [--partition N]
///            [--marginal] [--no-log-space] [--stats] [--dump-ir]
///            [--verify-each-stage] [--dump-ir-after=STAGE]
///            [--pipeline-report=FILE.json]
///            [--kernel-cache-report=FILE.json]
///
//===----------------------------------------------------------------------===//

#include "backend/LookupBackend.h"
#include "frontend/HiSPNTranslation.h"
#include "frontend/Serializer.h"
#include "ir/Printer.h"
#include "merge/Merge.h"
#include "runtime/Compiler.h"
#include "runtime/KernelCache.h"
#include "runtime/Reports.h"
#include "support/FileIO.h"
#include "support/RawOStream.h"
#include "support/StringUtils.h"
#include "tuning/TuningRecord.h"
#include "vm/ProgramBinary.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

using namespace spnc;
using namespace spnc::runtime;

namespace {

struct CliOptions {
  /// Positional model paths. One model gives the full compile/run CLI;
  /// several switch to batch-compile mode, where --pipeline-report
  /// emits a top-level JSON array with one document per model.
  std::vector<std::string> ModelPaths;
  std::string InputPath;
  std::string SaveKernelPath;
  std::string KernelCacheDir;
  /// In-memory LRU capacity of the kernel cache (0 = unbounded).
  size_t KernelCacheCapacity = KernelCache::kDefaultMaxEntries;
  /// Disk-tier byte budget of the kernel cache (0 = unbounded).
  uint64_t KernelCacheDiskBudget = 0;
  CompilerOptions Compile;
  spn::QueryConfig Query;
  /// True when --query was given; a loaded .spnk must then match the
  /// requested kind instead of adopting the recorded one.
  bool QueryExplicit = false;
  /// Base RNG seed for --query=sample.
  uint64_t Seed = 0;
  /// Rows synthesized for unconditioned sampling (no --input).
  size_t NumSynthetic = 1;
  /// Built-in backend that materializes the engine (see
  /// backend/LookupBackend.h).
  std::string BackendName = "vm";
  /// True when --target was given; a loaded .spnk then keeps that
  /// engine instead of deferring to the recorded lowering.
  bool TargetExplicit = false;
  bool Stats = false;
  bool KernelCacheStats = false;
  bool DumpIr = false;
  /// Print content/structural hashes and structure counts (plus merge
  /// groups with several models) and exit.
  bool ModelInfo = false;
  /// Insert an IR verification stage after every pipeline stage.
  bool VerifyEachStage = false;
  /// Dump the module after this named pipeline stage (empty = off).
  std::string DumpIrAfter;
  /// Write the per-stage JSON compile report here (empty = off).
  std::string PipelineReportPath;
  /// Write the kernel-cache counters as JSON here (empty = off).
  std::string KernelCacheReportPath;
  /// Apply a spnc-tune TuningRecord to the compile-side knobs.
  bool Tuned = false;
  /// Explicit record path (--tuned=FILE); empty = derive from
  /// --kernel-cache and the first model's hash.
  std::string TunedPath;
  /// Knobs pinned on the command line; a tuning record never overrides
  /// these.
  std::vector<std::string> ExplicitKnobs;
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: spnc-cli MODEL.spnb [MODEL2.spnb ...] [options]\n"
      "  With several models, each is compiled in turn (batch-compile "
      "mode)\n"
      "  and --pipeline-report emits a JSON array, one document per "
      "model;\n"
      "  --input, --dump-ir, --save-kernel, --kernel-cache,\n"
      "  --kernel-cache-stats, --kernel-cache-report and --backend then\n"
      "  do not apply (exit 2).\n"
      "  --input FILE       samples, one per line (whitespace/comma "
      "separated;\n"
      "                     'nan' marginalizes a feature)\n"
      "  --target cpu|gpu   compilation target (default cpu)\n"
      "  --query KIND       joint|marginal|mpe|sample (default joint).\n"
      "                     mpe prints the completed assignment plus "
      "its\n"
      "                     log-probability per line; sample prints one "
      "drawn\n"
      "                     feature row per line (NaN evidence = "
      "latent)\n"
      "  --seed N           RNG seed for --query=sample (default 0)\n"
      "  --samples N        rows to draw for --query=sample without "
      "--input\n"
      "                     (default 1)\n"
      "  --backend NAME     execution backend: 'vm' (bytecode "
      "interpreter,\n"
      "                     default) or 'cpp' (emit C++, compile with "
      "the host\n"
      "                     toolchain, run the native .so)\n"
      "  --opt N            optimization level 0-3 (default 2)\n"
      "  --vector-width N   SIMD lanes 1/4/8/16 (default 8)\n"
      "  --partition N      max operations per task (default: no "
      "partitioning)\n"
      "  --marginal         enable marginalized (NaN) evidence: with "
      "joint,\n"
      "                     the same query as --query=marginal\n"
      "  --no-log-space     compute linear probabilities\n"
      "  --f32, --f64       force the compute precision (default: the\n"
      "                     lowering decides, typically f32)\n"
      "  --save-kernel FILE cache the compiled kernel (skips "
      "recompilation\n"
      "                     when the same file is passed as MODEL with "
      ".spnk suffix)\n"
      "  --kernel-cache DIR reuse compiled kernels from DIR "
      "(compile-once/run-many)\n"
      "  --kernel-cache-capacity N\n"
      "                     max in-memory cached kernels, LRU-evicted "
      "beyond N\n"
      "                     (default 64; 0 = unbounded)\n"
      "  --kernel-cache-disk-budget BYTES\n"
      "                     total .spnk size budget of the cache dir; "
      "oldest\n"
      "                     entries are pruned first (default 0 = "
      "unbounded)\n"
      "  --kernel-cache-stats\n"
      "                     print cache hit/miss/eviction/corruption "
      "counters\n"
      "  --model-info       print each model's content hash, "
      "structural\n"
      "                     hash and node/edge/leaf counts (and, with\n"
      "                     several models, the merge groups), then "
      "exit\n"
      "  --stats            print per-stage compile statistics and "
      "exit\n"
      "  --dump-ir          print the HiSPN module and exit\n"
      "  --verify-each-stage\n"
      "                     run the IR verifier after every pipeline "
      "stage\n"
      "                     and every IR pass; compilation fails "
      "naming\n"
      "                     the offending stage or pass\n"
      "  --dump-ir-after=STAGE\n"
      "                     print the module after the named stage "
      "(e.g.\n"
      "                     translate, ir-pipeline) to stderr\n"
      "  --pipeline-report=FILE.json\n"
      "                     write per-stage timings and op counts as "
      "JSON\n"
      "  --kernel-cache-report=FILE.json\n"
      "                     write the kernel cache counters as JSON\n"
      "  --tuned[=FILE]     apply the compile-side knobs of a "
      "spnc-tune\n"
      "                     TuningRecord: FILE, or\n"
      "                     <kernel-cache>/<model-hash>.tune.json when "
      "bare;\n"
      "                     explicit flags still override\n"
      "  --help, -h         print this message and exit\n");
}

bool parseArguments(int Argc, char **Argv, CliOptions &Options) {
  Options.Compile.OptLevel = 2;
  Options.Compile.Execution.VectorWidth = 8;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto NextValue = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    // "--flag=value" spelling for the diagnostic flags; the value
    // follows the '='.
    auto EqualsValue = [&](const char *Flag,
                           std::string &Out) -> bool {
      std::string Prefix = std::string(Flag) + "=";
      if (Arg.rfind(Prefix, 0) != 0)
        return false;
      Out = Arg.substr(Prefix.size());
      return true;
    };
    if (EqualsValue("--dump-ir-after", Options.DumpIrAfter) ||
        EqualsValue("--pipeline-report", Options.PipelineReportPath) ||
        EqualsValue("--kernel-cache-report",
                    Options.KernelCacheReportPath))
      continue;
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
    } else if (Arg == "--input") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.InputPath = V;
    } else if (Arg == "--target") {
      const char *V = NextValue();
      if (!V)
        return false;
      if (std::strcmp(V, "gpu") == 0) {
        // GpuBlockSize stays 0: the executor defaults to the
        // occupancy-optimal block size (GpuExecutor::kDefaultBlockSize).
        Options.Compile.TheTarget = Target::GPU;
      } else if (std::strcmp(V, "cpu") != 0) {
        return false;
      }
      Options.TargetExplicit = true;
    } else if (Arg == "--query" || Arg.rfind("--query=", 0) == 0) {
      const char *V = Arg[7] == '=' ? Arg.c_str() + 8 : NextValue();
      if (!V || !spn::parseQueryKind(V, Options.Query.Kind))
        return false;
      Options.QueryExplicit = true;
    } else if (Arg == "--seed") {
      const char *V = NextValue();
      if (!V)
        return false;
      if (!parseUnsigned(V, Options.Seed))
        return false;
    } else if (Arg == "--samples") {
      const char *V = NextValue();
      if (!V)
        return false;
      if (!parseUnsigned(V, Options.NumSynthetic) ||
          Options.NumSynthetic == 0)
        return false;
    } else if (Arg == "--opt") {
      const char *V = NextValue();
      if (!V)
        return false;
      if (!parseUnsigned(V, Options.Compile.OptLevel))
        return false;
      Options.ExplicitKnobs.push_back("opt-level");
    } else if (Arg == "--vector-width") {
      const char *V = NextValue();
      if (!V)
        return false;
      if (!parseUnsigned(V, Options.Compile.Execution.VectorWidth))
        return false;
      Options.ExplicitKnobs.push_back("vector-width");
    } else if (Arg == "--partition") {
      const char *V = NextValue();
      if (!V)
        return false;
      if (!parseUnsigned(V, Options.Compile.MaxPartitionSize))
        return false;
      Options.ExplicitKnobs.push_back("partition-size");
    } else if (Arg == "--save-kernel") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.SaveKernelPath = V;
    } else if (Arg == "--kernel-cache") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.KernelCacheDir = V;
    } else if (Arg == "--kernel-cache-capacity") {
      const char *V = NextValue();
      if (!V)
        return false;
      if (!parseUnsigned(V, Options.KernelCacheCapacity))
        return false;
    } else if (Arg == "--kernel-cache-disk-budget") {
      const char *V = NextValue();
      if (!V)
        return false;
      if (!parseUnsigned(V, Options.KernelCacheDiskBudget))
        return false;
    } else if (Arg == "--backend") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.BackendName = V;
      Options.ExplicitKnobs.push_back("backend");
    } else if (Arg == "--kernel-cache-stats") {
      Options.KernelCacheStats = true;
    } else if (Arg == "--marginal") {
      Options.Query.SupportMarginal = true;
    } else if (Arg == "--no-log-space") {
      Options.Query.LogSpace = false;
    } else if (Arg == "--f32") {
      Options.Query.DataType = spn::ComputeType::F32;
    } else if (Arg == "--f64") {
      Options.Query.DataType = spn::ComputeType::F64;
    } else if (Arg == "--stats") {
      Options.Stats = true;
    } else if (Arg == "--model-info") {
      Options.ModelInfo = true;
    } else if (Arg == "--dump-ir") {
      Options.DumpIr = true;
    } else if (Arg == "--verify-each-stage") {
      Options.VerifyEachStage = true;
    } else if (Arg == "--dump-ir-after") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.DumpIrAfter = V;
    } else if (Arg == "--pipeline-report") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.PipelineReportPath = V;
    } else if (Arg == "--kernel-cache-report") {
      const char *V = NextValue();
      if (!V)
        return false;
      Options.KernelCacheReportPath = V;
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      return false;
    } else {
      Options.ModelPaths.push_back(Arg);
    }
  }
  return !Options.ModelPaths.empty();
}

/// Reads samples (one line each, numbers separated by whitespace or
/// commas; "nan" allowed). Returns false on shape mismatch.
bool readSamples(const std::string &Path, unsigned NumFeatures,
                 std::vector<double> &Data, size_t &NumSamples) {
  Expected<std::string> Text = readWholeFile(Path);
  if (!Text) {
    std::fprintf(stderr, "%s\n", Text.getError().message().c_str());
    return false;
  }
  NumSamples = 0;
  std::string_view Rest = *Text;
  while (!Rest.empty()) {
    size_t End = std::min(Rest.find('\n'), Rest.size());
    // strtod needs a terminated string that ends with the line.
    std::string Line(Rest.substr(0, End));
    Rest.remove_prefix(std::min(End + 1, Rest.size()));
    unsigned Count = 0;
    const char *Cursor = Line.c_str();
    for (;;) {
      while (*Cursor == ' ' || *Cursor == '\t' || *Cursor == ',')
        ++Cursor;
      if (*Cursor == '\0' || *Cursor == '\r')
        break;
      char *NumberEnd = nullptr;
      double Value = std::strtod(Cursor, &NumberEnd);
      if (NumberEnd == Cursor) {
        std::fprintf(stderr, "bad number on line %zu\n", NumSamples + 1);
        return false;
      }
      Data.push_back(Value);
      ++Count;
      Cursor = NumberEnd;
    }
    if (Count == 0)
      continue; // blank line
    if (Count != NumFeatures) {
      std::fprintf(stderr,
                   "line %zu has %u values, model expects %u features\n",
                   NumSamples + 1, Count, NumFeatures);
      return false;
    }
    ++NumSamples;
  }
  return true;
}

/// Runs the compiled kernel for \p Kind over the --input rows (or, for
/// sampling without --input, --samples synthesized all-NaN rows) and
/// prints one line per sample: the log-likelihood for joint/marginal,
/// the completed assignment followed by its log-probability for MPE,
/// the drawn feature row for sampling. Returns the process exit code.
int runQuery(CompiledKernel &Kernel, spn::QueryKind Kind,
             unsigned NumFeatures, const CliOptions &Options) {
  std::vector<double> Data;
  size_t NumSamples = 0;
  if (!Options.InputPath.empty()) {
    if (!readSamples(Options.InputPath, NumFeatures, Data, NumSamples))
      return 1;
  } else if (Kind == spn::QueryKind::Sample) {
    // Unconditioned sampling needs no evidence: every feature latent.
    NumSamples = Options.NumSynthetic;
    Data.assign(NumSamples * NumFeatures,
                std::numeric_limits<double>::quiet_NaN());
  } else {
    std::fprintf(stderr, "no --input given; nothing to do\n");
    return 0;
  }

  bool Likelihood = spn::isLikelihood(Kind);
  std::vector<double> Output(Kind == spn::QueryKind::Sample ? 0 : NumSamples);
  std::vector<double> Rows(Likelihood ? 0 : NumSamples * NumFeatures);
  RunRequest Run;
  Run.Kind = Kind;
  Run.Input = Data.data();
  Run.Output = Output.data();
  Run.Rows = Rows.data();
  Run.NumSamples = NumSamples;
  Run.Seed = Options.Seed;
  if (!Kernel.run(Run)) {
    std::fprintf(stderr,
                 "engine cannot serve --query=%s (was the kernel "
                 "compiled with --query=%s?)\n",
                 spn::queryKindName(Kind), spn::queryKindName(Kind));
    return 1;
  }
  for (size_t S = 0; S < NumSamples; ++S) {
    if (Likelihood) {
      std::printf("%.10g\n", Output[S]);
      continue;
    }
    for (unsigned F = 0; F < NumFeatures; ++F)
      std::printf("%s%.10g", F ? " " : "", Rows[S * NumFeatures + F]);
    if (Kind == spn::QueryKind::Mpe)
      std::printf(" %.10g", Output[S]);
    std::printf("\n");
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--help") == 0 ||
        std::strcmp(Argv[I], "-h") == 0) {
      printUsage();
      return 0;
    }
  CliOptions Options;
  if (!parseArguments(Argc, Argv, Options)) {
    printUsage();
    return 2;
  }

  const std::string &ModelPath = Options.ModelPaths.front();

  // --model-info: model identity and structure, no compilation. The
  // structural hash keys joint/marginal kernels (weight-only edits do
  // not change it), the content hash MPE/sampling kernels (any edit
  // does). Models with equal structural hashes land in one merge group.
  if (Options.ModelInfo) {
    std::vector<spn::Model> Models;
    Models.reserve(Options.ModelPaths.size());
    for (const std::string &Path : Options.ModelPaths) {
      Expected<spn::Model> Model = spn::loadModel(Path);
      if (!Model) {
        std::fprintf(stderr, "failed to load model '%s': %s\n",
                     Path.c_str(), Model.getError().message().c_str());
        return 1;
      }
      Models.push_back(Model.takeValue());
    }
    for (size_t I = 0; I < Models.size(); ++I) {
      const spn::Model &Model = Models[I];
      merge::ModelCounts Counts = merge::countModel(Model);
      std::printf("%s: content-hash %016llx structural-hash %016llx\n"
                  "  features %u, nodes %zu, edges %zu, sums %zu, "
                  "products %zu, leaves %zu, params %zu\n",
                  Options.ModelPaths[I].c_str(),
                  static_cast<unsigned long long>(
                      KernelCache::contentHash(Model)),
                  static_cast<unsigned long long>(
                      KernelCache::structuralHash(Model)),
                  Model.getNumFeatures(), Counts.NumNodes,
                  Counts.NumEdges, Counts.NumSums, Counts.NumProducts,
                  Counts.NumLeaves, Counts.NumParams);
    }
    if (Models.size() > 1) {
      std::vector<const spn::Model *> Pointers;
      Pointers.reserve(Models.size());
      for (const spn::Model &Model : Models)
        Pointers.push_back(&Model);
      std::vector<merge::MergeGroup> Groups =
          merge::discoverMergeGroups(Pointers);
      std::printf("merge groups: %zu\n", Groups.size());
      for (size_t G = 0; G < Groups.size(); ++G) {
        std::printf("  group %zu (structural-hash %016llx):", G,
                    static_cast<unsigned long long>(Groups[G].Hash));
        for (size_t Member : Groups[G].Members)
          std::printf(" %s", Options.ModelPaths[Member].c_str());
        std::printf("\n");
      }
    }
    return 0;
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
      // Bare --tuned keys the record off the first model's hash, so
      // the model must be a serialized SPN, not a .spnk kernel.
      Expected<spn::Model> Model = spn::loadModel(ModelPath);
      if (!Model) {
        std::fprintf(stderr,
                     "--tuned: failed to load model '%s' for record "
                     "lookup: %s\n",
                     ModelPath.c_str(),
                     Model.getError().message().c_str());
        return 1;
      }
      KernelCache::Config PathConfig;
      PathConfig.Directory = Options.KernelCacheDir;
      KernelCache PathCache(PathConfig);
      RecordPath =
          PathCache.tuningRecordPath(KernelCache::contentHash(*Model));
    }
    Expected<tuning::TuningRecord> Record =
        tuning::loadTuningRecord(RecordPath);
    if (!Record) {
      std::fprintf(stderr, "%s\n",
                   Record.getError().message().c_str());
      return 1;
    }
    tuning::TunedConfig Tuned;
    Tuned.Compile = Options.Compile;
    Tuned.BackendName = Options.BackendName;
    std::vector<tuning::AppliedKnob> Applied =
        tuning::applyTuningRecord(*Record, Tuned,
                                  Options.ExplicitKnobs);
    // Only the compile side carries over — spnc-cli has no server, so
    // the record's serving knobs are inert here.
    Options.Compile = Tuned.Compile;
    Options.BackendName = Tuned.BackendName;
    std::string Summary;
    for (const tuning::AppliedKnob &Knob : Applied) {
      bool ServingOnly = Knob.Name == "max-batch-samples" ||
                         Knob.Name == "max-queue-delay-us" ||
                         Knob.Name == "num-workers" ||
                         Knob.Name == "num-shards" ||
                         Knob.Name == "priority-weight";
      if (!Summary.empty())
        Summary += ' ';
      Summary += Knob.Name + "=" + Knob.Value;
      if (Knob.Overridden)
        Summary += " (overridden by flag)";
      else if (Knob.Unknown)
        Summary += " (unknown, skipped)";
      else if (ServingOnly)
        Summary += " (serving-only, inert)";
    }
    std::fprintf(stderr,
                 "applied tuning record '%s' (objective %s): %s\n",
                 RecordPath.c_str(), Record->Objective.c_str(),
                 Summary.c_str());
  }

  Expected<std::shared_ptr<backend::Backend>> BackendOrErr =
      backend::lookupBackend(Options.BackendName);
  if (!BackendOrErr) {
    std::fprintf(stderr, "%s\n",
                 BackendOrErr.getError().message().c_str());
    return 2;
  }
  std::shared_ptr<backend::Backend> TheBackend =
      BackendOrErr.takeValue();

  // A .spnk model path is a cached compiled kernel: load and run it
  // without recompiling.
  if (Options.ModelPaths.size() == 1 && ModelPath.size() > 5 &&
      ModelPath.substr(ModelPath.size() - 5) == ".spnk") {
    Expected<CompiledKernel> Kernel =
        Options.BackendName == "vm"
            ? loadCompiledKernel(
                  ModelPath,
                  Options.TargetExplicit ? Options.Compile.TheTarget
                                         : Target::Auto,
                  Options.Compile.Execution, Options.Compile.Device,
                  Options.Compile.GpuBlockSize)
            : [&]() -> Expected<CompiledKernel> {
        // Non-VM backends re-materialize the portable program (for the
        // cpp backend: re-emit, host-compile and dlopen).
        Expected<vm::KernelProgram> Program = vm::readProgramFile(ModelPath);
        if (!Program)
          return Program.getError();
        Expected<PipelineConfig> Config =
            PipelineConfig::create(Options.Compile);
        if (!Config)
          return Config.getError();
        Expected<std::shared_ptr<ExecutionEngine>> Engine =
            TheBackend->materialize(Program.takeValue(), *Config);
        if (!Engine)
          return Engine.getError();
        return CompiledKernel(Engine.takeValue());
      }();
    if (!Kernel) {
      std::fprintf(stderr, "failed to load kernel: %s\n",
                   Kernel.getError().message().c_str());
      return 1;
    }
    unsigned NumFeatures = Kernel->getProgram().Buffers[0].Columns;
    // The .spnk records the query kind it was compiled for. A bare
    // invocation adopts the recorded kind; a requested one (--query, or
    // --marginal) must be one the kernel serves (a marginal kernel
    // serves joint requests too), since the kernel physically lacks any
    // other entry point.
    spn::QueryKind RecordedKind = Kernel->getProgram().Query;
    bool Requested = Options.QueryExplicit || Options.Query.SupportMarginal;
    spn::QueryKind Kind =
        Requested ? spn::resolvedKind(Options.Query) : RecordedKind;
    if (Requested && !Kernel->getEngine().getCapabilities().serves(Kind)) {
      std::fprintf(stderr,
                   "kernel '%s' was compiled for --query=%s, not "
                   "--query=%s; recompile from the .spnb model\n",
                   ModelPath.c_str(), spn::queryKindName(RecordedKind),
                   spn::queryKindName(Kind));
      return 1;
    }
    std::fprintf(stderr,
                 "loaded cached kernel: %zu task(s), %u features, "
                 "query %s, engine: %s\n",
                 Kernel->getProgram().Tasks.size(), NumFeatures,
                 spn::queryKindName(RecordedKind),
                 Kernel->getEngine().describe().c_str());
    return runQuery(*Kernel, Kind, NumFeatures, Options);
  }

  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(Options.Compile);
  if (!Pipeline) {
    std::fprintf(stderr, "invalid compiler configuration: %s\n",
                 Pipeline.getError().message().c_str());
    return 1;
  }

  // Switches the requested diagnostics on for \p P; shared between the
  // direct pipeline and the kernel-cache path (which builds its own
  // pipeline for a compile).
  auto ConfigureDiagnostics =
      [&Options](CompilationPipeline &P) -> std::optional<Error> {
    if (!Options.PipelineReportPath.empty())
      if (std::optional<Error> Err = P.enableStageReport())
        return Err;
    if (Options.VerifyEachStage)
      if (std::optional<Error> Err = P.enableVerifyAfterEachStage())
        return Err;
    if (!Options.DumpIrAfter.empty())
      if (std::optional<Error> Err = P.addIrDumpStage(Options.DumpIrAfter))
        return Err;
    return std::nullopt;
  };
  if (std::optional<Error> Err = ConfigureDiagnostics(*Pipeline)) {
    std::fprintf(stderr, "invalid diagnostic configuration: %s\n",
                 Err->message().c_str());
    return 1;
  }

  // Batch-compile mode: compile every model in turn, then emit one
  // top-level report array (one document per model).
  if (Options.ModelPaths.size() > 1) {
    if (!Options.InputPath.empty() || Options.DumpIr ||
        !Options.SaveKernelPath.empty()) {
      std::fprintf(stderr, "--input, --dump-ir and --save-kernel "
                           "require a single MODEL\n");
      return 2;
    }
    // Batch mode compiles through the pipeline alone, so a flag of the
    // kernel cache or the backend would go unused.
    const std::pair<bool, const char *> Unused[] = {
        {!Options.KernelCacheDir.empty(), "--kernel-cache"},
        {Options.KernelCacheStats, "--kernel-cache-stats"},
        {!Options.KernelCacheReportPath.empty(), "--kernel-cache-report"},
        {std::ranges::count(Options.ExplicitKnobs, "backend") > 0,
         "--backend"}};
    for (auto [Given, Flag] : Unused)
      if (Given) {
        std::fprintf(stderr,
                     "%s requires a single MODEL (several MODELs compile "
                     "through the pipeline only)\n",
                     Flag);
        return 2;
      }
    std::vector<ModelPipelineReport> Reports;
    for (const std::string &Path : Options.ModelPaths) {
      Expected<spn::Model> Model = spn::loadModel(Path);
      if (!Model) {
        std::fprintf(stderr, "failed to load model '%s': %s\n",
                     Path.c_str(), Model.getError().message().c_str());
        return 1;
      }
      ModelPipelineReport Report;
      Report.Model = Path;
      Report.Stages = &Pipeline->getStages();
      Expected<vm::KernelProgram> Program =
          Pipeline->compile(*Model, Options.Query, &Report.Stats);
      if (!Program) {
        std::fprintf(stderr, "compilation of '%s' failed: %s\n",
                     Path.c_str(),
                     Program.getError().message().c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "compiled '%s' in %.2f ms: %zu task(s), %zu "
                   "instructions\n",
                   Path.c_str(),
                   static_cast<double>(Report.Stats.TotalNs) * 1e-6,
                   Report.Stats.NumTasks, Report.Stats.NumInstructions);
      Reports.push_back(std::move(Report));
    }
    if (!Options.PipelineReportPath.empty()) {
      std::string ReportError;
      if (failed(writePipelineReports(Reports,
                                      Options.PipelineReportPath,
                                      &ReportError))) {
        std::fprintf(stderr, "failed to write pipeline report: %s\n",
                     ReportError.c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "wrote pipeline report (%zu models) to '%s'\n",
                   Reports.size(), Options.PipelineReportPath.c_str());
    }
    return 0;
  }

  Expected<spn::Model> Model = spn::loadModel(ModelPath);
  if (!Model) {
    std::fprintf(stderr, "failed to load model: %s\n",
                 Model.getError().message().c_str());
    return 1;
  }
  spn::ModelStats Stats = Model->computeStats();
  std::fprintf(stderr,
               "loaded '%s': %u features, %zu nodes (%zu sums, %zu "
               "products, %zu leaves)\n",
               Model->getName().c_str(), Model->getNumFeatures(),
               Stats.NumNodes, Stats.NumSums, Stats.NumProducts,
               Stats.NumLeaves);

  if (Options.DumpIr) {
    ir::Context Ctx;
    ir::OwningOpRef<ir::ModuleOp> Module =
        spn::translateToHiSPN(Ctx, *Model, Options.Query);
    if (!Module)
      return 1;
    FileOStream OS(stdout);
    ir::printOperation(Module.get().getOperation(), OS);
    return 0;
  }

  bool UseCache = !Options.KernelCacheDir.empty() ||
                  Options.KernelCacheStats ||
                  !Options.KernelCacheReportPath.empty();
  CompileStats CStats;
  CompiledKernel Kernel;
  std::unique_ptr<KernelCache> Cache;
  if (UseCache) {
    KernelCache::Config CacheConfig;
    CacheConfig.Directory = Options.KernelCacheDir;
    CacheConfig.MaxEntries = Options.KernelCacheCapacity;
    CacheConfig.DiskBudgetBytes = Options.KernelCacheDiskBudget;
    CacheConfig.ConfigurePipeline = ConfigureDiagnostics;
    CacheConfig.TheBackend = TheBackend;
    Cache = std::make_unique<KernelCache>(CacheConfig);
    Expected<CompiledKernel> Cached = Cache->getOrCompile(
        *Model, Options.Query, Options.Compile, &CStats);
    if (!Cached) {
      std::fprintf(stderr, "compilation failed: %s\n",
                   Cached.getError().message().c_str());
      return 1;
    }
    Kernel = Cached.takeValue();
    KernelCache::Stats CacheStats = Cache->getStats();
    if (CacheStats.DiskHits > 0)
      std::fprintf(stderr, "kernel cache: reused entry from '%s'\n",
                   Options.KernelCacheDir.c_str());
    if (CStats.Stages.empty() &&
        (!Options.PipelineReportPath.empty() || Options.VerifyEachStage ||
         !Options.DumpIrAfter.empty()))
      std::fprintf(stderr, "no pipeline stage ran: the kernel came from "
                           "the kernel cache, so the pipeline diagnostics "
                           "observed no compile\n");
    if (Options.KernelCacheStats)
      std::fprintf(stderr,
                   "kernel cache stats: hits=%llu misses=%llu "
                   "disk-hits=%llu recompiles=%llu evictions=%llu "
                   "disk-pruned=%llu (%llu bytes) corrupted=%llu\n",
                   static_cast<unsigned long long>(CacheStats.Hits),
                   static_cast<unsigned long long>(CacheStats.Misses),
                   static_cast<unsigned long long>(CacheStats.DiskHits),
                   static_cast<unsigned long long>(
                       CacheStats.Recompiles),
                   static_cast<unsigned long long>(CacheStats.Evictions),
                   static_cast<unsigned long long>(
                       CacheStats.DiskPrunedFiles),
                   static_cast<unsigned long long>(
                       CacheStats.DiskPrunedBytes),
                   static_cast<unsigned long long>(
                       CacheStats.CorruptedDiskEntries));
  } else {
    Expected<std::shared_ptr<ExecutionEngine>> Engine =
        TheBackend->compile(*Pipeline, *Model, Options.Query, &CStats);
    if (!Engine) {
      std::fprintf(stderr, "compilation failed: %s\n",
                   Engine.getError().message().c_str());
      return 1;
    }
    Kernel = CompiledKernel(Engine.takeValue());
  }
  if (CStats.TotalNs > 0)
    std::fprintf(stderr,
                 "compiled for %s via backend '%s' in %.2f ms: %zu "
                 "task(s), %zu instructions\n",
                 Options.Compile.TheTarget == Target::GPU
                     ? "gpu (simulated)"
                     : "cpu",
                 Options.BackendName.c_str(),
                 static_cast<double>(CStats.TotalNs) * 1e-6,
                 CStats.NumTasks, CStats.NumInstructions);
  if (!Options.SaveKernelPath.empty()) {
    std::string SaveError;
    if (failed(saveCompiledKernel(Kernel, Options.SaveKernelPath,
                                  &SaveError))) {
      std::fprintf(stderr, "failed to save kernel to '%s': %s\n",
                   Options.SaveKernelPath.c_str(), SaveError.c_str());
      return 1;
    }
    std::fprintf(stderr, "cached compiled kernel at '%s'\n",
                 Options.SaveKernelPath.c_str());
  }
  if (!Options.PipelineReportPath.empty()) {
    std::string ReportError;
    if (failed(writePipelineReport(CStats, &Pipeline->getStages(),
                                   Options.PipelineReportPath,
                                   &ReportError))) {
      std::fprintf(stderr, "failed to write pipeline report: %s\n",
                   ReportError.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote pipeline report to '%s'\n",
                 Options.PipelineReportPath.c_str());
  }
  if (!Options.KernelCacheReportPath.empty()) {
    std::string ReportError;
    KernelCache::Stats CacheStats = Cache->getStats();
    if (failed(writeKernelCacheReport(CacheStats, &Cache->getConfig(),
                                      Options.KernelCacheReportPath,
                                      &ReportError))) {
      std::fprintf(stderr, "failed to write kernel cache report: %s\n",
                   ReportError.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote kernel cache report to '%s'\n",
                 Options.KernelCacheReportPath.c_str());
  }
  if (Options.Stats) {
    for (const StageTiming &Stage : CStats.Stages)
      std::fprintf(stderr, "  stage %-23s %8.3f ms\n",
                   Stage.Name.c_str(),
                   static_cast<double>(Stage.WallNs) * 1e-6);
    for (const ir::PassTiming &Pass : CStats.PassTimings)
      std::fprintf(stderr, "    pass %-22s %8.3f ms\n",
                   Pass.PassName.c_str(),
                   static_cast<double>(Pass.WallNs) * 1e-6);
    std::fprintf(stderr, "  engine: %s\n",
                 Kernel.getEngine().describe().c_str());
    return 0;
  }

  return runQuery(Kernel, Options.Query.Kind, Model->getNumFeatures(),
                  Options);
}
