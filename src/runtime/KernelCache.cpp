//===- KernelCache.cpp - Bounded, integrity-checked kernel cache --------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "runtime/KernelCache.h"

#include "backend/VmBackend.h"
#include "merge/Merge.h"
#include "support/Casting.h"
#include "support/Hashing.h"
#include "vm/ParamTable.h"
#include "vm/ProgramBinary.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

using namespace spnc;
using namespace spnc::runtime;

namespace {

/// The backend a cache without an explicit `Config::TheBackend` uses:
/// the bytecode VM path.
const backend::Backend &defaultBackend() {
  static const backend::VmBackend Vm;
  return Vm;
}

} // namespace

uint64_t KernelCache::contentHash(const spn::Model &Model) {
  size_t Seed = hashCombine(Model.getNumFeatures());
  for (const spn::Node *N : Model.topologicalOrder()) {
    hashCombineSeed(Seed, hashCombine(static_cast<unsigned>(N->getKind()),
                                      N->getId()));
    if (const auto *Inner = dyn_cast<spn::InnerNode>(N)) {
      for (const spn::Node *Child : Inner->getChildren())
        hashCombineSeed(Seed, std::hash<unsigned>()(Child->getId()));
      if (const auto *Sum = dyn_cast<spn::SumNode>(N))
        for (double W : Sum->getWeights())
          hashCombineSeed(Seed, std::hash<double>()(W));
      continue;
    }
    const auto *Leaf = cast<spn::LeafNode>(N);
    hashCombineSeed(Seed, std::hash<unsigned>()(Leaf->getFeatureIndex()));
    if (const auto *Hist = dyn_cast<spn::HistogramLeaf>(N)) {
      for (const spn::HistogramBucket &B : Hist->getBuckets())
        hashCombineSeed(Seed, hashCombine(B.Lb, B.Ub, B.P));
    } else if (const auto *Cat = dyn_cast<spn::CategoricalLeaf>(N)) {
      for (double P : Cat->getProbabilities())
        hashCombineSeed(Seed, std::hash<double>()(P));
    } else if (const auto *Gauss = dyn_cast<spn::GaussianLeaf>(N)) {
      hashCombineSeed(Seed,
                      hashCombine(Gauss->getMean(), Gauss->getStdDev()));
    }
  }
  return Seed;
}

uint64_t KernelCache::structuralHash(const spn::Model &Model) {
  return merge::structuralHash(Model);
}

namespace {

/// Streams the non-model key components after \p ModelHash (the
/// structural hash for likelihood queries, the content hash otherwise).
/// \p Query is resolved, so its kind is the one spelling of what the
/// kernel answers.
uint64_t combineKey(uint64_t ModelHash, const spn::QueryConfig &Query,
                    const PipelineConfig &Config,
                    const backend::Backend &TheBackend) {
  // Query.Kind participates in the key, so a cache populated with
  // joint/marginal kernels never serves an MPE or sampling request — it
  // misses and recompiles transparently.
  WordHasher Hash;
  const std::string &Name = TheBackend.getName();
  Hash.addFields(ModelHash, Query.BatchSize, Query.LogSpace,
                 Query.DataType, Query.Kind, Config.hash(),
                 xxh64(Name.data(), Name.size()),
                 TheBackend.artifactFingerprint());
  return Hash.finish();
}

/// The checked canonical parameters of \p Model, with its structural
/// hash in \p Hash, from one topological walk. The walk is freed on
/// return, before a miss compiles.
Expected<std::vector<double>> paramsAndStructuralHash(const spn::Model &Model,
                                                      uint64_t &Hash) {
  std::vector<spn::Node *> Order = Model.topologicalOrder();
  Expected<std::vector<double>> Params = merge::extractParams(Order);
  if (Params)
    Hash = merge::structuralHash(Model, Order);
  return Params;
}

} // namespace

uint64_t KernelCache::makeKey(const spn::Model &Model,
                              const spn::QueryConfig &Query,
                              const PipelineConfig &Config,
                              const backend::Backend &TheBackend) {
  spn::QueryConfig Resolved = spn::resolveQuery(Model, Query);
  return combineKey(spn::isLikelihood(Resolved.Kind) ? structuralHash(Model)
                                                    : contentHash(Model),
                    Resolved, Config, TheBackend);
}

std::string KernelCache::entryPath(uint64_t Key) const {
  if (TheConfig.Directory.empty())
    return std::string();
  char Name[32];
  std::snprintf(Name, sizeof(Name), "%016llx.spnk",
                static_cast<unsigned long long>(Key));
  return TheConfig.Directory + "/" + Name;
}

std::string KernelCache::tuningRecordPath(uint64_t ModelHash) const {
  if (TheConfig.Directory.empty())
    return std::string();
  char Name[32];
  std::snprintf(Name, sizeof(Name), "%016llx.tune.json",
                static_cast<unsigned long long>(ModelHash));
  return TheConfig.Directory + "/" + Name;
}

void KernelCache::touch(std::unordered_map<uint64_t, Entry>::iterator It) {
  LruOrder.splice(LruOrder.begin(), LruOrder, It->second.LruIt);
}

void KernelCache::enforceCapacity() {
  if (TheConfig.MaxEntries == 0)
    return;
  while (Entries.size() > TheConfig.MaxEntries) {
    uint64_t Victim = LruOrder.back();
    LruOrder.pop_back();
    Entries.erase(Victim);
    ++Counters.Evictions;
  }
}

void KernelCache::pruneDiskTier(const std::string &KeepPath,
                                uint64_t &PrunedFiles,
                                uint64_t &PrunedBytes) const {
  PrunedFiles = 0;
  PrunedBytes = 0;
  if (TheConfig.DiskBudgetBytes == 0)
    return;

  namespace fs = std::filesystem;
  struct DiskFile {
    fs::path Path;
    uint64_t Size = 0;
    fs::file_time_type MTime;
  };
  std::vector<DiskFile> Files;
  uint64_t TotalBytes = 0;
  std::error_code EC;
  for (const fs::directory_entry &DirEntry :
       fs::directory_iterator(TheConfig.Directory, EC)) {
    if (EC)
      return;
    if (!DirEntry.is_regular_file(EC) ||
        DirEntry.path().extension() != ".spnk")
      continue;
    DiskFile F;
    F.Path = DirEntry.path();
    F.Size = DirEntry.file_size(EC);
    if (EC)
      continue;
    F.MTime = DirEntry.last_write_time(EC);
    if (EC)
      continue;
    TotalBytes += F.Size;
    Files.push_back(std::move(F));
  }
  if (TotalBytes <= TheConfig.DiskBudgetBytes)
    return;

  // Oldest first; the entry just written (KeepPath) survives even when
  // it alone exceeds the budget.
  std::sort(Files.begin(), Files.end(),
            [](const DiskFile &A, const DiskFile &B) {
              return A.MTime < B.MTime;
            });
  for (const DiskFile &F : Files) {
    if (TotalBytes <= TheConfig.DiskBudgetBytes)
      break;
    if (F.Path == fs::path(KeepPath))
      continue;
    std::error_code RemoveEC;
    if (fs::remove(F.Path, RemoveEC) && !RemoveEC) {
      TotalBytes -= F.Size;
      ++PrunedFiles;
      PrunedBytes += F.Size;
    }
  }
}

Expected<CompiledKernel>
KernelCache::getOrCompile(const spn::Model &Model,
                          const spn::QueryConfig &Query,
                          const CompilerOptions &Options,
                          CompileStats *CompStats) {
  spn::QueryConfig Resolved = spn::resolveQuery(Model, Query);
  if (!spn::isLikelihood(Resolved.Kind)) {
    Expected<std::shared_ptr<ExecutionEngine>> Engine = getOrCompileImpl(
        contentHash(Model), Model, Resolved, Options, CompStats, nullptr);
    if (!Engine)
      return Engine.getError();
    return CompiledKernel(Engine.takeValue());
  }

  // Likelihood kernels take weight tables: one kernel per structure,
  // and this model's table on it. Extracting the table checks every
  // parameter, so a cache hit never serves an invalid model (the
  // structure was validated when the kernel compiled).
  uint64_t Hash = 0;
  Expected<std::vector<double>> Params = paramsAndStructuralHash(Model, Hash);
  if (!Params)
    return Params.getError();
  bool Fresh = false;
  Expected<std::shared_ptr<ExecutionEngine>> Engine = getOrCompileImpl(
      Hash, Model, Resolved, Options, CompStats, &Fresh);
  if (!Engine)
    return Engine.getError();
  if (Fresh) {
    // Trust-but-verify on every fresh compile: binding the generating
    // model's own canonical parameters must reproduce the program's
    // side tables bit-for-bit. A divergence means the param-site
    // bookkeeping and the extraction order disagree — other models of
    // the structure would silently evaluate the wrong parameters.
    std::string Why;
    if (!vm::verifySelfBinding(*(*Engine)->getProgram(), *Params, &Why))
      return makeError("compiled kernel failed its self-binding check: " +
                       Why);
  }
  int32_t TableIndex = (*Engine)->addParamTable(Params->data(),
                                                Params->size());
  if (TableIndex < 0)
    return makeError("engine '" + (*Engine)->describe() +
                     "' rejected the model's weight table");
  return CompiledKernel(Engine.takeValue(), TableIndex);
}

Expected<KernelCache::MergedKernel>
KernelCache::getOrCompileMerged(const spn::Model &Model,
                                const spn::QueryConfig &Query,
                                const CompilerOptions &Options,
                                CompileStats *CompStats) {
  if (!spn::isLikelihood(Query.Kind))
    return makeError("MPE and sampling kernels bake their parameters and "
                     "take no weight tables (docs/merging.md)");
  Expected<CompiledKernel> Kernel =
      getOrCompile(Model, Query, Options, CompStats);
  if (!Kernel)
    return Kernel.getError();
  int32_t TableIndex = Kernel->getTableIndex();
  return MergedKernel{Kernel.takeValue(), TableIndex};
}

Expected<std::shared_ptr<ExecutionEngine>>
KernelCache::getOrCompileImpl(uint64_t ModelHash, const spn::Model &Model,
                              const spn::QueryConfig &Query,
                              const CompilerOptions &Options,
                              CompileStats *CompStats,
                              bool *FreshlyCompiled) {
  if (FreshlyCompiled)
    *FreshlyCompiled = false;
  Expected<PipelineConfig> Config = PipelineConfig::create(Options);
  if (!Config)
    return Config.getError();
  const backend::Backend &TheBackend =
      TheConfig.TheBackend ? *TheConfig.TheBackend : defaultBackend();
  uint64_t Key = combineKey(ModelHash, Query, *Config, TheBackend);

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Entries.find(Key);
    if (It != Entries.end()) {
      ++Counters.Hits;
      touch(It);
      return It->second.Engine;
    }
    ++Counters.Misses;
  }

  // Miss: try the disk tier, then compile. Both run outside the lock so
  // distinct keys make progress concurrently; duplicate concurrent work
  // on the same key is resolved at insertion (first wins).
  bool FromDisk = false;
  bool Existed = false;
  std::shared_ptr<ExecutionEngine> Engine;
  std::string Path = entryPath(Key);
  uint64_t PrunedFiles = 0, PrunedBytes = 0;
  std::error_code ExistsError;
  if (!Path.empty() && std::filesystem::exists(Path, ExistsError)) {
    // Any failure from here on (unreadable file, short read, bad blob,
    // checksum mismatch, older format version) is a corrupt entry.
    Existed = true;
    Expected<vm::KernelProgram> Cached = vm::readProgramFile(Path);
    if (Cached && Cached->Query != Query.Kind) {
      // Defense in depth: the query kind participates in the cache key,
      // so this only triggers when a hand-copied file occupies the slot.
      // Serving it would answer the wrong inference task — recompile
      // instead.
      Cached = makeError(
          "compiled for query kind " +
          std::to_string(static_cast<unsigned>(Cached->Query)) +
          ", requested " +
          std::to_string(static_cast<unsigned>(Query.Kind)));
    }
    if (Cached) {
      // A `.spnk` stores only the portable program; the backend turns
      // it back into a live engine (for the native backend that means
      // re-emitting and re-linking the shared object). A materialize
      // failure is handled like corruption: warn and recompile.
      Expected<std::shared_ptr<ExecutionEngine>> Loaded =
          TheBackend.materialize(Cached.takeValue(), *Config);
      if (Loaded) {
        Engine = Loaded.takeValue();
        FromDisk = true;
      } else {
        std::fprintf(stderr,
                     "warning: rejecting kernel cache entry '%s': %s "
                     "(recompiling)\n",
                     Path.c_str(),
                     Loaded.getError().message().c_str());
      }
    } else if (Existed) {
      std::fprintf(stderr,
                   "warning: rejecting kernel cache entry '%s': %s "
                   "(recompiling)\n",
                   Path.c_str(), Cached.getError().message().c_str());
    }
  }
  if (!Engine) {
    // Only a compile needs the pipeline; the hook switches on the
    // diagnostics, which never change the program the key names.
    CompilationPipeline Pipeline(*Config);
    if (TheConfig.ConfigurePipeline)
      if (std::optional<Error> Err = TheConfig.ConfigurePipeline(Pipeline))
        return *Err;
    Expected<std::shared_ptr<ExecutionEngine>> Compiled =
        TheBackend.compile(Pipeline, Model, Query, CompStats);
    if (!Compiled)
      return Compiled.getError();
    Engine = Compiled.takeValue();
    if (!Path.empty() && Engine->getProgram()) {
      // Persist for future processes; failures (e.g. unwritable
      // directory) only cost the next process a recompile.
      std::error_code EC;
      std::filesystem::create_directories(TheConfig.Directory, EC);
      if (succeeded(saveCompiledKernel(CompiledKernel(Engine), Path)))
        pruneDiskTier(Path, PrunedFiles, PrunedBytes);
    }
  }

  std::lock_guard<std::mutex> Lock(Mutex);
  Counters.DiskPrunedFiles += PrunedFiles;
  Counters.DiskPrunedBytes += PrunedBytes;
  if (Existed && !FromDisk)
    ++Counters.CorruptedDiskEntries;
  auto It = Entries.find(Key);
  if (It != Entries.end()) {
    // Lost a same-key race: the first engine wins, ours is dropped.
    touch(It);
    return It->second.Engine;
  }
  LruOrder.push_front(Key);
  It = Entries.emplace(Key, Entry{std::move(Engine), LruOrder.begin()})
           .first;
  if (FromDisk)
    ++Counters.DiskHits;
  else
    ++Counters.Recompiles;
  if (FreshlyCompiled)
    *FreshlyCompiled = !FromDisk;
  std::shared_ptr<ExecutionEngine> Result = It->second.Engine;
  enforceCapacity();
  return Result;
}

size_t KernelCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

void KernelCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Entries.clear();
  LruOrder.clear();
}

KernelCache::Stats KernelCache::getStats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}
