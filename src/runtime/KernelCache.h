//===- KernelCache.h - Bounded, integrity-checked kernel cache ----------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, bounded cache of compiled kernels for serving
/// scenarios that mix repeated queries over a fixed set of models (the
/// compile-once/run-many regime the paper's §V-B compile-time
/// measurements motivate). Kernels are keyed by (model, resolved query
/// configuration, pipeline configuration, backend identity); a second
/// request with the same key returns the already-constructed
/// ExecutionEngine instead of recompiling. The model
/// component of a joint/marginal kernel is its structure alone: such
/// kernels take weight tables, so every structurally-isomorphic model
/// shares one engine and gets its own table on it (docs/merging.md).
/// MPE and sampling kernels bake their parameters and key on the model's
/// content. The backend component (name + artifact
/// fingerprint, see backend/Backend.h) means switching `--backend` or
/// the native toolchain never serves a stale kernel.
///
/// Two tiers:
///
///  * **In-memory tier** — an LRU-capped map of live ExecutionEngines.
///    `Config::MaxEntries` bounds residency; inserting beyond the cap
///    evicts the least-recently-used engine (evicted kernels already
///    handed out stay valid — they share ownership of the engine).
///  * **Disk tier** (optional) — a directory of `.spnk` files (see
///    docs/spnk-format.md). A miss first tries `<dir>/<key>.spnk`
///    before compiling, and a fresh compile persists its program there
///    atomically. `Config::DiskBudgetBytes` bounds the directory's total
///    `.spnk` size; exceeding it prunes the oldest files first (the
///    just-written entry is never pruned).
///
/// Disk entries are integrity-checked on every disk-tier hit: the
/// `.spnk` content checksum and every index of the decoded program (see
/// vm::decodeProgram). Corrupted, truncated, unreadable or older-format
/// entries are never an error — the kernel is recompiled, the entry
/// rewritten in the current format, and the rejection counted in
/// `Stats::CorruptedDiskEntries`.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_RUNTIME_KERNELCACHE_H
#define SPNC_RUNTIME_KERNELCACHE_H

#include "runtime/Compiler.h"

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace spnc {

namespace backend {
class Backend;
} // namespace backend

namespace runtime {

/// Thread-safe map from (model, query, pipeline config, backend) to a
/// shared ExecutionEngine. All public members may be called
/// concurrently.
class KernelCache {
public:
  /// Default in-memory capacity: generous for a per-process model set,
  /// small enough that a long-running server cannot accumulate
  /// thousands of dead engines.
  static constexpr size_t kDefaultMaxEntries = 64;

  /// Cache construction parameters. The defaults give a bounded,
  /// in-memory-only cache.
  struct Config {
    /// Directory of the `.spnk` disk tier; empty disables it. Created
    /// on first write if missing.
    std::string Directory;
    /// In-memory LRU capacity; 0 means unbounded (not recommended for
    /// long-running servers).
    size_t MaxEntries = kDefaultMaxEntries;
    /// Total size budget (bytes) for `.spnk` files in Directory; 0
    /// means unbounded. Enforced after each insert by pruning the
    /// oldest files first; the newest entry is never pruned, so one
    /// oversized kernel may exceed the budget by itself.
    uint64_t DiskBudgetBytes = 0;
    /// Applied to the pipeline the cache builds for a compile (memory
    /// and disk hits build none) — the hook that switches on the
    /// pipeline's diagnostics (CompilationPipeline::enableStageReport
    /// and its siblings) on the cache path. A returned error fails the
    /// request. Must be safe to invoke concurrently. Diagnostics never
    /// change the compiled program, so the hook is not part of the key:
    /// caches with and without it share entries, and a kernel served
    /// from either tier ran no diagnostic in this process.
    std::function<std::optional<Error>(CompilationPipeline &)>
        ConfigurePipeline;
    /// The backend that turns compiled programs into engines on this
    /// cache's paths (both the compile miss and the `.spnk` disk hit);
    /// null selects the default VM backend. The cache key covers the
    /// backend's name and artifact fingerprint, so caches configured
    /// with different backends — or the same native backend after a
    /// toolchain/flag change — never share entries.
    std::shared_ptr<const backend::Backend> TheBackend;
  };

  /// Cache observability counters. `getStats()` returns a consistent
  /// snapshot taken under the cache lock.
  struct Stats {
    /// Requests answered from the in-memory map.
    uint64_t Hits = 0;
    /// Requests that required compilation or a disk load.
    uint64_t Misses = 0;
    /// Misses answered by loading a `.spnk` from the cache directory.
    uint64_t DiskHits = 0;
    /// Misses that ran the compilation pipeline (including recoveries
    /// from corrupted disk entries).
    uint64_t Recompiles = 0;
    /// In-memory engines dropped by the LRU cap.
    uint64_t Evictions = 0;
    /// `.spnk` files removed by the disk byte budget, and their total
    /// size.
    uint64_t DiskPrunedFiles = 0;
    uint64_t DiskPrunedBytes = 0;
    /// Disk entries rejected as unreadable, truncated, failing the
    /// content checksum or the index checks, or written in an older
    /// format version (each one triggered a transparent recompile).
    uint64_t CorruptedDiskEntries = 0;
  };

  /// An in-memory-only cache with the default LRU capacity.
  KernelCache() = default;

  /// A disk-backed cache persisting `.spnk` files under \p Directory
  /// (created on first write if missing). Pass an empty string for an
  /// in-memory-only cache. Capacity and disk budget take their
  /// defaults; use the Config constructor to tune them.
  explicit KernelCache(std::string Directory) {
    TheConfig.Directory = std::move(Directory);
  }

  /// A cache with explicit capacity/budget configuration.
  explicit KernelCache(Config TheConfig) : TheConfig(std::move(TheConfig)) {}

  KernelCache(const KernelCache &) = delete;
  KernelCache &operator=(const KernelCache &) = delete;

  /// Content hash of \p Model: node kinds, wiring, weights and leaf
  /// parameters of the graph reachable from the root, plus the feature
  /// count. Two models with identical structure and parameters collide
  /// (desired: they compile to identical kernels); a weight-only edit
  /// changes it. Thread-safe; the model must not be mutated
  /// concurrently.
  static uint64_t contentHash(const spn::Model &Model);

  /// Structural hash of \p Model: node kinds, wiring, leaf families and
  /// scopes — tunable parameters (sum weights, bucket masses, category
  /// probabilities, Gaussian mean/stddev) excluded, so a weight-only
  /// edit does NOT change it. Every member of a merge group shares this
  /// value; it keys joint/marginal kernels. Delegates to
  /// merge::structuralHash. Thread-safe.
  static uint64_t structuralHash(const spn::Model &Model);

  /// The key getOrCompile uses for compiling \p Model for \p Query
  /// (resolved against the model, spn::resolveQuery; structuralHash for
  /// joint/marginal queries, contentHash otherwise) under \p Config on
  /// \p TheBackend (its name and artifact fingerprint; a cache without a
  /// configured backend uses backend::VmBackend), whatever diagnostics
  /// the cache's `ConfigurePipeline` hook switches on.
  /// entryPath(makeKey(...)) is the `.spnk` such a compile leaves.
  /// Thread-safe; never fails.
  static uint64_t makeKey(const spn::Model &Model,
                          const spn::QueryConfig &Query,
                          const PipelineConfig &Config,
                          const backend::Backend &TheBackend);

  /// Returns the kernel for (\p Model, \p Query, \p Options), compiling
  /// at most once per key. Compilation and disk I/O run outside the
  /// cache lock, so distinct keys compile concurrently; concurrent
  /// requests for one key may compile redundantly, but exactly one
  /// engine wins and all callers share it. \p Stats is only written on
  /// an actual compile (cache hits leave it untouched).
  ///
  /// A joint/marginal kernel answers for \p Model through its weight
  /// table: the model's parameters (merge::extractParams, which checks
  /// each of them) are registered on the structure's shared engine and
  /// the returned kernel carries their table index. One topological
  /// walk of the model yields both the parameters and the structural
  /// hash that keys the engine. A fresh compile is
  /// checked with vm::verifySelfBinding before being trusted: binding
  /// the generating model's own parameters must reproduce the program's
  /// side tables bit-for-bit.
  ///
  /// Fails when \p Options is invalid, a parameter of \p Model is
  /// invalid, or compilation fails — disk-tier corruption is recovered
  /// transparently. Thread-safe.
  Expected<CompiledKernel> getOrCompile(const spn::Model &Model,
                                        const spn::QueryConfig &Query,
                                        const CompilerOptions &Options,
                                        CompileStats *Stats = nullptr);

  /// A kernel of a shared engine plus the index of the model's weight
  /// table on that engine (the row tag RunRequest::TableIndices
  /// carries).
  struct MergedKernel {
    CompiledKernel Kernel;
    int32_t TableIndex = -1;
  };

  /// getOrCompile, with the kernel's table index spelled out for callers
  /// that batch rows of several models of one structure
  /// (docs/merging.md).
  Expected<MergedKernel>
  getOrCompileMerged(const spn::Model &Model,
                     const spn::QueryConfig &Query,
                     const CompilerOptions &Options,
                     CompileStats *Stats = nullptr);

  /// Number of resident engines. Thread-safe.
  size_t size() const;

  /// Drops every in-memory entry (disk entries are kept) and resets no
  /// counters. Kernels already handed out remain valid. Thread-safe.
  void clear();

  /// A consistent snapshot of the observability counters. Thread-safe.
  Stats getStats() const;

  const std::string &getDirectory() const { return TheConfig.Directory; }

  /// The active configuration (immutable after construction).
  const Config &getConfig() const { return TheConfig; }

  /// Path of the `.spnk` backing file for \p Key (empty when the cache
  /// is in-memory only). Thread-safe.
  std::string entryPath(uint64_t Key) const;

  /// Path of the per-model tuning-record sidecar
  /// (`<dir>/<contentHash hex>.tune.json`, empty when the cache is
  /// in-memory only). Keyed on the model hash alone — unlike `.spnk`
  /// entries, a record *selects* the compile options rather than being
  /// keyed by them — and the `.tune.json` extension keeps records
  /// exempt from the `.spnk` disk-budget pruning. `spnc-tune` writes
  /// here; `spnc-cli`/`spnc-serve --tuned` read. Thread-safe.
  std::string tuningRecordPath(uint64_t ModelHash) const;

private:
  struct Entry {
    std::shared_ptr<ExecutionEngine> Engine;
    /// Position in LruOrder (for O(1) touch on hit).
    std::list<uint64_t>::iterator LruIt;
  };

  /// The miss/hit machinery behind getOrCompile: memory lookup, disk
  /// probe, compile, insert. \p ModelHash seeds the key (structuralHash
  /// for likelihood queries, contentHash otherwise) and \p Query is
  /// resolved; \p FreshlyCompiled (optional) reports whether the
  /// returned engine is one this call compiled (false on memory/disk
  /// hits and when a concurrent compile of the same key won).
  Expected<std::shared_ptr<ExecutionEngine>>
  getOrCompileImpl(uint64_t ModelHash, const spn::Model &Model,
                   const spn::QueryConfig &Query,
                   const CompilerOptions &Options,
                   CompileStats *CompStats, bool *FreshlyCompiled);

  /// Moves \p It to the front of the recency list. Caller holds Mutex.
  void touch(std::unordered_map<uint64_t, Entry>::iterator It);

  /// Evicts least-recently-used entries until the LRU cap is respected.
  /// Caller holds Mutex.
  void enforceCapacity();

  /// Deletes oldest `.spnk` files until the disk tier fits the byte
  /// budget, never removing \p KeepPath. Runs without the cache lock
  /// (filesystem only); returns the number of files and bytes removed.
  void pruneDiskTier(const std::string &KeepPath, uint64_t &PrunedFiles,
                     uint64_t &PrunedBytes) const;

  Config TheConfig;
  mutable std::mutex Mutex;
  std::unordered_map<uint64_t, Entry> Entries;
  /// Keys ordered most-recently-used first.
  std::list<uint64_t> LruOrder;
  Stats Counters;
};

} // namespace runtime
} // namespace spnc

#endif // SPNC_RUNTIME_KERNELCACHE_H
