//===- ExecutionEngine.h - Unified kernel execution interface -----------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one interface every way of running an SPN inference implements:
/// the compiled CPU executors (vm::CpuExecutor), the simulated GPU device
/// (gpusim::GpuExecutor), the native kernels of the cpp backend and the
/// baseline adapters (baselines::InterpreterEngine /
/// baselines::TfGraphEngine). Every query goes through one entry point,
/// `run`, keyed by the request's query kind. Target selection and the
/// set of requests an engine serves are fixed when the concrete engine
/// is constructed, and execution statistics are returned per call, so
/// one engine instance can safely serve concurrent callers.
///
/// This header is layer-neutral by design: it is header-only (no link
/// dependency) and depends only on the bytecode types and the plain GPU
/// stats struct, so layers both below the runtime driver (vm, gpusim) and
/// above it (baselines) can implement the interface.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_RUNTIME_EXECUTIONENGINE_H
#define SPNC_RUNTIME_EXECUTIONENGINE_H

#include "gpusim/GpuStats.h"
#include "support/Timer.h"
#include "vm/Bytecode.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace spnc {
namespace runtime {

/// Compilation / execution target. `Auto` defers the decision: compiling
/// with Auto selects the CPU, loading a saved kernel with Auto selects
/// the engine the kernel was lowered for (see loadCompiledKernel).
enum class Target { Auto, CPU, GPU };

/// Returns a human-readable target name ("cpu", "gpu", "auto").
inline const char *targetName(Target TheTarget) {
  switch (TheTarget) {
  case Target::Auto:
    return "auto";
  case Target::CPU:
    return "cpu";
  case Target::GPU:
    return "gpu";
  }
  return "<invalid>";
}

/// Per-call execution statistics. Filled by ExecutionEngine::run when
/// the caller passes a non-null pointer; engines never retain mutable
/// per-call state, which keeps run() safe to call from many threads.
struct ExecutionStats {
  /// Measured host wall clock of the call.
  uint64_t WallNs = 0;
  /// Number of samples processed by the call.
  size_t NumSamples = 0;
  /// True when `Gpu` carries a simulated device-time breakdown (only the
  /// GPU engine sets this).
  bool HasGpuStats = false;
  /// Simulated device-time breakdown of the call (paper Fig. 9).
  gpusim::GpuExecutionStats Gpu;
};

/// Static per-sample work accounting, available for *every* engine —
/// including the baseline adapters, which have no compiled program.
/// Benches use this instead of special-casing `getProgram()`-less
/// engines when normalizing by work performed.
struct EngineAccounting {
  /// Work units evaluated per sample: bytecode instructions for
  /// compiled programs, SPN node evaluations for the baseline engines.
  size_t NumInstructions = 0;
  /// Task count of the compiled program, or 1 for the single-pass
  /// baseline engines.
  size_t NumTasks = 0;
  /// True when the counts come from a compiled vm::KernelProgram;
  /// false when they are model-derived estimates (baselines).
  bool Compiled = false;
};

/// One engine call: the query to answer and the buffers it reads and
/// writes. Every query is an upward pass, MPE and sampling add a
/// downward pass (docs/queries.md):
///
///  * Joint / Marginal: `Output` receives the kernel's output buffer, one
///    (log-)probability per sample. A marginal request says rows may
///    hold NaN (marginalized) features, which only a marginal-capable
///    engine evaluates; otherwise both run the same pass.
///  * Mpe: `Rows` receives the completed rows and `Output`, when set, the
///    log-probability of each completed row.
///  * Sample: `Rows` receives one ancestral sample per evidence row;
///    sample I depends only on `Seed` and I, so a fixed seed is
///    reproducible regardless of batching.
///
/// `Input` and `Rows` are row-major [sample][feature] doubles, NaN =
/// unobserved.
struct RunRequest {
  vm::QueryKind Kind = vm::QueryKind::Joint;
  const double *Input = nullptr;
  double *Output = nullptr;
  double *Rows = nullptr;
  size_t NumSamples = 0;
  /// Joint/marginal only: row I is evaluated under weight table
  /// TableIndices[I] (indices from addParamTable, docs/merging.md). Rows
  /// need not be grouped by table; the VM runs fewer mixed blocks when
  /// they are.
  const uint32_t *TableIndices = nullptr;
  /// Joint/marginal only, without TableIndices: every row is evaluated
  /// under this weight table; -1 evaluates the parameters of the program
  /// the engine was built from.
  int32_t Table = -1;
  /// Sampling seed.
  uint64_t Seed = 0;

  /// True when rows run under registered weight tables.
  bool hasTables() const { return TableIndices || Table >= 0; }
};

/// The bit of \p Kind in EngineCapabilities::Kinds.
constexpr unsigned kindBit(vm::QueryKind Kind) {
  return 1u << static_cast<unsigned>(Kind);
}

/// The requests an engine serves, fixed when it is constructed.
struct EngineCapabilities {
  /// The query kinds run() accepts, one kindBit each.
  unsigned Kinds = 0;
  /// run() accepts per-row weight-table indices.
  bool ParamTables = false;

  bool serves(vm::QueryKind Kind) const { return Kinds & kindBit(Kind); }

  /// What an engine running \p Program serves: the program's own query
  /// kind (a marginal program serves joint requests too), with weight
  /// tables for joint/marginal programs. MPE and sampling need the
  /// traceback plan, which only single-task programs carry.
  static EngineCapabilities of(const vm::KernelProgram &Program) {
    EngineCapabilities Caps;
    switch (Program.Query) {
    case vm::QueryKind::Marginal:
      Caps.Kinds = kindBit(vm::QueryKind::Marginal);
      [[fallthrough]];
    case vm::QueryKind::Joint:
      Caps.Kinds |= kindBit(vm::QueryKind::Joint);
      Caps.ParamTables = true;
      break;
    case vm::QueryKind::Mpe:
    case vm::QueryKind::Sample:
      if (!Program.Plan.empty() && Program.Tasks.size() == 1)
        Caps.Kinds = kindBit(Program.Query);
      break;
    }
    return Caps;
  }
};

/// Abstract execution engine: answers queries over a batch of samples.
/// Implementations must be immutable after construction (apart from
/// addParamTable) so that `run` can be invoked concurrently.
class ExecutionEngine {
public:
  virtual ~ExecutionEngine() = default;

  /// Runs \p Request and fills \p Stats when provided. Returns false,
  /// with no output written, when this engine does not serve the
  /// request (see serves()) or a table index names no registered table.
  /// Thread-safe: concurrent calls on one engine are allowed. Input
  /// shape correctness is the caller's contract.
  virtual bool run(const RunRequest &Request,
                   ExecutionStats *Stats = nullptr) const = 0;

  /// Registers a per-model weight table: \p Params is the raw canonical
  /// parameter vector (merge::extractParams order, length must match the
  /// program's NumParams). Returns the table index for
  /// RunRequest::Table / TableIndices, or -1 when this engine has no
  /// weight tables or the length is wrong. Registering identical content
  /// returns the existing index. The one sanctioned mutation after
  /// construction — safe to call concurrently with run().
  virtual int32_t addParamTable(const double *Params, size_t NumParams) = 0;

  /// The raw parameter vector registered as table \p Index, empty when
  /// there is no such table. Thread-safe.
  virtual std::vector<double> getParamTable(int32_t Index) const {
    (void)Index;
    return {};
  }

  /// The requests this engine serves. Constant for its lifetime.
  const EngineCapabilities &getCapabilities() const { return Capabilities; }

  /// True when \p Request is within getCapabilities() and carries the
  /// buffer its kind writes.
  bool serves(const RunRequest &Request) const {
    if (!Capabilities.serves(Request.Kind))
      return false;
    bool Likelihood = spn::isLikelihood(Request.Kind);
    if (Request.hasTables() && !(Likelihood && Capabilities.ParamTables))
      return false;
    return Request.NumSamples == 0 ||
           (Likelihood ? Request.Output : Request.Rows) != nullptr;
  }

  /// The compiled program backing this engine, or null for engines that
  /// evaluate a model directly (the baseline adapters). The returned
  /// pointer is owned by the engine and valid for its lifetime.
  /// Thread-safe.
  virtual const vm::KernelProgram *getProgram() const { return nullptr; }

  /// Static work accounting for this engine. The default derives the
  /// counts from `getProgram()`; engines without a compiled program
  /// (the baseline adapters) override this with model-derived counts,
  /// so callers never need to special-case them. Thread-safe.
  virtual EngineAccounting getAccounting() const {
    EngineAccounting Accounting;
    if (const vm::KernelProgram *Program = getProgram()) {
      Accounting.Compiled = true;
      Accounting.NumTasks = Program->Tasks.size();
      Accounting.NumInstructions = Program->totalInstructions();
    }
    return Accounting;
  }

  /// The target this engine executes on. Thread-safe; constant for the
  /// engine's lifetime.
  virtual Target getTarget() const = 0;

  /// One-line human-readable description (engine kind + configuration).
  /// Thread-safe.
  virtual std::string describe() const = 0;

protected:
  explicit ExecutionEngine(EngineCapabilities TheCapabilities)
      : Capabilities(TheCapabilities) {}

  /// The frame every run() shares: refuses a request this engine does
  /// not serve, otherwise calls \p Body with a statistics record to add
  /// engine-specific detail to (the simulated GPU breakdown), and
  /// stamps the wall clock and sample count into \p Stats.
  template <typename BodyFn>
  bool timedRun(const RunRequest &Request, ExecutionStats *Stats,
                BodyFn &&Body) const {
    if (!serves(Request))
      return false;
    Timer WallTimer;
    ExecutionStats Local;
    Body(Local);
    if (Stats) {
      Local.WallNs = WallTimer.elapsedNs();
      Local.NumSamples = Request.NumSamples;
      *Stats = Local;
    }
    return true;
  }

private:
  EngineCapabilities Capabilities;
};

} // namespace runtime
} // namespace spnc

#endif // SPNC_RUNTIME_EXECUTIONENGINE_H
