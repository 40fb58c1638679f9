//===- ParamTable.h - Weight-table binding of compiled programs --------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Weight tables (docs/merging.md): every joint/marginal `KernelProgram`
/// carries `ParamSite` records describing which side-table slots hold
/// tunable model parameters (sum weights, leaf distribution parameters,
/// and the sum weights the -O2 peephole folded into leaves) and how the
/// raw parameter is transformed before it lands in the slot. Binding a
/// weight table rewrites only each task's side tables (`TaskParams`)
/// for another structurally-isomorphic model — the instruction stream,
/// operand lists, parameter sites, buffer plan and register assignment
/// stay in the one program every table runs.
///
/// The transforms reproduce the code generator's constant folding
/// bit-for-bit (same formulas, same literals — see vm::kLogSqrt2Pi and
/// vm::foldWeight), so binding the generating model's own raw
/// parameters yields exactly the compiled tables. `verifySelfBinding`
/// checks that invariant; the kernel cache runs it after every fresh
/// compile of a likelihood kernel.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_VM_PARAMTABLE_H
#define SPNC_VM_PARAMTABLE_H

#include "runtime/ExecutionEngine.h"
#include "vm/Bytecode.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

namespace spnc {
namespace vm {

/// \p Value weighted by the transformed sum weight \p Weight: the
/// product of two probabilities in the program's space. Shared by the
/// -O2 peephole's leaf fold and its replay at bind time.
inline double foldWeight(bool LogSpace, double Value, double Weight) {
  return LogSpace ? Value + Weight : Value * Weight;
}

/// Each task's side tables of \p Program with every parameter site
/// rebound to \p Raw, the canonical parameter vector
/// (merge::extractParams order) of the model to bind, in task order.
/// Raw.size() must equal Program.NumParams (asserted).
std::vector<TaskParams> bindParams(const KernelProgram &Program,
                                   std::span<const double> Raw);

/// A copy of \p Program whose side tables are bindParams(Program, Raw):
/// the stand-alone program of another model of the structure.
KernelProgram bindProgram(const KernelProgram &Program,
                          std::span<const double> Raw);

/// A weight table bound for the VM and the GPU simulator: each task's
/// side tables, or nullopt when they are the program's own (the table
/// of the model it was compiled from), which engines then read from the
/// program itself instead of keeping a copy.
using BoundParams = std::optional<std::vector<TaskParams>>;

/// bindParams(Program, Raw), or nullopt when that binding reproduces
/// \p Program's side tables bit-for-bit.
BoundParams bindIfDifferent(const KernelProgram &Program,
                            std::span<const double> Raw);

/// True when rebinding \p Program with \p Raw (the raw parameters of the
/// model it was generated from) reproduces its own side tables
/// bit-for-bit, marginal and default values included. A failure means
/// the program shape depends on parameter values somewhere — the kernel
/// must not be shared. On failure a description is written to \p Why
/// when provided.
bool verifySelfBinding(const KernelProgram &Program,
                       std::span<const double> Raw,
                       std::string *Why = nullptr);

/// Calls \p Fn(Begin, End, Index) for each maximal run [Begin, End) of
/// the request's rows that share one table: the runs of its
/// TableIndices, or all rows under its Table. A request without tables
/// (RunRequest::hasTables) has no runs.
template <typename RunFn>
void forEachTableRun(const runtime::RunRequest &Request, RunFn &&Fn) {
  size_t NumRows = Request.NumSamples;
  const uint32_t *Indices = Request.TableIndices;
  if (!Indices) {
    if (Request.Table >= 0 && NumRows > 0)
      Fn(size_t(0), NumRows, static_cast<uint32_t>(Request.Table));
    return;
  }
  for (size_t Begin = 0; Begin < NumRows;) {
    size_t End = Begin + 1;
    while (End < NumRows && Indices[End] == Indices[Begin])
      ++End;
    Fn(Begin, End, Indices[Begin]);
    Begin = End;
  }
}

/// The weight tables registered on one engine, each bound once into the
/// engine's own form \p Bound (BoundParams for the VM and the GPU
/// simulator, a parameter block for the cpp backend). Registration
/// deduplicates by content, so a model re-registered after a cache hit
/// gets its old index back, and may run concurrently with resolve().
template <typename Bound> class ParamTableSet {
public:
  /// Returns the index of the table holding \p Raw, binding new content
  /// with \p Bind.
  template <typename BindFn>
  int32_t add(std::span<const double> Raw, BindFn &&Bind) {
    std::unique_lock<std::shared_mutex> Lock(Mutex);
    for (size_t I = 0; I < RawTables.size(); ++I)
      if (std::ranges::equal(RawTables[I], Raw))
        return static_cast<int32_t>(I);
    BoundTables.push_back(std::make_unique<const Bound>(Bind(Raw)));
    RawTables.emplace_back(Raw.begin(), Raw.end());
    return static_cast<int32_t>(RawTables.size() - 1);
  }

  /// The bound tables by index, or nullopt when a table \p Request
  /// names (RunRequest::Table or one of its TableIndices) is not
  /// registered. The pointees never move, so the snapshot stays valid
  /// while later tables are added.
  std::optional<std::vector<const Bound *>>
  resolve(const runtime::RunRequest &Request) const {
    std::vector<const Bound *> Tables;
    {
      std::shared_lock<std::shared_mutex> Lock(Mutex);
      Tables.reserve(BoundTables.size());
      for (const std::unique_ptr<const Bound> &Table : BoundTables)
        Tables.push_back(Table.get());
    }
    bool Known = true;
    forEachTableRun(Request, [&](size_t, size_t, uint32_t Index) {
      Known = Known && Index < Tables.size();
    });
    if (!Known)
      return std::nullopt;
    return Tables;
  }

  /// The raw parameters registered as table \p Index (empty when there
  /// is no such table).
  std::vector<double> raw(int32_t Index) const {
    std::shared_lock<std::shared_mutex> Lock(Mutex);
    if (Index < 0 || static_cast<size_t>(Index) >= RawTables.size())
      return {};
    return RawTables[static_cast<size_t>(Index)];
  }

private:
  mutable std::shared_mutex Mutex;
  std::vector<std::vector<double>> RawTables;
  std::vector<std::unique_ptr<const Bound>> BoundTables;
};

/// The side tables each row of a joint/marginal request reads: the
/// program's own for a plain request, otherwise those of the weight
/// table the row names (RunRequest::Table, or TableIndices per row).
/// Rows need not be grouped by table.
class RowParams {
public:
  /// The rows of \p Request to \p Program, reading the tables
  /// registered in \p Tables; nullopt when the request names a table
  /// that is not registered.
  static std::optional<RowParams>
  resolve(const KernelProgram &Program,
          const ParamTableSet<BoundParams> &Tables,
          const runtime::RunRequest &Request) {
    std::vector<const BoundParams *> Bound;
    if (Request.hasTables()) {
      std::optional<std::vector<const BoundParams *>> Snapshot =
          Tables.resolve(Request);
      if (!Snapshot)
        return std::nullopt;
      Bound = std::move(*Snapshot);
    }
    return RowParams(Program, Request, std::move(Bound));
  }

  /// Task \p TaskIndex's side tables as batch row \p Row reads them.
  const TaskParams &get(size_t Row, size_t TaskIndex) const {
    int64_t Index = Indices ? int64_t(Indices[Row]) : int64_t(Table);
    const BoundParams *Bound =
        Index < 0 ? nullptr : Tables[static_cast<size_t>(Index)];
    return Bound && *Bound ? (**Bound)[TaskIndex] : Program.Tasks[TaskIndex];
  }

  /// Points Lanes[L] at the side tables of batch row \p Row + L for the
  /// \p Live rows of a block of \p W lanes. Its padding lanes read the
  /// tables of its last row, so a block whose rows read one table reads
  /// it uniformly.
  void lanes(size_t Row, unsigned Live, unsigned W, size_t TaskIndex,
             const TaskParams **Lanes) const {
    for (unsigned L = 0; L < W; ++L)
      Lanes[L] = &get(Row + std::min(L, Live - 1), TaskIndex);
  }

private:
  RowParams(const KernelProgram &Program, const runtime::RunRequest &Request,
            std::vector<const BoundParams *> Tables)
      : Program(Program), Tables(std::move(Tables)),
        Indices(Request.TableIndices), Table(Request.Table) {}

  const KernelProgram &Program;
  std::vector<const BoundParams *> Tables;
  const uint32_t *Indices;
  int32_t Table;
};

} // namespace vm
} // namespace spnc

#endif // SPNC_VM_PARAMTABLE_H
