//===- ParamTable.h - Weight-table binding for parameterized programs ---------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Merged-model compilation (docs/merging.md): a parameterized
/// `KernelProgram` carries `ParamSite` records describing which
/// side-table slots hold tunable model parameters (sum weights, leaf
/// distribution parameters) and how the raw parameter is transformed
/// before it lands in the slot. Binding a weight table produces a copy
/// of the program whose side tables are rewritten for another
/// structurally-isomorphic model — the instruction stream, buffer plan
/// and register assignment are shared untouched.
///
/// The transforms reproduce the code generator's constant folding
/// bit-for-bit (same formulas, same literals — see vm::kLogSqrt2Pi), so
/// binding the generating model's own raw parameters yields exactly the
/// baked tables. `verifySelfBinding` checks that invariant; the kernel
/// cache runs it after every fresh parameterized compile.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_VM_PARAMTABLE_H
#define SPNC_VM_PARAMTABLE_H

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

/// Applies \p Transform to a raw model parameter, mirroring codegen.
double transformParam(ParamTransform Transform, double Raw);

/// Rewrites the side tables of \p Task in place according to its
/// parameter sites. \p Raw is the canonical parameter vector
/// (merge::extractParams order) of the model to bind.
void bindTaskParams(TaskProgram &Task, std::span<const double> Raw);

/// Returns a copy of \p Program with every parameter site rebound to
/// \p Raw. \p Program must be parameterized and Raw.size() must equal
/// Program.NumParams (asserted).
KernelProgram bindParams(const KernelProgram &Program,
                         std::span<const double> Raw);

/// True when rebinding \p Program with \p Raw (the raw parameters of the
/// model it was generated from) reproduces its own baked side tables
/// bit-for-bit. A failure means the program shape depends on parameter
/// values somewhere — the merged path must not be used. On failure a
/// description is written to \p Why when provided.
bool verifySelfBinding(const KernelProgram &Program,
                       std::span<const double> Raw,
                       std::string *Why = nullptr);

/// Flattens the tunable-bearing side tables of one task into a dense
/// double block: ConstPool, then (Mean, InvStdDev, Coefficient) per
/// Gaussian, then each lookup table's Values, then each select's Value.
/// The C++ backend indexes its per-model parameter blocks with this
/// exact layout (CppEmitter computes the matching offsets).
std::vector<double> flattenTaskTables(const TaskProgram &Task);

/// The weight tables registered on one engine, each bound once into the
/// engine's own form \p Bound (a rebound program for the VM, a flattened
/// parameter block for the cpp backend). Registration deduplicates by
/// content, so a model re-registered after a cache hit gets its old
/// index back, and may run concurrently with resolve().
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

  /// The bound tables by index, or nullopt when one of the \p NumRows
  /// \p Indices names no registered table. The pointees never move, so
  /// the snapshot stays valid while later tables are added.
  std::optional<std::vector<const Bound *>>
  resolve(const uint32_t *Indices, size_t NumRows) const {
    std::vector<const Bound *> Tables;
    {
      std::shared_lock<std::shared_mutex> Lock(Mutex);
      Tables.reserve(BoundTables.size());
      for (const std::unique_ptr<const Bound> &Table : BoundTables)
        Tables.push_back(Table.get());
    }
    for (size_t I = 0; I < NumRows; ++I)
      if (Indices[I] >= Tables.size())
        return std::nullopt;
    return Tables;
  }

private:
  mutable std::shared_mutex Mutex;
  std::vector<std::vector<double>> RawTables;
  std::vector<std::unique_ptr<const Bound>> BoundTables;
};

/// Calls \p Fn(Begin, End, Index) for each maximal run [Begin, End) of
/// the \p NumRows rows that share one table index.
template <typename RunFn>
void forEachTableRun(const uint32_t *Indices, size_t NumRows, RunFn &&Fn) {
  for (size_t Begin = 0; Begin < NumRows;) {
    size_t End = Begin + 1;
    while (End < NumRows && Indices[End] == Indices[Begin])
      ++End;
    Fn(Begin, End, Indices[Begin]);
    Begin = End;
  }
}

} // namespace vm
} // namespace spnc

#endif // SPNC_VM_PARAMTABLE_H
