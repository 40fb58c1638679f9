//===- Merge.h - Structural model merging ------------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural-isomorphism analysis over `spn::Model` for merged-model
/// compilation (docs/merging.md). A fleet of per-user fine-tuned SPNs
/// typically shares one template structure: the models differ only in
/// sum weights and leaf distribution parameters. This header provides
///
///  * a canonical **structural signature** — the sequence of 64-bit
///    items produced by walking the model in deterministic topological
///    order and recording node kinds, child wiring, leaf families and
///    scopes, histogram bucket bounds and categorical cardinalities,
///    while excluding every tunable parameter (sum weights, bucket
///    masses, category probabilities, Gaussian mean/stddev);
///  * the **structural hash** (a stable XXH64 over the signature) and
///    the pairwise isomorphism check (signature equality);
///  * the **canonical parameter vector** `extractParams`, which lists a
///    model's tunable parameters in the exact order the compiler assigns
///    weight-table indices — so any member of a merge group can be bound
///    to the group's shared kernel by table substitution alone;
///  * `MergeGroup` discovery over a set of models and per-model
///    structure counts for `spnc-cli --model-info`.
///
/// Two models with equal signatures traverse identically during HiSPN
/// translation (which consumes the same topological walk), so they lower
/// to programs of identical shape; that is the invariant the kernel
/// cache's structural key for joint/marginal kernels builds on.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_MERGE_MERGE_H
#define SPNC_MERGE_MERGE_H

#include "frontend/Model.h"
#include "support/Expected.h"

#include <cstdint>
#include <span>
#include <vector>

namespace spnc {
namespace merge {

/// The canonical structural signature of a model: position-wise items of
/// the deterministic topological walk, parameters excluded. Equality is
/// exactly structural isomorphism (in the merged-compilation sense: the
/// two models lower to programs of identical shape).
struct StructuralSignature {
  std::vector<uint64_t> Items;

  bool operator==(const StructuralSignature &Other) const = default;
};

/// Computes the structural signature of \p Model. Thread-safe; the model
/// must not be mutated concurrently.
StructuralSignature structuralSignature(const spn::Model &Model);

/// Stable 64-bit hash of the structural signature (XXH64 over the item
/// bytes, support/Hashing.h); weight-only or leaf-parameter-only edits
/// never change it. Suitable as a disk-cache key component: every input
/// bit reaches every output bit, so two structures that differ anywhere
/// collide only by chance. Thread-safe.
uint64_t structuralHash(const spn::Model &Model);

/// structuralHash over \p Order, the model's `topologicalOrder()`, for
/// callers that walk the model once for several purposes.
uint64_t structuralHash(const spn::Model &Model,
                        std::span<spn::Node *const> Order);

/// True when \p A and \p B have equal structural signatures, i.e. they
/// can share one kernel. Thread-safe.
bool isStructurallyIsomorphic(const spn::Model &A, const spn::Model &B);

/// The model's tunable parameters in canonical order: walking the
/// topological order, a Sum node contributes its weights in child order,
/// a Histogram leaf its bucket masses, a Categorical leaf its category
/// probabilities, and a Gaussian leaf (mean, stddev). This is the order
/// the lowering assigns weight-table indices, and the raw layout
/// `ExecutionEngine::addParamTable` consumes. Every node's parameters are
/// checked on the way (spn::checkNodeParams); the first invalid one
/// fails the extraction. Thread-safe.
Expected<std::vector<double>> extractParams(const spn::Model &Model);

/// extractParams over \p Order, a model's `topologicalOrder()`.
Expected<std::vector<double>> extractParams(std::span<spn::Node *const> Order);

/// Structure counters for merge-group debugging (`--model-info`).
struct ModelCounts {
  size_t NumNodes = 0;
  size_t NumEdges = 0;
  size_t NumSums = 0;
  size_t NumProducts = 0;
  size_t NumLeaves = 0;
  /// Size of the canonical parameter vector.
  size_t NumParams = 0;
};

/// Counts nodes, edges, leaves and parameters reachable from the root.
/// Thread-safe.
ModelCounts countModel(const spn::Model &Model);

/// One group of structurally-isomorphic models.
struct MergeGroup {
  /// The group's structural hash (shared by every member).
  uint64_t Hash = 0;
  /// Indices into the input span, in input order. Singleton groups are
  /// reported too — the caller decides whether merging a single model is
  /// worthwhile.
  std::vector<size_t> Members;
};

/// Partitions \p Models into merge groups by structural signature
/// (full signature comparison, not just the hash). Groups are ordered by
/// first appearance; members keep input order. Null entries are skipped.
std::vector<MergeGroup>
discoverMergeGroups(std::span<const spn::Model *const> Models);

} // namespace merge
} // namespace spnc

#endif // SPNC_MERGE_MERGE_H
