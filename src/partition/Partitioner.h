//===- Partitioner.h - Heuristic acyclic graph partitioning ------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Acyclic graph partitioning for splitting very large LoSPN tasks (paper
/// §IV-A4), based on the heuristic of Moreira et al. [10] with the paper's
/// adaptations:
///
///  * the initial ordering is a DFS-like topological order (a node is
///    emitted as soon as all of its children have been processed), which
///    suits the tree-like, root-tapering shape of SPN DAGs better than a
///    random topological order;
///  * partition balancing allows 1% slack;
///  * the cost model reflects buffer communication: a value crossing
///    partitions is stored once in the producing task and loaded once in
///    every consuming task (instead of unit cost per edge);
///  * refinement uses the lightweight Simple-Moves heuristic restricted
///    to moves between neighbouring partitions.
///
/// The resulting partitioning is acyclic: every edge points from a
/// partition to one with an equal-or-higher index, so tasks can execute
/// in partition order.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_PARTITION_PARTITIONER_H
#define SPNC_PARTITION_PARTITIONER_H

#include <cstdint>
#include <span>
#include <vector>

namespace spnc {
namespace partition {

/// A dependence edge: \p To consumes the value produced by \p From.
struct Edge {
  uint32_t From;
  uint32_t To;
};

/// Dependence graph to partition, in compressed-sparse-row form. Node
/// u -> v means v consumes the value produced by u (u must execute in
/// the same or an earlier partition).
class Graph {
public:
  /// Builds the graph over \p NumNodes nodes from \p Edges (duplicate
  /// edges allowed; they do not change the cost model). Every node's
  /// successor and predecessor lists keep the order of \p Edges.
  Graph(uint32_t NumNodes, std::span<const Edge> Edges);

  uint32_t getNumNodes() const {
    return static_cast<uint32_t>(SuccBegin.size() - 1);
  }

  std::span<const uint32_t> successors(uint32_t N) const {
    return {Succ.data() + SuccBegin[N], Succ.data() + SuccBegin[N + 1]};
  }
  std::span<const uint32_t> predecessors(uint32_t N) const {
    return {Pred.data() + PredBegin[N], Pred.data() + PredBegin[N + 1]};
  }

private:
  /// The successors of N are Succ[SuccBegin[N] .. SuccBegin[N + 1]);
  /// likewise for predecessors.
  std::vector<uint32_t> SuccBegin, Succ, PredBegin, Pred;
};

/// Refinement strategy applied after the initial partitioning.
enum class RefinementStrategy {
  /// No refinement (ablation baseline).
  None,
  /// The paper's choice: moves between directly neighbouring partitions
  /// only — lightweight, small compile-time impact (paper §IV-A4).
  SimpleMoves,
  /// Extension: additionally consider moving a node into any feasible
  /// partition where it already has a producer or consumer. Finds more
  /// cut reductions at slightly higher compile time.
  GlobalMoves,
};

struct PartitionOptions {
  /// Maximum number of graph nodes per partition (user-controllable,
  /// Figs. 10/12 sweep this).
  uint32_t MaxPartitionSize = 10000;
  /// Allowed balance slack: a partition may exceed MaxPartitionSize by
  /// this factor during refinement (paper: 1%).
  double Slack = 0.01;
  RefinementStrategy Strategy = RefinementStrategy::SimpleMoves;
};

/// Result of partitioning: a partition index per node.
struct Partitioning {
  std::vector<uint32_t> NodeToPartition;
  uint32_t NumPartitions = 0;

  uint32_t operator[](uint32_t Node) const {
    return NodeToPartition[Node];
  }
};

/// Partitions \p TheGraph (which must be acyclic) under \p Options.
Partitioning partitionGraph(const Graph &TheGraph,
                            const PartitionOptions &Options);

/// Communication cost of \p Result under the paper's store-once/load-once
/// model: one store per value consumed outside its partition plus one
/// load per (value, consuming partition) pair.
uint64_t communicationCost(const Graph &TheGraph,
                           const Partitioning &Result);

/// True if every edge points from its partition to an equal-or-higher
/// partition index (the acyclicity invariant).
bool isAcyclicPartitioning(const Graph &TheGraph,
                           const Partitioning &Result);

/// Returns a topological order of \p TheGraph in the paper's DFS-like
/// flavour: a node is appended once all of its predecessors have been
/// emitted, preferring to continue from the most recently emitted node so
/// subtrees stay contiguous. Exposed for testing.
std::vector<uint32_t> dfsTopologicalOrder(const Graph &TheGraph);

} // namespace partition
} // namespace spnc

#endif // SPNC_PARTITION_PARTITIONER_H
