//===- Partitioner.cpp - Heuristic acyclic graph partitioning ----------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "partition/Partitioner.h"

#include "support/SmallVector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace spnc;
using namespace spnc::partition;

//===----------------------------------------------------------------------===//
// Graph
//===----------------------------------------------------------------------===//

Graph::Graph(uint32_t NumNodes, std::span<const Edge> Edges)
    : SuccBegin(NumNodes + 1, 0), Succ(Edges.size()),
      PredBegin(NumNodes + 1, 0), Pred(Edges.size()) {
  // Counting sort by endpoint; a stable fill keeps the edge order.
  for (const Edge &E : Edges) {
    assert(E.From < NumNodes && E.To < NumNodes && "edge out of range");
    ++SuccBegin[E.From + 1];
    ++PredBegin[E.To + 1];
  }
  for (uint32_t N = 0; N < NumNodes; ++N) {
    SuccBegin[N + 1] += SuccBegin[N];
    PredBegin[N + 1] += PredBegin[N];
  }
  std::vector<uint32_t> NextSucc(SuccBegin.begin(), SuccBegin.end() - 1);
  std::vector<uint32_t> NextPred(PredBegin.begin(), PredBegin.end() - 1);
  for (const Edge &E : Edges) {
    Succ[NextSucc[E.From]++] = E.To;
    Pred[NextPred[E.To]++] = E.From;
  }
}

//===----------------------------------------------------------------------===//
// DFS-like topological ordering
//===----------------------------------------------------------------------===//

std::vector<uint32_t>
spnc::partition::dfsTopologicalOrder(const Graph &TheGraph) {
  uint32_t NumNodes = TheGraph.getNumNodes();
  std::vector<uint32_t> Order;
  Order.reserve(NumNodes);
  std::vector<uint8_t> Emitted(NumNodes, 0);

  // Iterative post-order DFS from every sink (nodes without consumers).
  // Predecessors (producers) are visited before the node itself, so the
  // result is topological; the DFS discipline keeps subtrees contiguous,
  // matching the paper's adaptation for tree-like SPN DAGs.
  std::vector<std::pair<uint32_t, size_t>> Stack;
  std::vector<uint8_t> OnStack(NumNodes, 0);
  auto Visit = [&](uint32_t Root) {
    if (Emitted[Root] || OnStack[Root])
      return;
    Stack.emplace_back(Root, 0);
    OnStack[Root] = 1;
    while (!Stack.empty()) {
      auto &[Current, NextPred] = Stack.back();
      std::span<const uint32_t> Preds = TheGraph.predecessors(Current);
      if (NextPred < Preds.size()) {
        uint32_t Pred = Preds[NextPred++];
        if (!Emitted[Pred] && !OnStack[Pred]) {
          Stack.emplace_back(Pred, 0);
          OnStack[Pred] = 1;
        }
        continue;
      }
      Order.push_back(Current);
      Emitted[Current] = 1;
      OnStack[Current] = 0;
      Stack.pop_back();
    }
  };

  for (uint32_t N = 0; N < NumNodes; ++N)
    if (TheGraph.successors(N).empty())
      Visit(N);
  // Defensive: cover nodes unreachable from any sink (cannot happen in an
  // acyclic graph, but keeps the function total on arbitrary inputs).
  for (uint32_t N = 0; N < NumNodes; ++N)
    Visit(N);
  return Order;
}

//===----------------------------------------------------------------------===//
// Cost model
//===----------------------------------------------------------------------===//

/// Cost of the value produced by \p N: one store if any consumer lives in
/// a different partition, plus one load per distinct consuming partition.
static uint64_t valueCost(const Graph &TheGraph, uint32_t N,
                          const std::vector<uint32_t> &Part) {
  uint32_t Own = Part[N];
  uint64_t Cost = 0;
  // Successor partition sets are tiny; avoid a hash set for the common
  // cases by collecting and deduplicating, inline.
  uint64_t Loads = 0;
  SmallVector<uint32_t, 8> External;
  for (uint32_t Succ : TheGraph.successors(N)) {
    uint32_t SuccPart = Part[Succ];
    if (SuccPart != Own &&
        std::find(External.begin(), External.end(), SuccPart) ==
            External.end()) {
      External.push_back(SuccPart);
      ++Loads;
    }
  }
  if (Loads > 0)
    Cost = 1 + Loads; // one store + one load per consuming partition
  return Cost;
}

uint64_t spnc::partition::communicationCost(const Graph &TheGraph,
                                            const Partitioning &Result) {
  uint64_t Cost = 0;
  for (uint32_t N = 0; N < TheGraph.getNumNodes(); ++N)
    Cost += valueCost(TheGraph, N, Result.NodeToPartition);
  return Cost;
}

bool spnc::partition::isAcyclicPartitioning(const Graph &TheGraph,
                                            const Partitioning &Result) {
  for (uint32_t N = 0; N < TheGraph.getNumNodes(); ++N)
    for (uint32_t Succ : TheGraph.successors(N))
      if (Result.NodeToPartition[Succ] < Result.NodeToPartition[N])
        return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Partitioning driver
//===----------------------------------------------------------------------===//

/// Refinement stops after this many sweeps even if the last one still
/// moved a node.
static constexpr unsigned kMaxRefinementSweeps = 10;

Partitioning
spnc::partition::partitionGraph(const Graph &TheGraph,
                                const PartitionOptions &Options) {
  assert(Options.MaxPartitionSize > 0 && "partition size must be positive");
  uint32_t NumNodes = TheGraph.getNumNodes();
  Partitioning Result;
  Result.NodeToPartition.assign(NumNodes, 0);
  if (NumNodes == 0) {
    Result.NumPartitions = 0;
    return Result;
  }

  // Initial partitioning: chop the DFS-like topological order into
  // consecutive chunks. Edges only point forward in a topological order,
  // so chunking preserves acyclicity by construction.
  std::vector<uint32_t> Order = dfsTopologicalOrder(TheGraph);
  uint32_t NumPartitions =
      (NumNodes + Options.MaxPartitionSize - 1) / Options.MaxPartitionSize;
  std::vector<uint32_t> PartitionSize(NumPartitions, 0);
  for (uint32_t I = 0; I < NumNodes; ++I) {
    uint32_t P = I / Options.MaxPartitionSize;
    Result.NodeToPartition[Order[I]] = P;
    ++PartitionSize[P];
  }
  Result.NumPartitions = NumPartitions;
  if (NumPartitions <= 1 || Options.Strategy == RefinementStrategy::None)
    return Result;

  // Refinement: greedily move nodes to another partition when that
  // reduces communication cost without violating the acyclicity or
  // (slacked) balance constraints. Simple Moves (the paper's choice)
  // only considers the two neighbouring partitions; Global Moves also
  // considers every feasible partition where the node has a producer or
  // consumer.
  const auto MaxAllowed = static_cast<uint32_t>(std::ceil(
      static_cast<double>(Options.MaxPartitionSize) * (1.0 + Options.Slack)));
  std::vector<uint32_t> &Part = Result.NodeToPartition;

  auto LocalCost = [&](uint32_t N) {
    uint64_t Cost = valueCost(TheGraph, N, Part);
    for (uint32_t Pred : TheGraph.predecessors(N))
      Cost += valueCost(TheGraph, Pred, Part);
    return Cost;
  };

  std::vector<uint32_t> Candidates;
  for (unsigned Sweep = 0; Sweep < kMaxRefinementSweeps; ++Sweep) {
    bool Improved = false;
    for (uint32_t N : Order) {
      uint32_t Current = Part[N];
      // Feasible partition range for N under the acyclicity invariant.
      uint32_t Low = 0;
      uint32_t High = NumPartitions - 1;
      for (uint32_t Pred : TheGraph.predecessors(N))
        Low = std::max(Low, Part[Pred]);
      for (uint32_t Succ : TheGraph.successors(N))
        High = std::min(High, Part[Succ]);

      Candidates.clear();
      auto AddCandidate = [&](uint32_t Target) {
        if (Target == Current || Target < Low || Target > High)
          return;
        if (PartitionSize[Target] + 1 > MaxAllowed)
          return;
        if (std::find(Candidates.begin(), Candidates.end(), Target) ==
            Candidates.end())
          Candidates.push_back(Target);
      };
      if (Current > 0)
        AddCandidate(Current - 1);
      if (Current + 1 < NumPartitions)
        AddCandidate(Current + 1);
      if (Options.Strategy == RefinementStrategy::GlobalMoves) {
        for (uint32_t Pred : TheGraph.predecessors(N))
          AddCandidate(Part[Pred]);
        for (uint32_t Succ : TheGraph.successors(N))
          AddCandidate(Part[Succ]);
      }

      // Greedy best-gain move among the candidates.
      uint64_t Before = LocalCost(N);
      uint64_t BestCost = Before;
      uint32_t BestTarget = Current;
      for (uint32_t Target : Candidates) {
        Part[N] = Target;
        uint64_t After = LocalCost(N);
        if (After < BestCost) {
          BestCost = After;
          BestTarget = Target;
        }
      }
      Part[N] = BestTarget;
      if (BestTarget != Current) {
        --PartitionSize[Current];
        ++PartitionSize[BestTarget];
        Improved = true;
      }
    }
    if (!Improved)
      break;
  }

  // Compact away partitions emptied by refinement, preserving order.
  std::vector<uint32_t> Remap(NumPartitions, 0);
  uint32_t Next = 0;
  for (uint32_t P = 0; P < NumPartitions; ++P)
    if (PartitionSize[P] > 0)
      Remap[P] = Next++;
  for (uint32_t N = 0; N < NumNodes; ++N)
    Part[N] = Remap[Part[N]];
  Result.NumPartitions = Next;
  return Result;
}
