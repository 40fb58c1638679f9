//===- partition_test.cpp - Acyclic graph partitioner tests --------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests for the heuristic acyclic partitioner (paper
/// §IV-A4): topological ordering, the acyclicity invariant, balance with
/// 1% slack, and cost non-regression of the Simple-Moves refinement —
/// swept over random DAGs with parameterized shapes.
///
//===----------------------------------------------------------------------===//

#include "partition/Partitioner.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

using namespace spnc;
using namespace spnc::partition;

namespace {

/// Random layered DAG resembling an SPN body: forward edges only.
Graph makeRandomDag(uint32_t NumNodes, double EdgeDensity,
                    uint64_t Seed) {
  std::vector<Edge> Edges;
  Rng R(Seed);
  for (uint32_t N = 1; N < NumNodes; ++N) {
    // Every non-source node consumes 1-3 earlier values.
    unsigned NumPreds = 1 + static_cast<unsigned>(R.uniformInt(3));
    for (unsigned P = 0; P < NumPreds; ++P) {
      uint32_t Pred = static_cast<uint32_t>(R.uniformInt(N));
      if (R.uniform() < EdgeDensity || P == 0)
        Edges.push_back({Pred, N});
    }
  }
  return Graph(NumNodes, Edges);
}

TEST(PartitionerTest, DfsOrderIsTopological) {
  Graph G = makeRandomDag(500, 0.8, 17);
  std::vector<uint32_t> Order = dfsTopologicalOrder(G);
  ASSERT_EQ(Order.size(), 500u);
  std::vector<uint32_t> Position(500);
  for (uint32_t I = 0; I < Order.size(); ++I)
    Position[Order[I]] = I;
  for (uint32_t N = 0; N < 500; ++N)
    for (uint32_t Succ : G.successors(N))
      EXPECT_LT(Position[N], Position[Succ]);
}

TEST(PartitionerTest, SingleChainStaysContiguous) {
  // In a chain, the DFS order must be the chain order, and chunks of
  // MaxPartitionSize follow it exactly.
  std::vector<Edge> Edges;
  for (uint32_t N = 0; N + 1 < 10; ++N)
    Edges.push_back({N, N + 1});
  Graph G(10, Edges);
  PartitionOptions Options;
  Options.MaxPartitionSize = 4;
  Partitioning Result = partitionGraph(G, Options);
  EXPECT_EQ(Result.NumPartitions, 3u);
  for (uint32_t N = 0; N + 1 < 10; ++N)
    EXPECT_LE(Result[N], Result[N + 1]);
  EXPECT_TRUE(isAcyclicPartitioning(G, Result));
}

TEST(PartitionerTest, SinglePartitionWhenGraphFits) {
  Graph G = makeRandomDag(100, 0.5, 3);
  PartitionOptions Options;
  Options.MaxPartitionSize = 1000;
  Partitioning Result = partitionGraph(G, Options);
  EXPECT_EQ(Result.NumPartitions, 1u);
  EXPECT_EQ(communicationCost(G, Result), 0u);
}

TEST(PartitionerTest, EmptyGraph) {
  Graph G(0, {});
  Partitioning Result = partitionGraph(G, PartitionOptions());
  EXPECT_EQ(Result.NumPartitions, 0u);
  EXPECT_TRUE(isAcyclicPartitioning(G, Result));
}

TEST(PartitionerTest, CostModelCountsStoresAndLoads) {
  // 0 -> {1, 2}; put 0 alone in partition 0, 1 and 2 in partition 1:
  // one store + one load = 2. With 2 in its own partition 2: one store +
  // two loads = 3.
  std::vector<Edge> Edges = {{0, 1}, {0, 2}};
  Graph G(3, Edges);
  Partitioning Result;
  Result.NodeToPartition = {0, 1, 1};
  Result.NumPartitions = 2;
  EXPECT_EQ(communicationCost(G, Result), 2u);
  Result.NodeToPartition = {0, 1, 2};
  Result.NumPartitions = 3;
  EXPECT_EQ(communicationCost(G, Result), 3u);
  // All in one partition: no communication.
  Result.NodeToPartition = {0, 0, 0};
  Result.NumPartitions = 1;
  EXPECT_EQ(communicationCost(G, Result), 0u);
}

TEST(PartitionerTest, RefinementDoesNotIncreaseCost) {
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    Graph G = makeRandomDag(2000, 0.7, Seed);
    PartitionOptions NoRefine;
    NoRefine.MaxPartitionSize = 150;
    NoRefine.EnableRefinement = false;
    PartitionOptions Simple = NoRefine;
    Simple.EnableRefinement = true;
    PartitionOptions Global = Simple;
    Global.Strategy = RefinementStrategy::GlobalMoves;

    uint64_t CostBefore =
        communicationCost(G, partitionGraph(G, NoRefine));
    uint64_t CostSimple =
        communicationCost(G, partitionGraph(G, Simple));
    uint64_t CostGlobal =
        communicationCost(G, partitionGraph(G, Global));
    EXPECT_LE(CostSimple, CostBefore) << "seed " << Seed;
    EXPECT_LE(CostGlobal, CostBefore) << "seed " << Seed;
  }
}

TEST(PartitionerTest, GlobalMovesKeepsInvariants) {
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    Graph G = makeRandomDag(3000, 0.6, Seed);
    PartitionOptions Options;
    Options.MaxPartitionSize = 200;
    Options.Strategy = RefinementStrategy::GlobalMoves;
    Partitioning Result = partitionGraph(G, Options);
    EXPECT_TRUE(isAcyclicPartitioning(G, Result));
    std::vector<uint32_t> Sizes(Result.NumPartitions, 0);
    for (uint32_t N = 0; N < 3000; ++N)
      ++Sizes[Result[N]];
    auto MaxAllowed = static_cast<uint32_t>(
        std::ceil(200.0 * (1.0 + Options.Slack)));
    for (uint32_t Size : Sizes)
      EXPECT_LE(Size, MaxAllowed);
  }
}

/// Property sweep over DAG shapes and partition sizes.
class PartitionPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(PartitionPropertyTest, InvariantsHold) {
  auto [NumNodes, MaxSize] = GetParam();
  for (uint64_t Seed = 10; Seed < 13; ++Seed) {
    Graph G = makeRandomDag(NumNodes, 0.6, Seed);
    PartitionOptions Options;
    Options.MaxPartitionSize = MaxSize;
    Partitioning Result = partitionGraph(G, Options);

    // Acyclicity: edges only point to equal-or-later partitions.
    EXPECT_TRUE(isAcyclicPartitioning(G, Result));

    // Every node has a valid partition id.
    ASSERT_EQ(Result.NodeToPartition.size(), NumNodes);
    std::vector<uint32_t> Sizes(Result.NumPartitions, 0);
    for (uint32_t N = 0; N < NumNodes; ++N) {
      ASSERT_LT(Result[N], Result.NumPartitions);
      ++Sizes[Result[N]];
    }

    // Balance: within MaxSize plus the 1% slack.
    auto MaxAllowed = static_cast<uint32_t>(
        std::ceil(static_cast<double>(MaxSize) * (1.0 + Options.Slack)));
    for (uint32_t Size : Sizes) {
      EXPECT_GT(Size, 0u); // compacted: no empty partitions
      EXPECT_LE(Size, MaxAllowed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionPropertyTest,
    ::testing::Values(std::make_tuple(50u, 10u),
                      std::make_tuple(500u, 50u),
                      std::make_tuple(500u, 499u),
                      std::make_tuple(3000u, 250u),
                      std::make_tuple(3000u, 1000u),
                      std::make_tuple(10000u, 1000u)));

TEST(PartitionerTest, TreeShapedDagKeepsSubtreesTogether) {
  // Binary in-tree: node N feeds node (N-1)/2; leaves are the second
  // half. The DFS-like order should make most edges intra-partition.
  const uint32_t NumNodes = 1023;
  std::vector<Edge> Edges;
  for (uint32_t N = 1; N < NumNodes; ++N)
    Edges.push_back({N, (N - 1) / 2});
  Graph G(NumNodes, Edges);
  PartitionOptions Options;
  Options.MaxPartitionSize = 128;
  Partitioning Result = partitionGraph(G, Options);
  EXPECT_TRUE(isAcyclicPartitioning(G, Result));
  // At most one crossing per partition boundary region: the cost must be
  // far below the edge count (1022).
  EXPECT_LT(communicationCost(G, Result), 100u);
}

} // namespace
