//===- bench_ablations.cpp - Ablations of the design choices ---------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation study of the design choices DESIGN.md calls out (beyond the
/// paper's own figures):
///
///  * buffer-copy avoidance in bufferization (paper §IV-A5);
///  * Simple-Moves refinement in the graph partitioner (paper §IV-A4);
///  * GPU buffer-transfer elimination (paper §IV-C);
///  * the O2 chain-collapse peephole (this reproduction's stand-in for
///    LLVM's mid-level optimizations).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "partition/Partitioner.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

using namespace spnc;
using namespace spnc::bench;
using namespace spnc::runtime;

namespace {

const spn::Model &ratModel() {
  static spn::Model Model =
      workloads::generateRatSpn(ratSpnBenchScale(), 0);
  return Model;
}

const std::vector<double> &imageData() {
  static std::vector<double> Data = workloads::generateImageData(
      ratSpnBenchScale().NumFeatures, 10, 512, 9, nullptr);
  return Data;
}

double execSeconds(const CompilerOptions &Options,
                   gpusim::GpuExecutionStats *Stats = nullptr) {
  Expected<CompiledKernel> Kernel =
      compileModel(ratModel(), spn::QueryConfig(), Options);
  if (!Kernel)
    return -1;
  size_t NumSamples =
      imageData().size() / ratSpnBenchScale().NumFeatures;
  std::vector<double> Output(NumSamples);
  runtime::ExecutionStats ExecStats;
  Kernel->execute(imageData().data(), Output.data(), NumSamples,
                  &ExecStats);
  if (ExecStats.HasGpuStats) {
    if (Stats)
      *Stats = ExecStats.Gpu;
    return static_cast<double>(ExecStats.Gpu.totalNs()) * 1e-9;
  }
  return static_cast<double>(ExecStats.WallNs) * 1e-9;
}

void BM_Ablation(benchmark::State &State) {
  for (auto _ : State) {
  }
}
BENCHMARK(BM_Ablation)->Iterations(1);

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printHeader("Ablations", "design-choice ablations (RAT-SPN class)");

  // 1. Buffer-copy avoidance (CPU, partitioned).
  {
    CompilerOptions With;
    With.OptLevel = 2;
    With.MaxPartitionSize = 2000;
    CompilerOptions Without = With;
    Without.AvoidBufferCopies = false;
    std::printf("copy avoidance      : with %8.3f ms   without %8.3f "
                "ms\n",
                execSeconds(With) * 1e3, execSeconds(Without) * 1e3);
  }

  // 2. Partitioner refinement: communication cost on random DAGs.
  {
    std::vector<partition::Edge> Edges;
    Rng R(3);
    for (uint32_t N = 1; N < 20000; ++N)
      for (unsigned P = 0; P < 2; ++P)
        Edges.push_back({static_cast<uint32_t>(R.uniformInt(N)), N});
    partition::Graph G(20000, Edges);
    partition::PartitionOptions NoRefine;
    NoRefine.MaxPartitionSize = 1500;
    NoRefine.Strategy = partition::RefinementStrategy::None;
    partition::PartitionOptions Refine = NoRefine;
    Refine.Strategy = partition::RefinementStrategy::SimpleMoves;
    partition::PartitionOptions Global = NoRefine;
    Global.Strategy = partition::RefinementStrategy::GlobalMoves;
    uint64_t CostBefore =
        communicationCost(G, partitionGraph(G, NoRefine));
    uint64_t CostSimple =
        communicationCost(G, partitionGraph(G, Refine));
    uint64_t CostGlobal =
        communicationCost(G, partitionGraph(G, Global));
    std::printf("refinement          : none %lu   simple-moves %lu "
                "(-%.1f%%)   global-moves %lu (-%.1f%%)\n",
                static_cast<unsigned long>(CostBefore),
                static_cast<unsigned long>(CostSimple),
                100.0 * (1.0 - static_cast<double>(CostSimple) /
                                   static_cast<double>(CostBefore)),
                static_cast<unsigned long>(CostGlobal),
                100.0 * (1.0 - static_cast<double>(CostGlobal) /
                                   static_cast<double>(CostBefore)));
  }

  // 3. GPU transfer elimination.
  {
    CompilerOptions With;
    With.OptLevel = 2;
    With.TheTarget = Target::GPU;
    With.GpuBlockSize = 64;
    With.MaxPartitionSize = 2000;
    CompilerOptions Without = With;
    Without.GpuTransferElimination = false;
    gpusim::GpuExecutionStats StatsWith, StatsWithout;
    double SecondsWith = execSeconds(With, &StatsWith);
    double SecondsWithout = execSeconds(Without, &StatsWithout);
    std::printf("gpu transfer elim.  : with %8.3f ms (%u transfers)   "
                "without %8.3f ms (%u transfers)\n",
                SecondsWith * 1e3, StatsWith.NumTransfers,
                SecondsWithout * 1e3, StatsWithout.NumTransfers);
  }

  // 4. Chain collapse (the O1 -> O2 step).
  {
    CompilerOptions O1;
    O1.OptLevel = 1;
    O1.MaxPartitionSize = 5000;
    CompilerOptions O2 = O1;
    O2.OptLevel = 2;
    std::printf("chain collapse (O2) : without %8.3f ms   with %8.3f "
                "ms\n",
                execSeconds(O1) * 1e3, execSeconds(O2) * 1e3);
  }
  benchmark::Shutdown();
  return 0;
}
