//===- ratspn_classification.cpp - Paper application 2 ---------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's second application (§V-B): image classification with
/// Random Tensorized SPNs (Peharz et al.). Ten per-class RAT-SPNs share a
/// random structure and differ in their parameters; an image is assigned
/// to the class whose SPN yields the highest log-likelihood. The large
/// DAGs exercise graph partitioning — this example shows how the
/// partition-size knob trades compile time for execution time, and runs
/// the classifier on both the CPU and the simulated GPU. All kernels go
/// through a KernelCache, so a configuration compiled during the sweep
/// is reused by the classification run instead of being recompiled.
///
//===----------------------------------------------------------------------===//

#include "runtime/Compiler.h"
#include "runtime/KernelCache.h"
#include "support/Timer.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <vector>

using namespace spnc;
using namespace spnc::runtime;

int main() {
  workloads::RatSpnOptions Options = workloads::ratSpnSmallScale();
  Options.PrototypeSeed = 7; // "trained" on the class distributions below
  constexpr unsigned kNumClasses = 10;
  constexpr size_t kNumImages = 300;

  std::printf("generating %u per-class RAT-SPNs...\n", kNumClasses);
  std::vector<spn::Model> Classes;
  for (unsigned Class = 0; Class < kNumClasses; ++Class)
    Classes.push_back(workloads::generateRatSpn(Options, Class));
  spn::ModelStats Stats = Classes[0].computeStats();
  std::printf("per-class model: %zu nodes (%zu sums, %zu products, %zu "
              "leaves)\n",
              Stats.NumNodes, Stats.NumSums, Stats.NumProducts,
              Stats.NumLeaves);

  std::vector<unsigned> Labels;
  std::vector<double> Images = workloads::generateImageData(
      Options.NumFeatures, kNumClasses, kNumImages, 7, &Labels);

  // The compile-time / execution-time trade-off of §V-B1: sweep the
  // maximum partition size on one class.
  // One kernel cache serves the whole program: the partition sweep and
  // the classification runs share compiled kernels by (model, query,
  // configuration) key.
  KernelCache Cache;

  std::printf("\npartition-size trade-off (class 0):\n");
  for (uint32_t MaxSize : {1000u, 5000u, 20000u}) {
    CompilerOptions Compile;
    Compile.OptLevel = 2;
    Compile.MaxPartitionSize = MaxSize;
    Compile.Execution.VectorWidth = 8;
    CompileStats CStats;
    Expected<CompiledKernel> Kernel = Cache.getOrCompile(
        Classes[0], spn::QueryConfig(), Compile, &CStats);
    if (!Kernel)
      return 1;
    std::vector<double> Scores(kNumImages);
    Timer T;
    Kernel->execute(Images.data(), Scores.data(), kNumImages);
    std::printf("  max partition %6u: compile %6.0f ms, %2zu tasks, "
                "exec %7.1f ms\n",
                MaxSize, static_cast<double>(CStats.TotalNs) * 1e-6,
                CStats.NumTasks, T.elapsedSeconds() * 1e3);
  }

  // Full classification on CPU and simulated GPU. The class-0 CPU
  // kernel at max partition 5000 was already compiled by the sweep
  // above — the cache returns it without recompiling.
  for (Target TheTarget : {Target::CPU, Target::GPU}) {
    CompilerOptions Compile;
    Compile.OptLevel = 2;
    Compile.MaxPartitionSize = 5000;
    Compile.TheTarget = TheTarget;
    Compile.Execution.VectorWidth = 8;
    if (TheTarget == Target::GPU)
      Compile.GpuBlockSize = 64;

    std::vector<CompiledKernel> Kernels;
    for (const spn::Model &Model : Classes) {
      Expected<CompiledKernel> Kernel =
          Cache.getOrCompile(Model, spn::QueryConfig(), Compile);
      if (!Kernel)
        return 1;
      Kernels.push_back(Kernel.takeValue());
    }

    std::vector<std::vector<double>> Scores(
        kNumClasses, std::vector<double>(kNumImages));
    Timer T;
    double SimSeconds = 0;
    for (unsigned Class = 0; Class < kNumClasses; ++Class) {
      runtime::ExecutionStats Stats;
      Kernels[Class].execute(Images.data(), Scores[Class].data(),
                             kNumImages, &Stats);
      if (Stats.HasGpuStats)
        SimSeconds += static_cast<double>(Stats.Gpu.totalNs()) * 1e-9;
    }
    double Seconds =
        TheTarget == Target::GPU ? SimSeconds : T.elapsedSeconds();

    size_t Correct = 0;
    for (size_t I = 0; I < kNumImages; ++I) {
      unsigned Best = 0;
      for (unsigned Class = 1; Class < kNumClasses; ++Class)
        if (Scores[Class][I] > Scores[Best][I])
          Best = Class;
      Correct += Best == Labels[I];
    }
    std::printf("\n%s: classified %zu images in %.3f s%s, accuracy "
                "%.1f%%\n",
                TheTarget == Target::CPU ? "CPU (vectorized)"
                                         : "GPU (simulated)",
                kNumImages, Seconds,
                TheTarget == Target::GPU ? " [simulated clock]" : "",
                100.0 * static_cast<double>(Correct) /
                    static_cast<double>(kNumImages));
  }

  KernelCache::Stats CacheStats = Cache.getStats();
  std::printf("\nkernel cache: %llu hit(s), %llu compile(s) for %zu "
              "resident kernels\n",
              static_cast<unsigned long long>(CacheStats.Hits),
              static_cast<unsigned long long>(CacheStats.Recompiles),
              Cache.size());
  return 0;
}
