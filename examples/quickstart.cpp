//===- quickstart.cpp - Minimal end-to-end SPNC example -------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: build a small Sum-Product Network with the SPFlow-like
/// model API, compile it for the CPU through the kernel cache (the C++
/// analog of the paper's single-API-call Python interface, in the
/// compile-once/run-many regime), and run joint and marginal inference
/// on a few samples with per-call execution statistics.
///
/// Build & run:
///   cmake -B build -G Ninja && ninja -C build example_quickstart
///   ./build/examples/example_quickstart
///
//===----------------------------------------------------------------------===//

#include "runtime/Compiler.h"
#include "runtime/KernelCache.h"

#include <cmath>
#include <cstdio>

using namespace spnc;
using namespace spnc::runtime;

int main() {
  // 1. Construct an SPN over two features: a mixture of two
  //    factorizations (the structure of the paper's Fig. 1 example).
  //    Feature 0 is continuous (Gaussian leaves), feature 1 is discrete
  //    (categorical leaves).
  spn::Model Model(/*NumFeatures=*/2, "quickstart");
  spn::Node *G0 = Model.makeGaussian(0, /*Mean=*/-1.0, /*StdDev=*/0.8);
  spn::Node *G1 = Model.makeGaussian(0, /*Mean=*/2.0, /*StdDev=*/1.5);
  spn::Node *C0 = Model.makeCategorical(1, {0.7, 0.2, 0.1});
  spn::Node *C1 = Model.makeCategorical(1, {0.1, 0.3, 0.6});
  spn::Node *P0 = Model.makeProduct({G0, C0});
  spn::Node *P1 = Model.makeProduct({G1, C1});
  Model.setRoot(Model.makeSum({P0, P1}, {0.4, 0.6}));

  // Validity checks: completeness/smoothness and decomposability.
  std::string Error;
  if (!Model.validate(&Error)) {
    std::fprintf(stderr, "invalid model: %s\n", Error.c_str());
    return 1;
  }

  // 2. Compile a joint-probability query for the CPU. The query computes
  //    in log-space (f32) and supports marginalized evidence. Going
  //    through the kernel cache makes this compile-once/run-many: a
  //    second request with the same model + query + options returns the
  //    already-compiled kernel.
  spn::QueryConfig Query;
  Query.LogSpace = true;
  Query.SupportMarginal = true;
  CompilerOptions Options;
  Options.OptLevel = 2;
  Options.Execution.VectorWidth = 8; // SIMD over 8 samples

  KernelCache Cache;
  CompileStats Stats;
  Expected<CompiledKernel> Kernel =
      Cache.getOrCompile(Model, Query, Options, &Stats);
  if (!Kernel) {
    std::fprintf(stderr, "compilation failed: %s\n",
                 Kernel.getError().message().c_str());
    return 1;
  }
  std::printf("compiled %zu task(s), %zu instructions in %.2f ms "
              "(engine: %s)\n",
              Stats.NumTasks, Stats.NumInstructions,
              static_cast<double>(Stats.TotalNs) * 1e-6,
              Kernel->getEngine().describe().c_str());

  // The same request again is a cache hit — no recompilation.
  Expected<CompiledKernel> Again =
      Cache.getOrCompile(Model, Query, Options);
  if (Again) {
    KernelCache::Stats CacheStats = Cache.getStats();
    std::printf("kernel cache: %llu hit(s), %llu miss(es)\n",
                static_cast<unsigned long long>(CacheStats.Hits),
                static_cast<unsigned long long>(CacheStats.Misses));
  }

  // 3. Run inference. NaN marks a marginalized feature; the per-call
  //    statistics report the wall clock of this execution.
  const double NaN = std::nan("");
  double Samples[4][2] = {
      {-1.0, 0.0}, // near the first mixture component
      {2.5, 2.0},  // near the second
      {0.5, 1.0},  // in between
      {NaN, 2.0},  // feature 0 marginalized out
  };
  double LogLikelihoods[4];
  ExecutionStats ExecStats;
  Kernel->execute(&Samples[0][0], LogLikelihoods, 4, &ExecStats);
  std::printf("executed %zu samples in %.1f us\n", ExecStats.NumSamples,
              static_cast<double>(ExecStats.WallNs) * 1e-3);

  for (int I = 0; I < 4; ++I) {
    double Reference = Model.evalLogLikelihood(
        std::span<const double>(Samples[I], 2));
    std::printf("sample %d: log P = %9.5f  (reference %9.5f)\n", I,
                LogLikelihoods[I], Reference);
  }
  return 0;
}
