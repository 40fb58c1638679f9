//===- bench_ratspn_classify.cpp - Paper §V-B2 reproduction ----------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the RAT-SPN classification comparison of paper §V-B2:
/// classifying images with ten per-class RAT-SPNs (argmax of the class
/// log-likelihoods). The paper reports, for 10000 MNIST images:
///   TF GPU 0.427 s | SPNC CPU 0.444 s | SPNC GPU 1.299 s | TF CPU 1.72 s
/// i.e. the compiled CPU executables are on par with Tensorflow on a GPU
/// and clearly ahead of Tensorflow on the CPU, while the GPU path pays
/// for ten separate kernel sequences with their transfers. We reproduce
/// the comparison against the op-at-a-time TF-CPU-equivalent baseline
/// (no native TF-GPU exists here) and the SPNC CPU/GPU relation.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "backend/BackendRegistry.h"
#include "runtime/KernelCache.h"

#include <benchmark/benchmark.h>

#include <cstring>

using namespace spnc;
using namespace spnc::bench;
using namespace spnc::runtime;

namespace {

struct Workload {
  std::vector<spn::Model> Classes;
  std::vector<double> Data;
  std::vector<unsigned> Labels;
  size_t NumSamples = 0;
  unsigned NumFeatures = 0;
};

/// Shared kernel cache: kernels compiled by the google-benchmark loop
/// are reused by the report in main() (same model/query/options key).
KernelCache &kernelCache() {
  static KernelCache Cache;
  return Cache;
}

const Workload &workload() {
  static Workload W = [] {
    Workload Result;
    workloads::RatSpnOptions Options = ratSpnBenchScale();
    Options.PrototypeSeed = 42; // fitted to the image distribution below
    Result.NumFeatures = Options.NumFeatures;
    for (unsigned Class = 0; Class < 10; ++Class)
      Result.Classes.push_back(
          workloads::generateRatSpn(Options, Class));
    Result.NumSamples = imageCount();
    Result.Data = workloads::generateImageData(
        Options.NumFeatures, 10, Result.NumSamples, 42,
        &Result.Labels);
    return Result;
  }();
  return W;
}

/// Classifies with per-class scores filled by Score(class, out-buffer);
/// returns (seconds, accuracy).
template <typename ScoreFn>
std::pair<double, double> classify(ScoreFn &&Score) {
  const Workload &W = workload();
  std::vector<std::vector<double>> Scores(
      10, std::vector<double>(W.NumSamples));
  double Seconds = timeSeconds([&] {
    for (unsigned Class = 0; Class < 10; ++Class)
      Score(Class, Scores[Class].data());
  });
  size_t Correct = 0;
  for (size_t S = 0; S < W.NumSamples; ++S) {
    unsigned Best = 0;
    for (unsigned Class = 1; Class < 10; ++Class)
      if (Scores[Class][S] > Scores[Best][S])
        Best = Class;
    if (Best == W.Labels[S])
      ++Correct;
  }
  return {Seconds,
          static_cast<double>(Correct) /
              static_cast<double>(W.NumSamples)};
}

} // namespace

static void BM_ClassifySpncCpu(benchmark::State &State) {
  const Workload &W = workload();
  std::vector<CompiledKernel> Kernels;
  for (const spn::Model &Model : W.Classes) {
    CompilerOptions Options;
    Options.OptLevel = 1;
    Options.MaxPartitionSize = fullScale() ? 25000 : 5000;
    Options.Execution.VectorWidth = 8;
    Expected<CompiledKernel> Kernel =
        kernelCache().getOrCompile(Model, spn::QueryConfig(), Options);
    if (!Kernel) {
      State.SkipWithError("compile failed");
      return;
    }
    Kernels.push_back(Kernel.takeValue());
  }
  std::vector<double> Output(W.NumSamples);
  for (auto _ : State)
    for (auto &Kernel : Kernels)
      Kernel.execute(W.Data.data(), Output.data(), W.NumSamples);
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations() * W.NumSamples));
}
BENCHMARK(BM_ClassifySpncCpu)->Unit(benchmark::kMillisecond)->Iterations(1);

int main(int argc, char **argv) {
  // Strip --backend[=]NAME before google-benchmark rejects the flag.
  // A non-VM backend adds a native leg to the report below.
  std::string BackendName = "vm";
  {
    int Out = 1;
    for (int I = 1; I < argc; ++I) {
      std::string Arg = argv[I];
      if (Arg.rfind("--backend=", 0) == 0) {
        BackendName = Arg.substr(std::strlen("--backend="));
        continue;
      }
      if (Arg == "--backend" && I + 1 < argc) {
        BackendName = argv[++I];
        continue;
      }
      argv[Out++] = argv[I];
    }
    argc = Out;
  }
  Expected<std::shared_ptr<backend::Backend>> ExtraBackend =
      backend::BackendRegistry::global().lookup(BackendName);
  if (!ExtraBackend) {
    std::fprintf(stderr, "%s\n",
                 ExtraBackend.getError().message().c_str());
    return 2;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  printHeader("§V-B2", "RAT-SPN image classification (10 classes)");
  const Workload &W = workload();
  std::printf("per-class model: %zu operations; %zu images\n",
              W.Classes[0].computeStats().NumNodes, W.NumSamples);

  // TF-CPU-equivalent baseline (op-at-a-time, whole batch).
  std::vector<std::unique_ptr<baselines::TfGraphExecutor>> TfExecs;
  for (const spn::Model &Model : W.Classes)
    TfExecs.push_back(
        std::make_unique<baselines::TfGraphExecutor>(Model));
  auto [TfSeconds, TfAccuracy] = classify([&](unsigned Class,
                                              double *Out) {
    TfExecs[Class]->execute(W.Data.data(), Out, W.NumSamples);
  });

  // SPNC CPU (vectorized). The kernels were already compiled by the
  // google-benchmark loop above, so these requests hit the cache and
  // report ~zero compile time.
  std::vector<CompiledKernel> CpuKernels;
  double CpuCompileSeconds = 0;
  for (const spn::Model &Model : W.Classes) {
    CompilerOptions Options;
    Options.OptLevel = 1;
    Options.MaxPartitionSize = fullScale() ? 25000 : 5000;
    Options.Execution.VectorWidth = 8;
    CompileStats Stats;
    Expected<CompiledKernel> Kernel = kernelCache().getOrCompile(
        Model, spn::QueryConfig(), Options, &Stats);
    if (!Kernel)
      return 1;
    CpuCompileSeconds += static_cast<double>(Stats.TotalNs) * 1e-9;
    CpuKernels.push_back(Kernel.takeValue());
  }
  auto [CpuSeconds, CpuAccuracy] = classify([&](unsigned Class,
                                                double *Out) {
    CpuKernels[Class].execute(W.Data.data(), Out, W.NumSamples);
  });

  // SPNC GPU (simulated): ten separate kernel sequences, ten transfers
  // of the input, as in the paper's discussion.
  std::vector<CompiledKernel> GpuKernels;
  double GpuCompileSeconds = 0;
  for (const spn::Model &Model : W.Classes) {
    CompilerOptions Options;
    Options.OptLevel = 1;
    Options.TheTarget = Target::GPU;
    Options.GpuBlockSize = 64;
    Options.MaxPartitionSize = fullScale() ? 10000 : 5000;
    CompileStats Stats;
    Expected<CompiledKernel> Kernel = kernelCache().getOrCompile(
        Model, spn::QueryConfig(), Options, &Stats);
    if (!Kernel)
      return 1;
    GpuCompileSeconds += static_cast<double>(Stats.TotalNs) * 1e-9;
    GpuKernels.push_back(Kernel.takeValue());
  }
  double GpuSimSeconds = 0;
  auto [GpuWallSeconds, GpuAccuracy] = classify([&](unsigned Class,
                                                    double *Out) {
    runtime::ExecutionStats Stats;
    GpuKernels[Class].execute(W.Data.data(), Out, W.NumSamples, &Stats);
    GpuSimSeconds += static_cast<double>(Stats.Gpu.totalNs()) * 1e-9;
  });
  (void)GpuWallSeconds;

  // MPE-as-classifier leg (docs/queries.md): score every image by each
  // class's max-product log-probability (an MPE request under full
  // evidence, so the traceback completes nothing and the score is the
  // best single explanation) and argmax over classes. On this data the
  // best explanation tracks the full likelihood, so the decision must
  // agree with the per-class joint argmax — the agreement is computed
  // and reported below.
  std::vector<CompiledKernel> MpeKernels;
  double MpeCompileSeconds = 0;
  for (const spn::Model &Model : W.Classes) {
    CompilerOptions Options;
    Options.OptLevel = 1;
    Options.Execution.VectorWidth = 8;
    // No partition budget: traceback queries require (and the pipeline
    // enforces) a single unpartitioned task.
    spn::QueryConfig Query;
    Query.Kind = spn::QueryKind::Mpe;
    CompileStats Stats;
    Expected<CompiledKernel> Kernel =
        kernelCache().getOrCompile(Model, Query, Options, &Stats);
    if (!Kernel)
      return 1;
    MpeCompileSeconds += static_cast<double>(Stats.TotalNs) * 1e-9;
    MpeKernels.push_back(Kernel.takeValue());
  }
  std::vector<double> MpeAssignments(W.NumSamples * W.NumFeatures);
  auto RunMpe = [&](unsigned Class, double *Out) {
    MpeKernels[Class].run({.Kind = vm::QueryKind::Mpe,
                           .Input = W.Data.data(),
                           .Output = Out,
                           .Rows = MpeAssignments.data(),
                           .NumSamples = W.NumSamples});
  };
  auto [MpeSeconds, MpeAccuracy] = classify(RunMpe);

  // Decision agreement between the two classifiers over all images.
  size_t Agree = 0;
  {
    std::vector<std::vector<double>> JointScores(
        10, std::vector<double>(W.NumSamples));
    std::vector<std::vector<double>> MpeScores(
        10, std::vector<double>(W.NumSamples));
    for (unsigned Class = 0; Class < 10; ++Class) {
      CpuKernels[Class].execute(W.Data.data(),
                                JointScores[Class].data(),
                                W.NumSamples);
      RunMpe(Class, MpeScores[Class].data());
    }
    for (size_t S = 0; S < W.NumSamples; ++S) {
      unsigned BestJoint = 0, BestMpe = 0;
      for (unsigned Class = 1; Class < 10; ++Class) {
        if (JointScores[Class][S] > JointScores[BestJoint][S])
          BestJoint = Class;
        if (MpeScores[Class][S] > MpeScores[BestMpe][S])
          BestMpe = Class;
      }
      if (BestJoint == BestMpe)
        ++Agree;
    }
  }
  double Agreement =
      static_cast<double>(Agree) / static_cast<double>(W.NumSamples);

  // Optional native leg (--backend=cpp): the same ten CPU kernels,
  // AOT-compiled to shared objects through a backend-configured cache,
  // reported alongside the VM numbers.
  bool HaveNative = false;
  double NativeSeconds = 0, NativeAccuracy = 0, NativeCompileSeconds = 0;
  std::string NativeSkipReason;
  if (BackendName != "vm") {
    std::shared_ptr<backend::Backend> Native = *ExtraBackend;
    if (!Native->isAvailable(&NativeSkipReason)) {
      // Reported below; the VM comparison still runs.
    } else {
      KernelCache::Config NativeConfig;
      NativeConfig.TheBackend = Native;
      KernelCache NativeCache(NativeConfig);
      std::vector<CompiledKernel> NativeKernels;
      for (const spn::Model &Model : W.Classes) {
        CompilerOptions Options;
        Options.OptLevel = 1;
        Options.MaxPartitionSize = fullScale() ? 25000 : 5000;
        Options.Execution.VectorWidth = 8;
        CompileStats Stats;
        Expected<CompiledKernel> Kernel = NativeCache.getOrCompile(
            Model, spn::QueryConfig(), Options, &Stats);
        if (!Kernel) {
          NativeSkipReason = Kernel.getError().message();
          NativeKernels.clear();
          break;
        }
        NativeCompileSeconds +=
            static_cast<double>(Stats.TotalNs) * 1e-9;
        NativeKernels.push_back(Kernel.takeValue());
      }
      if (NativeKernels.size() == W.Classes.size()) {
        auto [Seconds, Accuracy] = classify([&](unsigned Class,
                                                double *Out) {
          NativeKernels[Class].execute(W.Data.data(), Out,
                                       W.NumSamples);
        });
        NativeSeconds = Seconds;
        NativeAccuracy = Accuracy;
        HaveNative = true;
      }
    }
  }

  std::printf("TF CPU (op-at-a-time) : %8.3f s   accuracy %5.1f%%\n",
              TfSeconds, TfAccuracy * 100);
  std::printf("SPNC CPU (vectorized) : %8.3f s   accuracy %5.1f%%   "
              "(compile %.2f s total)\n",
              CpuSeconds, CpuAccuracy * 100, CpuCompileSeconds);
  std::printf("SPNC GPU (simulated)  : %8.3f s   accuracy %5.1f%%   "
              "(compile %.2f s total)\n",
              GpuSimSeconds, GpuAccuracy * 100, GpuCompileSeconds);
  std::printf("SPNC CPU (MPE query)  : %8.3f s   accuracy %5.1f%%   "
              "(compile %.2f s total, %5.1f%% decision agreement "
              "with joint argmax%s)\n",
              MpeSeconds, MpeAccuracy * 100, MpeCompileSeconds,
              Agreement * 100,
              Agreement == 1.0 ? "" : " -- EXPECTED 100%");
  if (HaveNative)
    std::printf("SPNC %-4s (native .so): %8.3f s   accuracy %5.1f%%   "
                "(compile %.2f s total)\n",
                BackendName.c_str(), NativeSeconds,
                NativeAccuracy * 100, NativeCompileSeconds);
  else if (BackendName != "vm")
    std::printf("SPNC %s backend leg skipped: %s\n", BackendName.c_str(),
                NativeSkipReason.c_str());
  std::printf("paper shape: SPNC CPU beats TF CPU; SPNC GPU trails SPNC "
              "CPU (ten input transfers + launches); accuracies match "
              "across implementations\n");
  std::printf("paper absolute (10000 MNIST images): TF-GPU 0.427 s, "
              "SPNC-CPU 0.444 s, SPNC-GPU 1.299 s, TF-CPU 1.72 s\n");

  // The shared cache served the google-benchmark loop and both report
  // sections: 10 CPU + 10 GPU compiles, everything else cache hits.
  KernelCache::Stats CacheStats = kernelCache().getStats();
  std::printf("kernel cache: %llu hits, %llu misses, %llu recompiles, "
              "%llu evictions (capacity %zu)\n",
              static_cast<unsigned long long>(CacheStats.Hits),
              static_cast<unsigned long long>(CacheStats.Misses),
              static_cast<unsigned long long>(CacheStats.Recompiles),
              static_cast<unsigned long long>(CacheStats.Evictions),
              kernelCache().getConfig().MaxEntries);
  return 0;
}
