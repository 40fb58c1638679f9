//===- bench_fig08_speaker_noisy.cpp - Paper Fig. 8 reproduction -----------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces paper Fig. 8: speedups over SPFlow on noisy speech samples
/// evaluated with marginalization (NaN evidence). The Tensorflow
/// translation does not support marginalization, so — exactly as in the
/// paper — no TF rows appear. The noisy scenario has ~5x more samples,
/// which benefits the GPU (more parallel work per transfer).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

using namespace spnc;
using namespace spnc::bench;
using namespace spnc::runtime;

namespace {

const std::vector<SpeakerInstance> &speakers() {
  static std::vector<SpeakerInstance> Instances =
      makeSpeakerSet(/*Noisy=*/true);
  return Instances;
}

spn::QueryConfig marginalQuery() {
  spn::QueryConfig Config;
  Config.SupportMarginal = true;
  return Config;
}

/// The CPU configuration of \p VectorWidth lanes; one lane is the
/// paper's "no vec" code, which calls scalar libm.
CompilerOptions cpuOptions(unsigned VectorWidth) {
  CompilerOptions Options;
  Options.OptLevel = 2;
  Options.Execution.VectorWidth = VectorWidth;
  Options.Execution.UseVecLib = VectorWidth > 1;
  return Options;
}

std::vector<double> runSpnc(const CompilerOptions &Options) {
  std::vector<double> Times;
  for (const SpeakerInstance &Instance : speakers()) {
    Expected<CompiledKernel> Kernel =
        compileModel(Instance.Model, marginalQuery(), Options);
    if (!Kernel)
      continue;
    std::vector<double> Output(Instance.NumSamples);
    Times.push_back(runReportSeconds(*Kernel, Instance.Data.data(),
                                     Output.data(),
                                     Instance.NumSamples));
  }
  return Times;
}

} // namespace

static void BM_SPFlowNoisy(benchmark::State &State) {
  const SpeakerInstance &Instance = speakers()[0];
  baselines::SPFlowInterpreter Interp(Instance.Model);
  std::vector<double> Output(Instance.NumSamples);
  for (auto _ : State)
    Interp.execute(Instance.Data.data(), Output.data(),
                   Instance.NumSamples);
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations() * Instance.NumSamples));
}
BENCHMARK(BM_SPFlowNoisy)->Unit(benchmark::kMillisecond)->MinTime(0.2);

static void BM_SpncCpuNoisy(benchmark::State &State) {
  const SpeakerInstance &Instance = speakers()[0];
  Expected<CompiledKernel> Kernel = compileModel(
      Instance.Model, marginalQuery(),
      cpuOptions(static_cast<unsigned>(State.range(0))));
  if (!Kernel) {
    State.SkipWithError("compile failed");
    return;
  }
  std::vector<double> Output(Instance.NumSamples);
  for (auto _ : State)
    Kernel->execute(Instance.Data.data(), Output.data(),
                    Instance.NumSamples);
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations() * Instance.NumSamples));
}
BENCHMARK(BM_SpncCpuNoisy)
    ->Arg(1)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2);

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  printHeader("Fig. 8", "speedup over SPFlow, noisy speech with "
                        "marginalization (no TF: unsupported)");

  std::vector<double> SpflowTimes;
  for (const SpeakerInstance &Instance : speakers()) {
    baselines::SPFlowInterpreter Interp(Instance.Model);
    std::vector<double> Output(Instance.NumSamples);
    SpflowTimes.push_back(timeSeconds([&] {
      Interp.execute(Instance.Data.data(), Output.data(),
                     Instance.NumSamples);
    }));
  }

  std::vector<double> NoVec = runSpnc(cpuOptions(1));
  std::vector<double> Avx2 = runSpnc(cpuOptions(8));
  std::vector<double> Avx512 = runSpnc(cpuOptions(16));
  CompilerOptions GpuOpts;
  GpuOpts.OptLevel = 2;
  GpuOpts.TheTarget = Target::GPU;
  GpuOpts.GpuBlockSize = 64;
  std::vector<double> Gpu = runSpnc(GpuOpts);

  auto PrintRow = [&](const char *Name,
                      const std::vector<double> &Times,
                      const char *Note = "") {
    std::vector<double> Speedups;
    for (size_t I = 0; I < Times.size() && I < SpflowTimes.size(); ++I)
      Speedups.push_back(SpflowTimes[I] / Times[I]);
    std::printf("%-24s geo-mean speedup over SPFlow = %7.2fx   "
                "(exec %8.3f ms) %s\n",
                Name, geoMean(Speedups), geoMean(Times) * 1e3, Note);
  };
  PrintRow("SPFlow (baseline)", SpflowTimes);
  PrintRow("SPNC CPU (no vec)", NoVec);
  PrintRow("SPNC CPU AVX2 (w=8)", Avx2);
  PrintRow("SPNC CPU AVX512 (w=16)", Avx512);
  PrintRow("SPNC GPU (sim)", Gpu, "[simulated clock]");
  std::printf("paper shape: same ordering as Fig. 7; the larger noisy "
              "batch moves the GPU closer to (paper: past) the "
              "non-vectorized CPU\n");
  benchmark::Shutdown();
  return 0;
}
