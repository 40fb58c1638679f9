//===- bench_fig06_cpu_config.cpp - Paper Fig. 6 reproduction -------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces paper Fig. 6: execution time of the compiled
/// speaker-identification kernels under the CPU mapping configurations
///   No Vec. -> AVX2 (vectorized, scalar libm) -> +VecLib -> +Shuffle.
/// The paper's finding: vectorization without a vector library wastes the
/// SIMD unit on extract/call/insert; the vector library recovers it and
/// loads+shuffles add a further small gain.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

using namespace spnc;
using namespace spnc::bench;
using namespace spnc::runtime;

namespace {

struct Config {
  const char *Name;
  vm::ExecutionConfig Execution;
};

std::vector<Config> makeConfigs() {
  std::vector<Config> Configs;
  vm::ExecutionConfig NoVec; // one lane, scalar libm
  NoVec.UseVecLib = false;
  Configs.push_back(Config{"NoVec", NoVec});
  vm::ExecutionConfig Avx2;
  Avx2.VectorWidth = 8; // 8 f32 lanes = one AVX2 register
  Avx2.UseVecLib = false;
  Avx2.UseShuffle = false;
  Configs.push_back(Config{"AVX2", Avx2});
  vm::ExecutionConfig VecLib = Avx2;
  VecLib.UseVecLib = true;
  Configs.push_back(Config{"AVX2+VecLib", VecLib});
  vm::ExecutionConfig Shuffle = VecLib;
  Shuffle.UseShuffle = true;
  Configs.push_back(Config{"AVX2+VecLib+Shuffle", Shuffle});
  return Configs;
}

const std::vector<SpeakerInstance> &speakers() {
  static std::vector<SpeakerInstance> Instances =
      makeSpeakerSet(/*Noisy=*/false);
  return Instances;
}

void runConfig(benchmark::State &State, const Config &TheConfig) {
  const SpeakerInstance &Instance =
      speakers()[static_cast<size_t>(State.range(0))];
  CompilerOptions Options;
  Options.OptLevel = 2;
  Options.Execution = TheConfig.Execution;
  Expected<CompiledKernel> Kernel =
      compileModel(Instance.Model, spn::QueryConfig(), Options);
  if (!Kernel) {
    State.SkipWithError(Kernel.getError().message().c_str());
    return;
  }
  std::vector<double> Output(Instance.NumSamples);
  for (auto _ : State)
    Kernel->execute(Instance.Data.data(), Output.data(),
                    Instance.NumSamples);
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations()) *
      static_cast<int64_t>(Instance.NumSamples));
  benchmark::DoNotOptimize(Output.data());
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  // Timing-loop benchmarks on the first speaker model; the summary below
  // averages over all speakers.
  for (const Config &TheConfig : makeConfigs())
    benchmark::RegisterBenchmark(
        (std::string("fig06/") + TheConfig.Name).c_str(),
        [TheConfig](benchmark::State &State) {
          runConfig(State, TheConfig);
        })
        ->Arg(0)
        ->Unit(benchmark::kMillisecond)
        ->MinTime(0.2);
  benchmark::RunSpecifiedBenchmarks();

  // Paper-style summary: normalized execution time per configuration
  // (geometric mean over speakers), NoVec = 1.0.
  printHeader("Fig. 6", "CPU compiler-configuration ablation "
                        "(speaker identification, clean)");
  std::vector<Config> Configs = makeConfigs();
  std::vector<double> Reference;
  for (const Config &TheConfig : Configs) {
    std::vector<double> Times;
    for (const SpeakerInstance &Instance : speakers()) {
      CompilerOptions Options;
      Options.OptLevel = 2;
      Options.Execution = TheConfig.Execution;
      Expected<CompiledKernel> Kernel =
          compileModel(Instance.Model, spn::QueryConfig(), Options);
      if (!Kernel)
        continue;
      std::vector<double> Output(Instance.NumSamples);
      Times.push_back(timeSeconds([&] {
        Kernel->execute(Instance.Data.data(), Output.data(),
                        Instance.NumSamples);
      }));
    }
    if (Reference.empty())
      Reference = Times;
    double Normalized = geoMean(Times) / geoMean(Reference);
    std::printf("%-22s exec time (geo-mean) = %8.3f ms   relative to "
                "NoVec = %5.2fx\n",
                TheConfig.Name, geoMean(Times) * 1e3, Normalized);
  }
  std::printf("paper shape: AVX2-without-VecLib loses to +VecLib; "
              "+Shuffle adds a small further gain\n");
  benchmark::Shutdown();
  return 0;
}
