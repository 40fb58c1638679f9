//===- bench_fig07_speaker_clean.cpp - Paper Fig. 7 reproduction -----------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces paper Fig. 7: speedups over the SPFlow (Python/numpy
/// equivalent) baseline on clean speech samples for
///   TF-CPU | SPNC CPU (no vec) | SPNC AVX2 | SPNC AVX-512 | SPNC GPU.
/// Also reports the average compilation times of §V-A2. Absolute
/// speedups are far below the paper's 500-1000x because the baseline here
/// is C++ rather than Python; the ordering of the execution modes is the
/// reproduced result (see EXPERIMENTS.md).
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
      makeSpeakerSet(/*Noisy=*/false);
  return Instances;
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

CompilerOptions gpuOptions() {
  CompilerOptions Options;
  Options.OptLevel = 2;
  Options.TheTarget = Target::GPU;
  Options.GpuBlockSize = 64; // best block size per §V-A1
  return Options;
}

/// Measures one mode over all speakers; returns per-speaker times and
/// accumulates compile times.
struct ModeResult {
  std::vector<double> ExecSeconds;
  std::vector<double> CompileSeconds;
  /// Per-sample work units of the first speaker's engine (bytecode
  /// instructions or, for baselines, node evaluations).
  runtime::EngineAccounting Accounting;
  /// Simulated GPU executions report the simulated clock.
  bool Simulated = false;
};

ModeResult runSpnc(const CompilerOptions &Options) {
  ModeResult Result;
  Result.Simulated = Options.TheTarget == Target::GPU;
  for (const SpeakerInstance &Instance : speakers()) {
    CompileStats Stats;
    Expected<CompiledKernel> Kernel =
        compileModel(Instance.Model, spn::QueryConfig(), Options, &Stats);
    if (!Kernel)
      continue;
    Result.CompileSeconds.push_back(static_cast<double>(Stats.TotalNs) *
                                    1e-9);
    if (Result.ExecSeconds.empty())
      Result.Accounting = Kernel->getEngine().getAccounting();
    std::vector<double> Output(Instance.NumSamples);
    Result.ExecSeconds.push_back(
        runReportSeconds(*Kernel, Instance.Data.data(), Output.data(),
                         Instance.NumSamples));
  }
  return Result;
}

/// Measures one baseline through the same unified ExecutionEngine path
/// as the compiled modes — `getAccounting()` works for engines without
/// a compiled program, so nothing here is baseline-specific.
template <typename EngineT>
ModeResult runBaseline() {
  ModeResult Result;
  for (const SpeakerInstance &Instance : speakers()) {
    CompiledKernel Kernel(std::make_shared<EngineT>(Instance.Model));
    if (Result.ExecSeconds.empty())
      Result.Accounting = Kernel.getEngine().getAccounting();
    std::vector<double> Output(Instance.NumSamples);
    Result.ExecSeconds.push_back(
        runReportSeconds(Kernel, Instance.Data.data(), Output.data(),
                         Instance.NumSamples));
  }
  return Result;
}

} // namespace

//===----------------------------------------------------------------------===//
// google-benchmark timing loops (first speaker)
//===----------------------------------------------------------------------===//

static void BM_SPFlowBaseline(benchmark::State &State) {
  const SpeakerInstance &Instance = speakers()[0];
  baselines::SPFlowInterpreter Interp(Instance.Model);
  std::vector<double> Output(Instance.NumSamples);
  for (auto _ : State)
    Interp.execute(Instance.Data.data(), Output.data(),
                   Instance.NumSamples);
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations() * Instance.NumSamples));
}
BENCHMARK(BM_SPFlowBaseline)->Unit(benchmark::kMillisecond)->MinTime(0.2);

static void BM_TfCpu(benchmark::State &State) {
  const SpeakerInstance &Instance = speakers()[0];
  baselines::TfGraphExecutor Tf(Instance.Model);
  std::vector<double> Output(Instance.NumSamples);
  for (auto _ : State)
    Tf.execute(Instance.Data.data(), Output.data(), Instance.NumSamples);
  State.SetItemsProcessed(
      static_cast<int64_t>(State.iterations() * Instance.NumSamples));
}
BENCHMARK(BM_TfCpu)->Unit(benchmark::kMillisecond)->MinTime(0.2);

static void BM_SpncCpu(benchmark::State &State) {
  const SpeakerInstance &Instance = speakers()[0];
  Expected<CompiledKernel> Kernel = compileModel(
      Instance.Model, spn::QueryConfig(),
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
BENCHMARK(BM_SpncCpu)
    ->Arg(1)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2);

//===----------------------------------------------------------------------===//
// Paper-style summary
//===----------------------------------------------------------------------===//

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  printHeader("Fig. 7",
              "speedup over SPFlow baseline, clean speech samples");

  // Every mode — baselines included — runs through the same unified
  // ExecutionEngine path; EngineAccounting supplies the work column
  // without special-casing engines that lack a compiled program.
  ModeResult Spflow = runBaseline<baselines::InterpreterEngine>();
  ModeResult Tf = runBaseline<baselines::TfGraphEngine>();
  ModeResult NoVec = runSpnc(cpuOptions(1));
  ModeResult Avx2 = runSpnc(cpuOptions(8));
  ModeResult Avx512 = runSpnc(cpuOptions(16));
  ModeResult Gpu = runSpnc(gpuOptions());
  const std::vector<double> &SpflowTimes = Spflow.ExecSeconds;

  auto PrintRow = [&](const char *Name, const ModeResult &Mode,
                      const char *Note = "") {
    std::vector<double> Speedups;
    for (size_t I = 0;
         I < Mode.ExecSeconds.size() && I < SpflowTimes.size(); ++I)
      Speedups.push_back(SpflowTimes[I] / Mode.ExecSeconds[I]);
    std::printf("%-24s geo-mean speedup over SPFlow = %7.2fx   "
                "(exec %8.3f ms, %6zu %s/sample) %s\n",
                Name, geoMean(Speedups),
                geoMean(Mode.ExecSeconds) * 1e3,
                Mode.Accounting.NumInstructions,
                Mode.Accounting.Compiled ? "instrs" : "nodes", Note);
  };
  PrintRow("SPFlow (baseline)", Spflow);
  PrintRow("TF CPU", Tf);
  PrintRow("SPNC CPU (no vec)", NoVec);
  PrintRow("SPNC CPU AVX2 (w=8)", Avx2);
  PrintRow("SPNC CPU AVX512 (w=16)", Avx512);
  PrintRow("SPNC GPU (sim)", Gpu, "[simulated clock]");

  // §V-A2 compile times: paper averages 3.3 s (CPU) / 1.7 s (GPU) for
  // the real LLVM-based flow; ours are far smaller.
  std::printf("\ncompile time: CPU avg %.3f s  (paper: avg 3.3 s), "
              "GPU avg %.3f s (paper: avg 1.7 s)\n",
              geoMean(NoVec.CompileSeconds),
              geoMean(Gpu.CompileSeconds));
  std::printf("paper shape: vectorized CPU > no-vec CPU > GPU >> TF > "
              "SPFlow, with AVX512 > AVX2\n");
  benchmark::Shutdown();
  return 0;
}
