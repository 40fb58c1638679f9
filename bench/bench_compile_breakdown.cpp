//===- bench_compile_breakdown.cpp - Paper §V-B1 compile-time breakdown ----------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the compile-time breakdown analysis of paper §V-B1. For the
/// paper's LLVM-based flow, translation to object code dominates CPU
/// compilation (DAG instruction selection 27%, greedy register allocation
/// 25%) and the PTX->CUBIN translation dominates GPU compilation (~95%).
/// This harness reports the same style of breakdown for our pipeline:
/// per-pass timings plus the codegen-stage split (isel / regalloc /
/// peephole / scheduling) and the device-binary assembly time.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

using namespace spnc;
using namespace spnc::bench;
using namespace spnc::runtime;

namespace {

void report(Target TheTarget) {
  spn::Model Model = workloads::generateRatSpn(ratSpnBenchScale(), 0);
  CompilerOptions Options;
  Options.OptLevel = fullScale() ? 1 : 3; // exercise every stage
  Options.TheTarget = TheTarget;
  Options.MaxPartitionSize = fullScale() ? 25000 : 5000;
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(Options);
  if (!Pipeline) {
    std::printf("invalid configuration: %s\n",
                Pipeline.getError().message().c_str());
    return;
  }
  // Sample per-stage module op counts alongside the timings — the
  // stage-report diagnostic shows IR growth across the lowering.
  if (std::optional<Error> Err = Pipeline->enableStageReport()) {
    std::printf("cannot enable stage report: %s\n",
                Err->message().c_str());
    return;
  }
  std::printf("\n-- %s pipeline stages --\n",
              TheTarget == Target::CPU ? "CPU" : "GPU");
  for (const PipelineStage &Stage : Pipeline->getStages())
    std::printf("  %-16s %s\n", Stage.Name.c_str(),
                Stage.Detail.c_str());
  CompileStats Stats;
  Expected<vm::KernelProgram> Program =
      Pipeline->compile(Model, spn::QueryConfig(), &Stats);
  if (!Program) {
    std::printf("compile failed: %s\n",
                Program.getError().message().c_str());
    return;
  }

  double Total = static_cast<double>(Stats.TotalNs);
  std::printf("-- %s compilation: total %.3f s, %zu tasks, %zu "
              "instructions --\n",
              TheTarget == Target::CPU ? "CPU" : "GPU", Total * 1e-9,
              Stats.NumTasks, Stats.NumInstructions);
  auto Pct = [&](uint64_t Ns) {
    return 100.0 * static_cast<double>(Ns) / Total;
  };
  uint64_t StagedNs = 0;
  for (const StageTiming &Stage : Stats.Stages) {
    std::printf("  stage %-22s %6.1f%%\n", Stage.Name.c_str(),
                Pct(Stage.WallNs));
    StagedNs += Stage.WallNs;
  }
  // The total also counts freeing the IR module and its context.
  std::printf("  %-28s %6.1f%%\n", "IR teardown",
              Pct(Stats.TotalNs - StagedNs));
  for (const StageOpCount &Count : Stats.OpCounts)
    std::printf("  ops after %-18s %zu\n", Count.Stage.c_str(),
                Count.NumOps);
  for (const ir::PassTiming &Pass : Stats.PassTimings)
    std::printf("  pass %-23s %6.1f%%\n", Pass.PassName.c_str(),
                Pct(Pass.WallNs));
  std::printf("  %-28s %6.1f%%  (paper CPU: DAG isel 27%%)\n",
              "codegen: instruction sel.", Pct(Stats.Codegen.IselNs));
  std::printf("  %-28s %6.1f%%  (paper CPU: greedy regalloc 25%%)\n",
              "codegen: register alloc.", Pct(Stats.Codegen.RegAllocNs));
  std::printf("  %-28s %6.1f%%\n", "codegen: peephole",
              Pct(Stats.Codegen.PeepholeNs));
  std::printf("  %-28s %6.1f%%\n", "codegen: scheduling",
              Pct(Stats.Codegen.SchedulingNs));
  if (TheTarget == Target::GPU)
    std::printf("  %-28s %6.1f%%  (paper GPU: PTX->CUBIN ~95%%; not "
                "reproducible without a real assembler)\n",
                "device binary assembly", Pct(Stats.BinaryEncodeNs));
}

void BM_Compile(benchmark::State &State) {
  spn::Model Model = workloads::generateRatSpn(ratSpnBenchScale(), 0);
  CompilerOptions Options;
  Options.OptLevel = 1;
  Options.TheTarget = State.range(0) ? Target::GPU : Target::CPU;
  Options.MaxPartitionSize = fullScale() ? 25000 : 5000;
  // The pipeline is built once and reused across compiles, the
  // compile-once/run-many shape a serving process would use.
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(Options);
  if (!Pipeline) {
    State.SkipWithError("invalid configuration");
    return;
  }
  for (auto _ : State) {
    Expected<vm::KernelProgram> Program =
        Pipeline->compile(Model, spn::QueryConfig());
    benchmark::DoNotOptimize(&Program);
  }
}
BENCHMARK(BM_Compile)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printHeader("§V-B1", "compile-time breakdown (RAT-SPN class)");
  report(Target::CPU);
  report(Target::GPU);
  benchmark::Shutdown();
  return 0;
}
