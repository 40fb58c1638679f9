//===- inspect_compilation.cpp - Walk through the compilation pipeline -----------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An spnc-opt-style tool: builds a tiny SPN, then prints the IR after
/// every stage of the pipeline (paper §IV) — HiSPN translation,
/// canonicalization, LoSPN lowering, task partitioning, bufferization —
/// followed by a disassembly-style dump of the generated bytecode.
/// Useful for understanding how the dialects fit together.
///
//===----------------------------------------------------------------------===//

#include "codegen/Codegen.h"
#include "frontend/HiSPNTranslation.h"
#include "ir/PassManager.h"
#include "ir/Printer.h"
#include "ir/Transforms.h"
#include "support/RawOStream.h"
#include "transforms/Passes.h"

#include <cstdio>

using namespace spnc;
using namespace spnc::ir;

namespace {

void printStage(const char *Stage, Operation *Module) {
  std::printf("\n//===--- after %s ---===//\n", Stage);
  FileOStream OS(stdout);
  printOperation(Module, OS);
}

const char *opcodeName(vm::OpCode Op) {
  switch (Op) {
  case vm::OpCode::Const:
    return "const";
  case vm::OpCode::Load:
    return "load";
  case vm::OpCode::Store:
    return "store";
  case vm::OpCode::Add:
    return "add";
  case vm::OpCode::Mul:
    return "mul";
  case vm::OpCode::FusedMulAdd:
    return "fma";
  case vm::OpCode::LogSumExp:
    return "logsumexp";
  case vm::OpCode::Gaussian:
    return "gaussian";
  case vm::OpCode::GaussianLog:
    return "gaussian.log";
  case vm::OpCode::TableLookup:
    return "table.lookup";
  case vm::OpCode::SelectInRange:
    return "select.range";
  case vm::OpCode::NanBlend:
    return "nan.blend";
  case vm::OpCode::AddN:
    return "add.n";
  case vm::OpCode::MulN:
    return "mul.n";
  case vm::OpCode::LogSumExpN:
    return "logsumexp.n";
  case vm::OpCode::Max:
    return "max";
  case vm::OpCode::LogSumExpGroup:
    return "logsumexp.grp";
  }
  return "<unknown>";
}

} // namespace

int main() {
  // The running example: a mixture over two features with one shared
  // leaf, small enough to read every stage.
  spn::Model Model(2, "inspect");
  spn::Node *Shared = Model.makeGaussian(0, 0.0, 1.0);
  spn::Node *G1 = Model.makeGaussian(1, 1.0, 0.5);
  spn::Node *H1 = Model.makeHistogram(
      1, {spn::HistogramBucket{0, 2, 0.3}, spn::HistogramBucket{2, 4, 0.7}});
  spn::Node *P0 = Model.makeProduct({Shared, G1});
  spn::Node *P1 = Model.makeProduct({Shared, H1});
  Model.setRoot(Model.makeSum({P0, P1}, {0.25, 0.75}));

  Context Ctx;
  spn::QueryConfig Query;
  Query.BatchSize = 16;
  OwningOpRef<ModuleOp> Module =
      spn::translateToHiSPN(Ctx, Model, Query);
  if (!Module)
    return 1;
  printStage("translation to HiSPN (paper §IV-A2)",
             Module.get().getOperation());

  // Run the pipeline one pass at a time, printing in between.
  auto RunOne = [&](std::unique_ptr<Pass> ThePass, const char *Stage) {
    PassManager PM(Ctx);
    PM.addPass(std::move(ThePass));
    if (failed(PM.run(Module.get().getOperation())))
      return false;
    printStage(Stage, Module.get().getOperation());
    return true;
  };

  if (!RunOne(createCanonicalizerPass(),
              "HiSPN canonicalization (single-input collapse)"))
    return 1;
  if (!RunOne(transforms::createHiSPNToLoSPNLoweringPass(),
              "lowering to LoSPN, tensor form (paper §IV-A3)"))
    return 1;
  partition::PartitionOptions PartOptions;
  PartOptions.MaxPartitionSize = 6;
  if (!RunOne(transforms::createTaskPartitioningPass(PartOptions),
              "task partitioning, max 6 ops/task (paper §IV-A4)"))
    return 1;
  if (!RunOne(transforms::createBufferizationPass(),
              "bufferization to memref form (paper §IV-A5)"))
    return 1;

  // Generate and disassemble the CPU bytecode.
  lospn::KernelOp Kernel(nullptr);
  for (Operation *Op : Module.get().getBody())
    if (isa_op<lospn::KernelOp>(Op))
      Kernel = lospn::KernelOp(Op);
  codegen::CodegenOptions CGOptions;
  CGOptions.OptLevel = 2;
  Expected<vm::KernelProgram> Program =
      codegen::emitKernelProgram(Kernel, CGOptions);
  if (!Program) {
    std::fprintf(stderr, "codegen failed: %s\n",
                 Program.getError().message().c_str());
    return 1;
  }

  std::printf("\n//===--- generated bytecode (-O2) ---===//\n");
  for (size_t TaskIdx = 0; TaskIdx < Program->Tasks.size(); ++TaskIdx) {
    const vm::TaskProgram &Task = Program->Tasks[TaskIdx];
    std::printf("task %zu: %zu instructions, %u registers\n", TaskIdx,
                Task.Code.size(), Task.NumRegisters);
    for (const vm::Instruction &Inst : Task.Code) {
      // A group writes the destinations it lists after its children.
      if (Inst.Op == vm::OpCode::LogSumExpGroup)
        std::printf("         %-13s", opcodeName(Inst.Op));
      else
        std::printf("  r%-3u <- %-13s", Inst.Dst, opcodeName(Inst.Op));
      switch (Inst.Op) {
      case vm::OpCode::Const:
        std::printf("%g", Task.ConstPool[Inst.A]);
        break;
      case vm::OpCode::Load:
        std::printf("buffer%u[%u]", Task.Loads[Inst.A].Buffer,
                    Task.Loads[Inst.A].Index);
        break;
      case vm::OpCode::Store:
        std::printf("-> buffer%u[%u]", Task.Stores[Inst.A].Buffer,
                    Task.Stores[Inst.A].Index);
        break;
      case vm::OpCode::AddN:
      case vm::OpCode::MulN:
        for (uint32_t N = 0; N < Inst.B; ++N)
          std::printf("%sr%u", N ? ", " : "",
                      Task.Args[Inst.A + N]);
        break;
      case vm::OpCode::LogSumExpN:
        // Each operand is a register plus its log-weight.
        for (uint32_t N = 0; N < Inst.B; ++N)
          std::printf("%sr%u%+g", N ? ", " : "", Task.Args[Inst.A + N],
                      Task.ConstPool[Task.Args[Inst.C + N]]);
        break;
      case vm::OpCode::LogSumExpGroup: {
        // The children, then each sum's destination and raw weights.
        const uint32_t *Args = &Task.Args[Inst.A];
        for (uint32_t N = 0; N < Inst.B; ++N)
          std::printf("%sr%u", N ? ", " : "", Args[N]);
        for (uint32_t S = 0; S < Inst.C; ++S) {
          std::printf(" -> r%u *", Args[Inst.B + S]);
          for (uint32_t N = 0; N < Inst.B; ++N)
            std::printf(" %g",
                        Task.ConstPool[Args[Inst.B + Inst.C +
                                            S * Inst.B + N]]);
        }
        break;
      }
      default:
        std::printf("r%u, r%u", Inst.A, Inst.B);
        break;
      }
      std::printf("\n");
    }
  }
  return 0;
}
