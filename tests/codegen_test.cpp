//===- codegen_test.cpp - Code generation tests --------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the LoSPN->bytecode code generator: instruction selection,
/// the -O level effects (register allocation shrinks the register file,
/// the peephole folds weights into leaves, scheduling preserves
/// semantics), and the GPU select-cascade strategy.
///
//===----------------------------------------------------------------------===//

#include "codegen/Codegen.h"
#include "frontend/HiSPNTranslation.h"
#include "ir/PassManager.h"
#include "transforms/Passes.h"
#include "vm/Executor.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace spnc;
using namespace spnc::ir;
using namespace spnc::vm;

namespace {

class CodegenTest : public ::testing::Test {
protected:
  void SetUp() override {
    workloads::SpeakerModelOptions Options;
    Options.TargetOperations = 400;
    Options.Seed = 21;
    Model = std::make_unique<spn::Model>(
        workloads::generateSpeakerModel(Options));
  }

  /// Runs the pipeline up to a bufferized kernel and emits a program.
  Expected<KernelProgram> emit(const codegen::CodegenOptions &Options,
                               codegen::CodegenTimings *Timings = nullptr,
                               bool LogSpace = true) {
    spn::QueryConfig Config;
    Config.LogSpace = LogSpace;
    Module = spn::translateToHiSPN(Ctx, *Model, Config);
    if (!Module)
      return makeError("translation failed");
    PassManager PM(Ctx);
    PM.addPass(transforms::createHiSPNToLoSPNLoweringPass());
    PM.addPass(transforms::createBufferizationPass());
    if (failed(PM.run(Module.get().getOperation())))
      return makeError("pipeline failed");
    for (Operation *Op : Module.get().getBody())
      if (isa_op<lospn::KernelOp>(Op))
        return codegen::emitKernelProgram(lospn::KernelOp(Op), Options,
                                          Timings);
    return makeError("no kernel");
  }

  Context Ctx;
  std::unique_ptr<spn::Model> Model;
  OwningOpRef<ModuleOp> Module;
};

TEST_F(CodegenTest, EmitsBufferPlanAndTasks) {
  codegen::CodegenOptions Options;
  Expected<KernelProgram> Program = emit(Options);
  ASSERT_TRUE(static_cast<bool>(Program))
      << Program.getError().message();
  EXPECT_EQ(Program->NumInputs, 1u);
  EXPECT_EQ(Program->NumOutputs, 1u);
  ASSERT_EQ(Program->Buffers.size(), 2u);
  EXPECT_EQ(Program->Buffers[0].Role, BufferInfo::Kind::Input);
  EXPECT_EQ(Program->Buffers[0].Columns, 26u);
  EXPECT_FALSE(Program->Buffers[0].Transposed);
  EXPECT_EQ(Program->Buffers[1].Role, BufferInfo::Kind::Output);
  EXPECT_TRUE(Program->Buffers[1].Transposed);
  ASSERT_EQ(Program->Tasks.size(), 1u);
  EXPECT_TRUE(Program->LogSpace);
  EXPECT_TRUE(Program->UseF32);
  ASSERT_EQ(Program->Steps.size(), 1u);
  EXPECT_EQ(Program->Steps[0].Task, 0);
}

TEST_F(CodegenTest, RegisterAllocationShrinksRegisterFile) {
  codegen::CodegenOptions NoRegAlloc;
  NoRegAlloc.OptLevel = 0;
  codegen::CodegenOptions WithRegAlloc;
  WithRegAlloc.OptLevel = 1;
  Expected<KernelProgram> P0 = emit(NoRegAlloc);
  Expected<KernelProgram> P1 = emit(WithRegAlloc);
  ASSERT_TRUE(static_cast<bool>(P0) && static_cast<bool>(P1));
  EXPECT_LT(P1->Tasks[0].NumRegisters, P0->Tasks[0].NumRegisters / 4)
      << "linear scan should reuse registers aggressively";
  // Same instruction count: regalloc only renames.
  EXPECT_EQ(P0->Tasks[0].Code.size(), P1->Tasks[0].Code.size());
}

TEST_F(CodegenTest, PeepholeFoldsWeightsIntoLeaves) {
  codegen::CodegenOptions O1;
  O1.OptLevel = 1;
  codegen::CodegenOptions O2;
  O2.OptLevel = 2;
  Expected<KernelProgram> P1 = emit(O1);
  Expected<KernelProgram> P2 = emit(O2);
  ASSERT_TRUE(static_cast<bool>(P1) && static_cast<bool>(P2));
  // Folding weight constants into leaf parameters removes Add+Const
  // pairs.
  EXPECT_LT(P2->Tasks[0].Code.size(), P1->Tasks[0].Code.size());
}

TEST_F(CodegenTest, AllOptLevelsProduceIdenticalResults) {
  workloads::SpeakerModelOptions DataOptions;
  DataOptions.Seed = 21;
  const size_t NumSamples = 64;
  std::vector<double> Data =
      workloads::generateSpeechData(DataOptions, NumSamples, 4);

  std::vector<double> Reference;
  for (unsigned Level = 0; Level <= 3; ++Level) {
    codegen::CodegenOptions Options;
    Options.OptLevel = Level;
    Expected<KernelProgram> Program = emit(Options);
    ASSERT_TRUE(static_cast<bool>(Program));
    CpuExecutor Exec(Program.takeValue(), ExecutionConfig());
    std::vector<double> Output(NumSamples);
    ASSERT_TRUE(Exec.run({.Input = Data.data(),
                          .Output = Output.data(),
                          .NumSamples = NumSamples}));
    if (Level == 0) {
      Reference = Output;
      continue;
    }
    for (size_t S = 0; S < NumSamples; ++S)
      EXPECT_NEAR(Output[S], Reference[S],
                  std::fabs(Reference[S]) * 1e-5 + 1e-5)
          << "level " << Level << " sample " << S;
  }
}

TEST_F(CodegenTest, GpuStrategyEmitsSelectCascades) {
  codegen::CodegenOptions Cpu;
  codegen::CodegenOptions Gpu;
  Gpu.EmitSelectCascades = true;
  Expected<KernelProgram> CpuProgram = emit(Cpu);
  Expected<KernelProgram> GpuProgram = emit(Gpu);
  ASSERT_TRUE(static_cast<bool>(CpuProgram) &&
              static_cast<bool>(GpuProgram));
  // CPU: table lookups, no selects. GPU: selects, no table lookups
  // (paper §IV-C).
  EXPECT_GT(CpuProgram->Tasks[0].Tables.size(), 0u);
  EXPECT_EQ(CpuProgram->Tasks[0].Selects.size(), 0u);
  EXPECT_EQ(GpuProgram->Tasks[0].Tables.size(), 0u);
  EXPECT_GT(GpuProgram->Tasks[0].Selects.size(), 0u);

  // Both strategies compute the same results.
  workloads::SpeakerModelOptions DataOptions;
  DataOptions.Seed = 21;
  const size_t NumSamples = 32;
  std::vector<double> Data =
      workloads::generateSpeechData(DataOptions, NumSamples, 8);
  CpuExecutor A(CpuProgram.takeValue(), ExecutionConfig());
  CpuExecutor B(GpuProgram.takeValue(), ExecutionConfig());
  std::vector<double> OutA(NumSamples), OutB(NumSamples);
  ASSERT_TRUE(A.run({.Input = Data.data(),
                     .Output = OutA.data(),
                     .NumSamples = NumSamples}));
  ASSERT_TRUE(B.run({.Input = Data.data(),
                     .Output = OutB.data(),
                     .NumSamples = NumSamples}));
  for (size_t S = 0; S < NumSamples; ++S)
    EXPECT_NEAR(OutA[S], OutB[S], std::fabs(OutA[S]) * 1e-5 + 1e-5);
}

TEST_F(CodegenTest, TimingsAreReported) {
  codegen::CodegenOptions Options;
  Options.OptLevel = 3;
  codegen::CodegenTimings Timings;
  Expected<KernelProgram> Program = emit(Options, &Timings);
  ASSERT_TRUE(static_cast<bool>(Program));
  EXPECT_GT(Timings.IselNs, 0u);
  EXPECT_GT(Timings.RegAllocNs, 0u);
  EXPECT_GT(Timings.PeepholeNs, 0u);
  EXPECT_GT(Timings.SchedulingNs, 0u);
}

TEST_F(CodegenTest, RejectsTensorFormKernels) {
  spn::QueryConfig Config;
  Module = spn::translateToHiSPN(Ctx, *Model, Config);
  PassManager PM(Ctx);
  PM.addPass(transforms::createHiSPNToLoSPNLoweringPass());
  ASSERT_TRUE(succeeded(PM.run(Module.get().getOperation())));
  for (Operation *Op : Module.get().getBody())
    if (isa_op<lospn::KernelOp>(Op)) {
      Expected<KernelProgram> Result = codegen::emitKernelProgram(
          lospn::KernelOp(Op), codegen::CodegenOptions());
      EXPECT_FALSE(static_cast<bool>(Result));
      EXPECT_NE(Result.getError().message().find("bufferized"),
                std::string::npos);
    }
}

TEST_F(CodegenTest, NonIntegerBucketsFallBackToSelectCascade) {
  // Histogram buckets with fractional bounds cannot become dense tables;
  // even the CPU strategy must emit a select cascade — and still compute
  // the right values.
  spn::Model M(1, "fractional");
  M.setRoot(M.makeHistogram(
      0, {spn::HistogramBucket{0.0, 0.5, 0.2},
          spn::HistogramBucket{0.5, 1.25, 0.5},
          spn::HistogramBucket{1.25, 2.0, 0.3}}));
  spn::QueryConfig Config;
  Config.LogSpace = false;
  OwningOpRef<ModuleOp> LocalModule =
      spn::translateToHiSPN(Ctx, M, Config);
  ASSERT_TRUE(static_cast<bool>(LocalModule));
  PassManager PM(Ctx);
  PM.addPass(transforms::createHiSPNToLoSPNLoweringPass());
  PM.addPass(transforms::createBufferizationPass());
  ASSERT_TRUE(succeeded(PM.run(LocalModule.get().getOperation())));
  for (Operation *Op : LocalModule.get().getBody()) {
    if (!isa_op<lospn::KernelOp>(Op))
      continue;
    Expected<KernelProgram> Program = codegen::emitKernelProgram(
        lospn::KernelOp(Op), codegen::CodegenOptions());
    ASSERT_TRUE(static_cast<bool>(Program));
    EXPECT_EQ(Program->Tasks[0].Tables.size(), 0u);
    EXPECT_EQ(Program->Tasks[0].Selects.size(), 3u);

    CpuExecutor Exec(Program.takeValue(), ExecutionConfig());
    double Input[4] = {0.25, 0.6, 1.5, 5.0};
    double Output[4];
    ASSERT_TRUE(Exec.run({.Input = Input, .Output = Output, .NumSamples = 4}));
    EXPECT_NEAR(Output[0], 0.2, 1e-6);
    EXPECT_NEAR(Output[1], 0.5, 1e-6);
    EXPECT_NEAR(Output[2], 0.3, 1e-6);
    EXPECT_NEAR(Output[3], 0.0, 1e-6); // out of support
  }
}

TEST_F(CodegenTest, OversizedTablesFallBackToSelectCascade) {
  // A histogram spanning a range wider than MaxDenseTableSize must not
  // materialize a huge dense table.
  spn::Model M(1, "wide");
  M.setRoot(M.makeHistogram(
      0, {spn::HistogramBucket{0.0, 1.0, 0.5},
          spn::HistogramBucket{1000000.0, 1000001.0, 0.5}}));
  OwningOpRef<ModuleOp> LocalModule =
      spn::translateToHiSPN(Ctx, M, spn::QueryConfig());
  ASSERT_TRUE(static_cast<bool>(LocalModule));
  PassManager PM(Ctx);
  PM.addPass(transforms::createHiSPNToLoSPNLoweringPass());
  PM.addPass(transforms::createBufferizationPass());
  ASSERT_TRUE(succeeded(PM.run(LocalModule.get().getOperation())));
  for (Operation *Op : LocalModule.get().getBody()) {
    if (!isa_op<lospn::KernelOp>(Op))
      continue;
    Expected<KernelProgram> Program = codegen::emitKernelProgram(
        lospn::KernelOp(Op), codegen::CodegenOptions());
    ASSERT_TRUE(static_cast<bool>(Program));
    EXPECT_EQ(Program->Tasks[0].Tables.size(), 0u);
    EXPECT_EQ(Program->Tasks[0].Selects.size(), 2u);
  }
}

TEST_F(CodegenTest, ChainCollapseBoundsNaryFanIn) {
  codegen::CodegenOptions O2;
  O2.OptLevel = 2;
  // Per const-pool slot: holds a sum weight (a ConstPool parameter site).
  auto WeightSlots = [](const TaskProgram &Task) {
    std::vector<uint8_t> IsWeight(Task.ConstPool.size(), 0);
    for (const ParamSite &Site : Task.ParamSites)
      if (Site.Kind == ParamSlotKind::ConstPool)
        IsWeight[Site.Index] = 1;
    return IsWeight;
  };
  // Every n-ary op has 2..8 operands inside Args; a LogSumExpN's weights
  // are const-pool slots, also inside Args. Returns the LogSumExpN
  // operands whose weight is a sum weight.
  auto CheckNary = [&](const TaskProgram &Task) {
    std::vector<uint8_t> IsWeight = WeightSlots(Task);
    unsigned NumNary = 0, NumWeighted = 0;
    for (const Instruction &Inst : Task.Code) {
      if (Inst.Op != OpCode::AddN && Inst.Op != OpCode::MulN &&
          Inst.Op != OpCode::LogSumExpN)
        continue;
      ++NumNary;
      EXPECT_GE(Inst.B, 2u); // tail chunks may pair just two values
      EXPECT_LE(Inst.B, 8u); // chunked tree keeps fan-in bounded
      EXPECT_LE(static_cast<size_t>(Inst.A) + Inst.B, Task.Args.size());
      if (Inst.Op != OpCode::LogSumExpN)
        continue;
      EXPECT_LE(static_cast<size_t>(Inst.C) + Inst.B, Task.Args.size());
      for (uint32_t N = 0; N < Inst.B; ++N) {
        uint32_t Slot = Task.Args[Inst.C + N];
        EXPECT_LT(Slot, Task.ConstPool.size());
        NumWeighted += Slot < IsWeight.size() && IsWeight[Slot];
      }
    }
    EXPECT_GT(NumNary, 0u);
    return NumWeighted;
  };
  Expected<KernelProgram> Program = emit(O2);
  ASSERT_TRUE(static_cast<bool>(Program));
  CheckNary(Program->Tasks[0]);

  // On a RAT-SPN class, the weight applications feeding the n-ary
  // log-sum-exps are gone: a Const still reads a sum weight only where
  // the weight's child is a single-use product (the product's AddN
  // keeps it) or its sum has two children (a binary LogSumExp of two
  // Add terms).
  workloads::RatSpnOptions Rat;
  Rat.NumFeatures = 16;
  Rat.Depth = 2;
  Rat.Replicas = 2;
  Rat.SumsPerRegion = 3;
  Rat.LeafDistributions = 4;
  Rat.Seed = 17;
  Model = std::make_unique<spn::Model>(workloads::generateRatSpn(Rat, 0));
  Program = emit(O2);
  ASSERT_TRUE(static_cast<bool>(Program));
  const TaskProgram &Task = Program->Tasks[0];
  EXPECT_GT(CheckNary(Task), 0u);
  std::vector<uint8_t> IsWeight = WeightSlots(Task);
  // Per register: holds a weight Const / an Add of one.
  std::vector<uint8_t> Weight(Task.NumRegisters, 0);
  std::vector<uint8_t> Term(Task.NumRegisters, 0);
  for (size_t I = 0; I < Task.Code.size(); ++I) {
    const Instruction &Inst = Task.Code[I];
    std::vector<uint32_t> Reads;
    switch (Inst.Op) {
    case OpCode::AddN:
    case OpCode::MulN:
    case OpCode::LogSumExpN:
      Reads.assign(Task.Args.begin() + Inst.A,
                   Task.Args.begin() + Inst.A + Inst.B);
      break;
    case OpCode::Store:
      Reads = {Inst.Dst};
      break;
    case OpCode::GaussianLog:
      Reads = {Inst.A};
      break;
    case OpCode::Add:
    case OpCode::LogSumExp:
      Reads = {Inst.A, Inst.B};
      break;
    default:
      break;
    }
    for (uint32_t Reg : Reads) {
      EXPECT_TRUE(!Weight[Reg] || Inst.Op == OpCode::AddN ||
                  Inst.Op == OpCode::Add)
          << "instruction " << I << " reads a sum weight in r" << Reg;
      EXPECT_TRUE(!Term[Reg] || Inst.Op == OpCode::LogSumExp)
          << "instruction " << I << " reads an unabsorbed weighted term r"
          << Reg;
    }
    if (Inst.Op == OpCode::Store)
      continue;
    bool IsWeightConst = Inst.Op == OpCode::Const && IsWeight[Inst.A];
    bool IsTerm =
        Inst.Op == OpCode::Add && (Weight[Inst.A] || Weight[Inst.B]);
    Weight[Inst.Dst] = IsWeightConst;
    Term[Inst.Dst] = IsTerm;
  }
}

TEST_F(CodegenTest, ChainCollapseKeepsRegisterPressureBounded) {
  codegen::CodegenOptions O1;
  O1.OptLevel = 1;
  codegen::CodegenOptions O2;
  O2.OptLevel = 2;
  Expected<KernelProgram> P1 = emit(O1);
  Expected<KernelProgram> P2 = emit(O2);
  ASSERT_TRUE(static_cast<bool>(P1) && static_cast<bool>(P2));
  // Chunk placement near the operand definitions keeps the register file
  // in the same ballpark as the non-collapsed code (within ~3x), rather
  // than proportional to the largest fan-in.
  EXPECT_LT(P2->Tasks[0].NumRegisters,
            3 * P1->Tasks[0].NumRegisters + 16);
}

TEST_F(CodegenTest, LinearSpaceUsesFmaFusion) {
  codegen::CodegenOptions O1;
  O1.OptLevel = 1;
  codegen::CodegenOptions O2;
  O2.OptLevel = 2;
  Expected<KernelProgram> P1 = emit(O1, nullptr, /*LogSpace=*/false);
  Expected<KernelProgram> P2 = emit(O2, nullptr, /*LogSpace=*/false);
  ASSERT_TRUE(static_cast<bool>(P1) && static_cast<bool>(P2));
  auto CountFma = [](const KernelProgram &Program) {
    unsigned Count = 0;
    for (const Instruction &Inst : Program.Tasks[0].Code)
      if (Inst.Op == OpCode::FusedMulAdd)
        ++Count;
    return Count;
  };
  EXPECT_EQ(CountFma(*P1), 0u);
  EXPECT_GT(CountFma(*P2), 0u);
}

TEST_F(CodegenTest, ConstantPoolSharesEqualStructuralValues) {
  // A hand-built bufferized kernel: out = x * c0 * c1 * ... for the
  // constants below, baked (untagged) or tunable (`param`-tagged).
  struct PoolCase {
    double Value;
    int64_t Param; // -1: a structural constant.
    uint32_t Slot; // The const-pool slot its Const must read.
  };
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const PoolCase Cases[] = {
      {+0.0, -1, 0}, {-0.0, -1, 0}, // +0.0 == -0.0: one slot.
      {NaN, -1, 1},  {-NaN, -1, 1}, // Every NaN: one slot.
      {2.5, 0, 2},                  // A parameter gets its own slot...
      {2.5, -1, 3},                 // ...which no equal constant reuses,
      {2.5, 1, 4},                  // nor another parameter.
      {2.5, -1, 3},  {+0.0, -1, 0},
  };
  lospn::registerLoSPNDialect(Ctx);
  Module = ModuleOp::create(Ctx);
  OpBuilder Builder = OpBuilder::atBlockEnd(Ctx, &Module.get().getBody());
  Type F64 = FloatType::getF64(Ctx);
  auto Kernel = Builder.create<lospn::KernelOp>("k", 1u);
  Block &KBody = Kernel->getRegion(0).emplaceBlock();
  Value In = KBody.addArgument(
      MemRefType::get(Ctx, {TypeStorage::kDynamic, 1}, F64));
  Value Out = KBody.addArgument(
      MemRefType::get(Ctx, {1, TypeStorage::kDynamic}, F64));
  OpBuilder KB = OpBuilder::atBlockEnd(Ctx, &KBody);
  Value TaskOperands[2] = {In, Out};
  auto Task = KB.create<lospn::TaskOp>(
      std::span<const Value>(TaskOperands), std::span<const Type>{}, 8u,
      1u);
  KB.create<lospn::ReturnOp>(std::span<const Value>{});
  Block &TBody = Task->getRegion(0).emplaceBlock();
  Value Index = TBody.addArgument(IndexType::get(Ctx));
  Value InArg = TBody.addArgument(In.getType());
  Value OutArg = TBody.addArgument(Out.getType());
  OpBuilder TB = OpBuilder::atBlockEnd(Ctx, &TBody);
  Value X =
      TB.create<lospn::BatchReadOp>(InArg, Index, 0u, false)->getResult(0);
  Value BodyOperands[1] = {X};
  Type BodyResults[1] = {F64};
  auto Body = TB.create<lospn::BodyOp>(std::span<const Value>(BodyOperands),
                                       std::span<const Type>(BodyResults));
  Block &Inner = Body->getRegion(0).emplaceBlock();
  Value Product = Inner.addArgument(F64);
  OpBuilder B = OpBuilder::atBlockEnd(Ctx, &Inner);
  for (const PoolCase &Case : Cases) {
    Operation *Const = B.create<lospn::ConstantOp>(Case.Value, F64)
                           .getOperation();
    if (Case.Param >= 0)
      Const->setAttr("param", IntAttr::get(Ctx, Case.Param));
    Product =
        B.create<lospn::MulOp>(Product, Const->getResult(0))->getResult(0);
  }
  Value Yielded[1] = {Product};
  B.create<lospn::YieldOp>(std::span<const Value>(Yielded));
  Value Written[1] = {Body->getResult(0)};
  TB.create<lospn::BatchWriteOp>(OutArg, Index,
                                 std::span<const Value>(Written), true);

  codegen::CodegenOptions O0;
  O0.OptLevel = 0;
  Expected<KernelProgram> Program =
      codegen::emitKernelProgram(lospn::KernelOp(Kernel.getOperation()), O0);
  ASSERT_TRUE(static_cast<bool>(Program)) << Program.getError().message();
  const TaskProgram &Emitted = Program->Tasks.front();
  std::vector<uint32_t> Slots;
  for (const Instruction &Inst : Emitted.Code)
    if (Inst.Op == OpCode::Const)
      Slots.push_back(Inst.A);
  ASSERT_EQ(Slots.size(), std::size(Cases));
  for (size_t I = 0; I < Slots.size(); ++I)
    EXPECT_EQ(Slots[I], Cases[I].Slot) << "constant " << I;
  ASSERT_EQ(Emitted.ConstPool.size(), 5u);
  EXPECT_FALSE(std::signbit(Emitted.ConstPool[0])); // The first zero's.
  EXPECT_TRUE(std::isnan(Emitted.ConstPool[1]));
  // The two parameters and nothing else are tunable.
  std::vector<uint32_t> ParamSlots;
  for (const ParamSite &Site : Emitted.ParamSites)
    if (Site.Kind == ParamSlotKind::ConstPool)
      ParamSlots.push_back(Site.Index);
  EXPECT_EQ(ParamSlots, (std::vector<uint32_t>{2, 4}));
}

} // namespace
