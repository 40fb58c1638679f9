//===- transforms_test.cpp - Compilation pass tests ----------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural tests for the target-independent passes (paper §IV-A):
/// HiSPN->LoSPN lowering, task partitioning, bufferization with and
/// without copy avoidance, and GPU transfer elimination. Partitioning and
/// bufferization move the arithmetic ops rather than copy them; the
/// tests check that every op keeps its identity and relative order.
///
//===----------------------------------------------------------------------===//

#include "dialects/hispn/HiSPNOps.h"
#include "dialects/lospn/LoSPNOps.h"
#include "frontend/HiSPNTranslation.h"
#include "ir/PassManager.h"
#include "ir/Verifier.h"
#include "runtime/Pipeline.h"
#include "transforms/Passes.h"
#include "vm/ProgramBinary.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <unordered_map>
#include <unordered_set>

using namespace spnc;
using namespace spnc::ir;

namespace {

class TransformsTest : public ::testing::Test {
protected:
  void SetUp() override {
    workloads::SpeakerModelOptions Options;
    Options.TargetOperations = 300;
    Options.Seed = 5;
    Model = std::make_unique<spn::Model>(
        workloads::generateSpeakerModel(Options));
  }

  OwningOpRef<ModuleOp> translate(bool LogSpace = true) {
    spn::QueryConfig Config;
    Config.LogSpace = LogSpace;
    Config.BatchSize = 64;
    return spn::translateToHiSPN(Ctx, *Model, Config);
  }

  lospn::KernelOp getKernel(ModuleOp Module) {
    for (Operation *Op : Module.getBody())
      if (isa_op<lospn::KernelOp>(Op))
        return lospn::KernelOp(Op);
    return lospn::KernelOp(nullptr);
  }

  std::vector<lospn::TaskOp> getTasks(lospn::KernelOp Kernel) {
    std::vector<lospn::TaskOp> Tasks;
    for (Operation *Op : Kernel.getBody())
      if (isa_op<lospn::TaskOp>(Op))
        Tasks.push_back(lospn::TaskOp(Op));
    return Tasks;
  }

  /// The ops of every lo_spn.body but its yield, body by body in module
  /// order.
  std::vector<std::vector<Operation *>> getBodyOps(ModuleOp Module) {
    std::vector<std::vector<Operation *>> Bodies;
    Module.getOperation()->walk([&](Operation *Op) {
      if (!isa_op<lospn::BodyOp>(Op))
        return;
      std::vector<Operation *> &Ops = Bodies.emplace_back();
      for (Operation *Nested : Op->getRegion(0).front())
        if (!Nested->isTerminator())
          Ops.push_back(Nested);
    });
    return Bodies;
  }

  /// Expects \p Bodies to hold exactly the ops of \p Original, each body
  /// keeping their original relative order.
  void expectSameOpsInOrder(const std::vector<Operation *> &Original,
                            const std::vector<std::vector<Operation *>> &Bodies) {
    std::unordered_map<Operation *, size_t> Position;
    for (size_t I = 0; I < Original.size(); ++I)
      Position.emplace(Original[I], I);
    std::unordered_set<Operation *> Seen;
    for (const std::vector<Operation *> &Body : Bodies) {
      size_t Previous = 0;
      for (Operation *Op : Body) {
        auto It = Position.find(Op);
        ASSERT_NE(It, Position.end())
            << "'" << Op->getName() << "' is not an op of the original body";
        EXPECT_TRUE(Seen.insert(Op).second) << "op placed twice";
        if (Op != Body.front()) {
          EXPECT_LT(Previous, It->second) << "relative order changed";
        }
        Previous = It->second;
      }
    }
    EXPECT_EQ(Seen.size(), Original.size());
  }

  /// Expects every use of every value in \p Module to belong to an op of
  /// the module: an erased op left no operand behind.
  void expectUsesStayInModule(ModuleOp Module) {
    std::unordered_set<Operation *> Ops;
    Module.getOperation()->walk([&](Operation *Op) { Ops.insert(Op); });
    auto CheckUses = [&](Value V) {
      V.forEachUse([&](OpOperand &Use) {
        EXPECT_TRUE(Ops.count(Use.getOwner())) << "use of an erased op";
      });
    };
    for (Operation *Op : Ops) {
      for (unsigned I = 0; I < Op->getNumResults(); ++I)
        CheckUses(Op->getResult(I));
      for (unsigned R = 0; R < Op->getNumRegions(); ++R)
        for (auto &TheBlock : Op->getRegion(R))
          for (unsigned A = 0; A < TheBlock->getNumArguments(); ++A)
            CheckUses(TheBlock->getArgument(A));
    }
  }

  Context Ctx;
  std::unique_ptr<spn::Model> Model;
};

TEST_F(TransformsTest, LoweringProducesSingleTaskKernel) {
  OwningOpRef<ModuleOp> Module = translate();
  ASSERT_TRUE(static_cast<bool>(Module));
  PassManager PM(Ctx);
  PM.addPass(transforms::createHiSPNToLoSPNLoweringPass());
  ASSERT_TRUE(succeeded(PM.run(Module.get().getOperation())));

  lospn::KernelOp Kernel = getKernel(Module.get());
  ASSERT_TRUE(static_cast<bool>(Kernel));
  EXPECT_FALSE(Kernel.isBufferized());
  std::vector<lospn::TaskOp> Tasks = getTasks(Kernel);
  ASSERT_EQ(Tasks.size(), 1u);
  EXPECT_EQ(Tasks[0].getBatchSize(), 64u);

  // The query op is gone.
  for (Operation *Op : Module.get().getBody())
    EXPECT_FALSE(isa_op<hispn::JointQueryOp>(Op));

  // Log-space: the task result element type is !lo_spn.log<f32>.
  Type ResultTy = Tasks[0]->getResult(0).getType();
  Type Element = ResultTy.cast<TensorType>().getElementType();
  EXPECT_TRUE(lospn::isLogSpace(Element));
}

TEST_F(TransformsTest, LoweringDecomposesWeightedSums) {
  OwningOpRef<ModuleOp> Module = translate();
  PassManager PM(Ctx);
  PM.addPass(transforms::createHiSPNToLoSPNLoweringPass());
  ASSERT_TRUE(succeeded(PM.run(Module.get().getOperation())));

  // Only binary mul/add remain; no variadic ops, and every sum weight
  // became a lo_spn.constant.
  unsigned NumConstants = 0;
  Module.get().getOperation()->walk([&](Operation *Op) {
    if (isa_op<lospn::MulOp>(Op) || isa_op<lospn::AddOp>(Op)) {
      EXPECT_EQ(Op->getNumOperands(), 2u);
    }
    if (isa_op<lospn::ConstantOp>(Op))
      ++NumConstants;
  });
  EXPECT_GT(NumConstants, 0u);
}

/// Helper: resolves a linear-space query against the model, lowers it
/// at the resolved width and returns the compute element type.
static Type lowerLinearAndGetComputeType(Context &Ctx,
                                         const spn::Model &M) {
  spn::QueryConfig Config;
  Config.LogSpace = false;
  spn::QueryConfig Resolved = spn::resolveQuery(M, Config);
  EXPECT_NE(Resolved.DataType, spn::ComputeType::Auto);
  OwningOpRef<ModuleOp> Module = spn::translateToHiSPN(Ctx, M, Resolved);
  EXPECT_TRUE(static_cast<bool>(Module));
  PassManager PM(Ctx);
  PM.addPass(transforms::createHiSPNToLoSPNLoweringPass(
      Resolved.DataType == spn::ComputeType::F64 ? 64 : 32));
  EXPECT_TRUE(succeeded(PM.run(Module.get().getOperation())));
  for (Operation *Op : Module.get().getBody())
    if (isa_op<lospn::KernelOp>(Op))
      for (Operation *Task : lospn::KernelOp(Op).getBody())
        if (isa_op<lospn::TaskOp>(Task))
          return Task->getResult(0)
              .getType()
              .cast<TensorType>()
              .getElementType();
  return Type();
}

TEST_F(TransformsTest, UnderflowAnalysisSelectsF64ForWideProducts) {
  // 40 independent Gaussian factors: the product of their worst-case
  // densities underflows f32, so the query resolves to f64.
  spn::Model Wide(40);
  std::vector<spn::Node *> Factors;
  for (unsigned F = 0; F < 40; ++F)
    Factors.push_back(Wide.makeGaussian(F, 0.0, 1.0));
  Wide.setRoot(Wide.makeProduct(Factors));
  Type Element = lowerLinearAndGetComputeType(Ctx, Wide);
  ASSERT_TRUE(Element.isFloat());
  EXPECT_EQ(Element.cast<FloatType>().getWidth(), 64u);

  // A three-factor product stays comfortably inside f32 range.
  spn::Model Narrow(3);
  std::vector<spn::Node *> Few;
  for (unsigned F = 0; F < 3; ++F)
    Few.push_back(Narrow.makeGaussian(F, 0.0, 1.0));
  Narrow.setRoot(Narrow.makeProduct(Few));
  Element = lowerLinearAndGetComputeType(Ctx, Narrow);
  ASSERT_TRUE(Element.isFloat());
  EXPECT_EQ(Element.cast<FloatType>().getWidth(), 32u);
}

TEST_F(TransformsTest, MinLogProbabilityBoundIsConservative) {
  // product(gaussian, categorical(min 0.1)), mixed under a 0.5/0.5 sum
  // with a plain categorical: bound = max over the weighted children.
  spn::Model M(2);
  spn::Node *G = M.makeGaussian(0, 0.0, 2.0);
  spn::Node *C = M.makeCategorical(1, {0.1, 0.9});
  spn::Node *P = M.makeProduct({G, C});
  spn::Node *C2 = M.makeCategorical(0, {0.5, 0.5});
  spn::Node *C3 = M.makeCategorical(1, {0.25, 0.75});
  spn::Node *P2 = M.makeProduct({C2, C3});
  M.setRoot(M.makeSum({P, P2}, {0.5, 0.5}));
  double Bound = M.minLogProbabilityBound();
  // Branch 1: gaussian(k=4 sigma, sd=2) + log 0.1; branch 2:
  // log 0.5 + log 0.25; both plus log 0.5 mixture weight; bound = max.
  double Gaussian = -0.5 * 16 - std::log(2.0) - 0.91893853320467274178;
  double Branch1 = std::log(0.5) + Gaussian + std::log(0.1);
  double Branch2 = std::log(0.5) + std::log(0.5) + std::log(0.25);
  EXPECT_NEAR(Bound, std::max(Branch1, Branch2), 1e-12);
  // It must truly be a lower bound for in-range samples.
  double Sample[2] = {1.0, 1.0};
  EXPECT_GE(M.evalLogLikelihood(std::span<const double>(Sample, 2)),
            Bound);
}

TEST_F(TransformsTest, PartitioningSplitsLargeTasks) {
  OwningOpRef<ModuleOp> Module = translate();
  PassManager PM(Ctx);
  PM.addPass(transforms::createHiSPNToLoSPNLoweringPass());
  partition::PartitionOptions Options;
  Options.MaxPartitionSize = 50;
  PM.addPass(transforms::createTaskPartitioningPass(Options));
  ASSERT_TRUE(succeeded(PM.run(Module.get().getOperation())));
  ASSERT_TRUE(succeeded(verify(Module.get().getOperation())));

  lospn::KernelOp Kernel = getKernel(Module.get());
  std::vector<lospn::TaskOp> Tasks = getTasks(Kernel);
  EXPECT_GT(Tasks.size(), 1u);

  // Every task body respects the size bound (with slack).
  for (lospn::TaskOp Task : Tasks) {
    unsigned BodyOps = 0;
    Task.getOperation()->walk([&](Operation *Op) {
      if (Op->getParentOp() && isa_op<lospn::BodyOp>(Op->getParentOp()))
        ++BodyOps;
    });
    EXPECT_LE(BodyOps, 52u); // 50 + 1% slack + the forced root move
  }

  // The last task feeds the kernel return; intermediate results flow
  // through tensors between tasks in order.
  Operation *Return = Kernel.getBody().getTerminator();
  ASSERT_EQ(Return->getNumOperands(), 1u);
  EXPECT_EQ(Return->getOperand(0).getDefiningOp(),
            Tasks.back().getOperation());
}

TEST_F(TransformsTest, PartitioningMovesOpsIntoTheNewTasks) {
  OwningOpRef<ModuleOp> Module = translate();
  PassManager Lower(Ctx);
  Lower.addPass(transforms::createHiSPNToLoSPNLoweringPass());
  ASSERT_TRUE(succeeded(Lower.run(Module.get().getOperation())));
  std::vector<std::vector<Operation *>> Before = getBodyOps(Module.get());
  ASSERT_EQ(Before.size(), 1u);

  PassManager Partition(Ctx);
  partition::PartitionOptions Options;
  Options.MaxPartitionSize = 50;
  Partition.addPass(transforms::createTaskPartitioningPass(Options));
  ASSERT_TRUE(succeeded(Partition.run(Module.get().getOperation())));
  ASSERT_TRUE(succeeded(verify(Module.get().getOperation())));

  std::vector<std::vector<Operation *>> After = getBodyOps(Module.get());
  EXPECT_GT(After.size(), 1u);
  expectSameOpsInOrder(Before.front(), After);
  expectUsesStayInModule(Module.get());
}

TEST_F(TransformsTest, PartitioningRejectsBodiesItCannotSplit) {
  // The partitioner numbers one value per body op and reads operands
  // only from the body: a body breaking either rule fails the pass with
  // a diagnostic instead of leaving dangling uses behind.
  auto Run = [&](const std::function<void(Block &)> &Break) {
    OwningOpRef<ModuleOp> Module = translate();
    PassManager Lower(Ctx);
    Lower.addPass(transforms::createHiSPNToLoSPNLoweringPass());
    EXPECT_TRUE(succeeded(Lower.run(Module.get().getOperation())));
    Module.get().getOperation()->walk([&](Operation *Op) {
      if (isa_op<lospn::BodyOp>(Op))
        Break(Op->getRegion(0).front());
    });
    std::string Diagnostic;
    auto Previous = Ctx.setDiagnosticHandler(
        [&](const std::string &Message) {
          if (Diagnostic.empty())
            Diagnostic = Message;
        });
    PassManager Partition(Ctx, /*VerifyAfterEachPass=*/false);
    partition::PartitionOptions Options;
    Options.MaxPartitionSize = 50;
    Partition.addPass(transforms::createTaskPartitioningPass(Options));
    EXPECT_TRUE(failed(Partition.run(Module.get().getOperation())));
    Ctx.setDiagnosticHandler(std::move(Previous));
    return Diagnostic;
  };

  std::string TwoResults = Run([&](Block &Body) {
    OperationState State("test.pair");
    Type Ty = Body.getArgument(0).getType();
    State.addResultType(Ty);
    State.addResultType(Ty);
    Body.insertBefore(std::prev(Body.end()), Operation::create(Ctx, State));
  });
  EXPECT_NE(TwoResults.find("must have one result"), std::string::npos)
      << TwoResults;

  std::string Outside = Run([&](Block &Body) {
    // Read the batch_extract feeding body argument 0 directly.
    for (Operation *Op : Body)
      for (unsigned I = 0; I < Op->getNumOperands(); ++I)
        if (Op->getOperand(I) == Body.getArgument(0)) {
          Op->setOperand(I, Body.getParentOp()->getOperand(0));
          return;
        }
  });
  EXPECT_NE(Outside.find("defined outside its task body"), std::string::npos)
      << Outside;
}

TEST_F(TransformsTest, PartitioningIsNoOpForSmallTasks) {
  OwningOpRef<ModuleOp> Module = translate();
  PassManager PM(Ctx);
  PM.addPass(transforms::createHiSPNToLoSPNLoweringPass());
  partition::PartitionOptions Options;
  Options.MaxPartitionSize = 1000000;
  PM.addPass(transforms::createTaskPartitioningPass(Options));
  ASSERT_TRUE(succeeded(PM.run(Module.get().getOperation())));
  EXPECT_EQ(getTasks(getKernel(Module.get())).size(), 1u);
}

TEST_F(TransformsTest, BufferizationProducesMemRefForm) {
  OwningOpRef<ModuleOp> Module = translate();
  PassManager PM(Ctx);
  PM.addPass(transforms::createHiSPNToLoSPNLoweringPass());
  partition::PartitionOptions PartOptions;
  PartOptions.MaxPartitionSize = 50;
  PM.addPass(transforms::createTaskPartitioningPass(PartOptions));
  PM.addPass(transforms::createBufferizationPass());
  ASSERT_TRUE(succeeded(PM.run(Module.get().getOperation())));
  ASSERT_TRUE(succeeded(verify(Module.get().getOperation())));

  lospn::KernelOp Kernel = getKernel(Module.get());
  ASSERT_TRUE(static_cast<bool>(Kernel));
  EXPECT_TRUE(Kernel.isBufferized());
  // Inputs + one output, all memrefs.
  Block &Body = Kernel.getBody();
  EXPECT_EQ(Kernel.getNumInputs(), 1u);
  EXPECT_EQ(Body.getNumArguments(), 2u);
  for (unsigned I = 0; I < Body.getNumArguments(); ++I)
    EXPECT_TRUE(Body.getArgument(I).getType().isa<MemRefType>());

  // No tensor-typed values anywhere; batch access ops are the memref
  // variants; copy avoidance leaves no lo_spn.copy.
  unsigned NumAllocs = 0, NumDeallocs = 0, NumCopies = 0;
  Module.get().getOperation()->walk([&](Operation *Op) {
    for (unsigned I = 0; I < Op->getNumResults(); ++I)
      EXPECT_FALSE(Op->getResult(I).getType().isa<TensorType>())
          << Op->getName();
    EXPECT_FALSE(isa_op<lospn::BatchExtractOp>(Op));
    EXPECT_FALSE(isa_op<lospn::BatchCollectOp>(Op));
    if (isa_op<lospn::AllocOp>(Op))
      ++NumAllocs;
    if (isa_op<lospn::DeallocOp>(Op))
      ++NumDeallocs;
    if (isa_op<lospn::CopyOp>(Op))
      ++NumCopies;
  });
  EXPECT_GT(NumAllocs, 0u);      // intermediates between tasks
  EXPECT_EQ(NumAllocs, NumDeallocs);
  EXPECT_EQ(NumCopies, 0u);      // paper §IV-A5 copy avoidance
}

TEST_F(TransformsTest, BufferizationMovesTaskBodies) {
  OwningOpRef<ModuleOp> Module = translate();
  PassManager Partition(Ctx);
  Partition.addPass(transforms::createHiSPNToLoSPNLoweringPass());
  partition::PartitionOptions PartOptions;
  PartOptions.MaxPartitionSize = 50;
  Partition.addPass(transforms::createTaskPartitioningPass(PartOptions));
  ASSERT_TRUE(succeeded(Partition.run(Module.get().getOperation())));
  std::vector<Operation *> BodiesBefore;
  std::vector<Operation *> OpsBefore;
  Module.get().getOperation()->walk([&](Operation *Op) {
    if (isa_op<lospn::BodyOp>(Op))
      BodiesBefore.push_back(Op);
  });
  for (const std::vector<Operation *> &Body : getBodyOps(Module.get()))
    OpsBefore.insert(OpsBefore.end(), Body.begin(), Body.end());
  ASSERT_GT(BodiesBefore.size(), 1u);

  PassManager Bufferize(Ctx);
  Bufferize.addPass(transforms::createBufferizationPass());
  ASSERT_TRUE(succeeded(Bufferize.run(Module.get().getOperation())));
  ASSERT_TRUE(succeeded(verify(Module.get().getOperation())));

  // The same body ops, now in memref-form tasks, in the same order.
  std::vector<Operation *> BodiesAfter;
  Module.get().getOperation()->walk([&](Operation *Op) {
    if (isa_op<lospn::BodyOp>(Op)) {
      BodiesAfter.push_back(Op);
      EXPECT_TRUE(lospn::KernelOp(Op->getParentOp()->getParentOp())
                      .isBufferized());
    }
  });
  EXPECT_EQ(BodiesAfter, BodiesBefore);
  expectSameOpsInOrder(OpsBefore, getBodyOps(Module.get()));
  expectUsesStayInModule(Module.get());
}

TEST_F(TransformsTest, BufferizationWithoutCopyAvoidanceEmitsCopies) {
  OwningOpRef<ModuleOp> Module = translate();
  PassManager PM(Ctx);
  PM.addPass(transforms::createHiSPNToLoSPNLoweringPass());
  transforms::BufferizationOptions Options;
  Options.AvoidCopies = false;
  PM.addPass(transforms::createBufferizationPass(Options));
  ASSERT_TRUE(succeeded(PM.run(Module.get().getOperation())));

  unsigned NumCopies = 0;
  Module.get().getOperation()->walk([&](Operation *Op) {
    if (isa_op<lospn::CopyOp>(Op))
      ++NumCopies;
  });
  EXPECT_EQ(NumCopies, 1u); // the returned tensor is copied out
}

TEST_F(TransformsTest, GpuTransferEliminationMarksIntermediates) {
  OwningOpRef<ModuleOp> Module = translate();
  PassManager PM(Ctx);
  PM.addPass(transforms::createHiSPNToLoSPNLoweringPass());
  partition::PartitionOptions PartOptions;
  PartOptions.MaxPartitionSize = 50;
  PM.addPass(transforms::createTaskPartitioningPass(PartOptions));
  PM.addPass(transforms::createBufferizationPass());
  PM.addPass(transforms::createGpuBufferTransferEliminationPass());
  ASSERT_TRUE(succeeded(PM.run(Module.get().getOperation())));

  unsigned NumResident = 0, NumAllocs = 0;
  Module.get().getOperation()->walk([&](Operation *Op) {
    if (lospn::AllocOp Alloc = dyn_cast_op<lospn::AllocOp>(Op)) {
      ++NumAllocs;
      if (Alloc.isDeviceResident())
        ++NumResident;
    }
  });
  EXPECT_GT(NumAllocs, 0u);
  EXPECT_EQ(NumResident, NumAllocs); // all intermediates stay on device
}

TEST_F(TransformsTest, VerifiedPartitionedCompileEmitsTheSameProgram) {
  // A RAT-SPN split into many small tasks: the verifier runs after
  // partition-tasks and bufferize and must not change what is emitted.
  workloads::RatSpnOptions Rat;
  Rat.NumFeatures = 64;
  Rat.Depth = 3;
  Rat.Replicas = 2;
  Rat.SumsPerRegion = 4;
  Rat.LeafDistributions = 8;
  spn::Model RatSpn = workloads::generateRatSpn(Rat, 0);
  runtime::CompilerOptions Options;
  Options.OptLevel = 2;
  Options.MaxPartitionSize = 80;
  auto Compile = [&](bool Verify) {
    Expected<runtime::CompilationPipeline> Pipeline =
        runtime::CompilationPipeline::create(Options);
    EXPECT_TRUE(static_cast<bool>(Pipeline));
    if (Verify) {
      EXPECT_FALSE(Pipeline->enableVerifyAfterEachStage());
    }
    Expected<vm::KernelProgram> Program =
        Pipeline->compile(RatSpn, spn::QueryConfig());
    EXPECT_TRUE(static_cast<bool>(Program));
    EXPECT_GT(Program->Tasks.size(), 1u);
    return vm::encodeProgram(*Program);
  };
  EXPECT_EQ(Compile(/*Verify=*/true), Compile(/*Verify=*/false));
}

} // namespace
