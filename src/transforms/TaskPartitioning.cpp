//===- TaskPartitioning.cpp - Split oversized LoSPN tasks --------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Splits LoSPN tasks whose body exceeds the maximum partition size into a
/// sequence of smaller tasks (paper §IV-A4). The arithmetic DAG inside the
/// task body is handed to the acyclic graph partitioner; each partition
/// becomes a task that reads the external features it needs plus the
/// interface values produced by earlier partitions (via transposed
/// intermediate tensors), and publishes its own interface values. The
/// arithmetic ops move into the new task bodies rather than being copied,
/// so each keeps its identity and relative order.
///
//===----------------------------------------------------------------------===//

#include "dialects/lospn/LoSPNOps.h"
#include "transforms/Passes.h"

using namespace spnc;
using namespace spnc::ir;
using namespace spnc::lospn;
using namespace spnc::transforms;

namespace {

/// Where a task-level scalar input comes from: a feature of an external
/// container or a slot of an earlier partition's result.
struct ScalarSource {
  Value Container;      // kernel-level tensor value
  unsigned StaticIndex; // feature / slot
  bool Transposed;
};

class TaskPartitioningPass : public Pass {
public:
  explicit TaskPartitioningPass(partition::PartitionOptions Options)
      : Options(Options) {}

  const char *getName() const override { return "partition-tasks"; }

  LogicalResult run(Operation *Module, Context &Ctx) override {
    std::vector<Operation *> Kernels;
    cast_op<ModuleOp>(Module).getBody();
    for (Operation *Op : cast_op<ModuleOp>(Module).getBody())
      if (isa_op<KernelOp>(Op))
        Kernels.push_back(Op);
    for (Operation *Kernel : Kernels)
      if (failed(processKernel(KernelOp(Kernel), Ctx)))
        return failure();
    return success();
  }

private:
  LogicalResult processKernel(KernelOp Kernel, Context &Ctx) {
    std::vector<Operation *> Tasks;
    for (Operation *Op : Kernel.getBody())
      if (isa_op<TaskOp>(Op))
        Tasks.push_back(Op);
    for (Operation *Task : Tasks)
      if (failed(processTask(TaskOp(Task), Ctx)))
        return failure();
    return success();
  }

  LogicalResult processTask(TaskOp Task, Context &Ctx) {
    // Locate the body op and the collect terminator.
    BodyOp Body(nullptr);
    for (Operation *Op : Task.getBody())
      if (isa_op<BodyOp>(Op))
        Body = BodyOp(Op);
    if (!Body)
      return success(); // Nothing to partition.
    Block &Inner = Body.getBody();

    // Collect the arithmetic ops (everything but the terminator).
    std::vector<Operation *> Nodes;
    for (Operation *Op : Inner)
      if (!Op->isTerminator())
        Nodes.push_back(Op);
    if (Nodes.size() <= Options.MaxPartitionSize)
      return success();

    Operation *Yield = Inner.getTerminator();
    assert(Yield && Yield->getNumOperands() == 1 &&
           "expected single-result task body");
    Value RootValue = Yield->getOperand(0);
    Operation *RootDef = RootValue.getDefiningOp();
    if (!RootDef)
      return success(); // Root is a block argument; nothing to gain.

    // Dense value ids: body argument A is A, the node numbered N is
    // NumArgs + N. Record every node operand's id (in node and operand
    // order) and the dependence edges between nodes.
    Inner.numberOperations();
    const auto NumNodes = static_cast<uint32_t>(Nodes.size());
    const unsigned NumArgs = Inner.getNumArguments();
    std::vector<uint32_t> OperandBegin(NumNodes + 1, 0);
    std::vector<uint32_t> OperandIds;
    std::vector<partition::Edge> Edges;
    for (uint32_t N = 0; N < NumNodes; ++N) {
      Operation *Op = Nodes[N];
      assert(Op->getOrderIndex() == N && "the terminator must end the body");
      if (Op->getNumResults() != 1) {
        Ctx.emitError("partition-tasks: '" + Op->getName() +
                      "' in a task body must have one result");
        return failure();
      }
      for (unsigned I = 0; I < Op->getNumOperands(); ++I) {
        Value Operand = Op->getOperand(I);
        Operation *Def = Operand.getDefiningOp();
        if (Def && Def->getBlock() == &Inner) {
          OperandIds.push_back(NumArgs + Def->getOrderIndex());
          Edges.push_back({Def->getOrderIndex(), N});
        } else if (Operand.getOwnerBlock() == &Inner) {
          OperandIds.push_back(Operand.getIndex());
        } else {
          Ctx.emitError("partition-tasks: '" + Op->getName() +
                        "' reads a value defined outside its task body");
          return failure();
        }
      }
      OperandBegin[N + 1] = static_cast<uint32_t>(OperandIds.size());
    }

    partition::Graph DepGraph(NumNodes, Edges);
    partition::Partitioning Partitioned =
        partition::partitionGraph(DepGraph, Options);
    uint32_t NumParts = Partitioned.NumPartitions;
    if (NumParts <= 1)
      return success();

    // Force the root into the last partition so the final task produces
    // exactly the kernel result (acyclicity holds: the root has no
    // consumers among the body ops).
    std::vector<uint32_t> &PartOf = Partitioned.NodeToPartition;
    const uint32_t RootNode = RootDef->getOrderIndex();
    PartOf[RootNode] = NumParts - 1;

    // Each partition's nodes in original order, and the nodes whose
    // value a later partition reads (or the root): the interface values.
    std::vector<std::vector<uint32_t>> PartNodes(NumParts);
    for (uint32_t N = 0; N < NumNodes; ++N)
      PartNodes[PartOf[N]].push_back(N);
    std::vector<uint8_t> Escapes(NumNodes, 0);
    Escapes[RootNode] = 1;
    for (uint32_t N = 0; N < NumNodes; ++N)
      for (uint32_t Pred : DepGraph.predecessors(N))
        if (PartOf[Pred] != PartOf[N])
          Escapes[Pred] = 1;

    // Map the body's block arguments back to their scalar sources (the
    // batch_extracts in the task region).
    std::vector<ScalarSource> ArgSources;
    ArgSources.reserve(NumArgs);
    for (unsigned I = 0; I < Body->getNumOperands(); ++I) {
      Value Operand = Body->getOperand(I);
      Operation *Def = Operand.getDefiningOp();
      assert(Def && isa_op<BatchExtractOp>(Def) &&
             "body operands must come from batch_extract");
      BatchExtractOp Extract(Def);
      // The extract reads from a task block arg; map it to the
      // kernel-level operand of the task.
      Value Container = Def->getOperand(0);
      assert(Container.isBlockArgument() && Container.getIndex() >= 1);
      Value KernelLevel =
          Task->getOperand(Container.getIndex() - 1);
      ArgSources.push_back(ScalarSource{KernelLevel,
                                        Extract.getStaticIndex(),
                                        Extract.getTransposed()});
    }

    Context &TheCtx = Ctx;
    OpBuilder KernelBuilder(TheCtx);
    KernelBuilder.setInsertionPoint(Task.getOperation());

    // Per node: the slot of its partition's result where it is published.
    std::vector<unsigned> PublishedSlot(NumNodes, 0);
    // Result tensor of each created task.
    std::vector<Value> PartResult(NumParts);
    // Per value id: its block argument in the body being built, or kNone.
    constexpr uint32_t kNone = ~0u;
    std::vector<uint32_t> NewArgIndex(NumArgs + NumNodes, kNone);

    Type IndexTy = IndexType::get(TheCtx);

    for (uint32_t P = 0; P < NumParts; ++P) {
      if (PartNodes[P].empty())
        continue;

      // Interface-out: values produced here and consumed later (or the
      // root in the last partition).
      std::vector<Value> InterfaceOut;
      for (uint32_t N : PartNodes[P])
        if (Escapes[N])
          InterfaceOut.push_back(Nodes[N]->getResult(0));
      assert(!InterfaceOut.empty() &&
             "a partition must publish at least one value");

      // Scalar inputs: external features and earlier interface values,
      // one per value id in first-use order.
      std::vector<uint32_t> SourceIds;
      std::vector<ScalarSource> Sources;
      for (uint32_t N : PartNodes[P]) {
        for (uint32_t I = OperandBegin[N]; I < OperandBegin[N + 1]; ++I) {
          uint32_t Id = OperandIds[I];
          if (NewArgIndex[Id] != kNone)
            continue; // Already an input of this partition.
          if (Id < NumArgs) {
            Sources.push_back(ArgSources[Id]);
          } else {
            uint32_t Def = Id - NumArgs;
            if (PartOf[Def] == P)
              continue; // Internal value.
            Sources.push_back(ScalarSource{PartResult[PartOf[Def]],
                                           PublishedSlot[Def],
                                           /*Transposed=*/true});
          }
          NewArgIndex[Id] = static_cast<uint32_t>(SourceIds.size());
          SourceIds.push_back(Id);
        }
      }

      // Create the new task.
      std::vector<Value> TaskOperands;
      auto OperandIndexOf = [&](Value Container) {
        for (size_t I = 0; I < TaskOperands.size(); ++I)
          if (TaskOperands[I] == Container)
            return static_cast<unsigned>(I);
        TaskOperands.push_back(Container);
        return static_cast<unsigned>(TaskOperands.size() - 1);
      };
      for (const ScalarSource &Source : Sources)
        OperandIndexOf(Source.Container);

      Type ComputeTy = InterfaceOut.front().getType();
      Type ResultTy = TensorType::get(
          TheCtx,
          {static_cast<int64_t>(InterfaceOut.size()),
           TypeStorage::kDynamic},
          ComputeTy);
      Type ResultTypes[1] = {ResultTy};
      auto NewTask = KernelBuilder.create<TaskOp>(
          std::span<const Value>(TaskOperands),
          std::span<const Type>(ResultTypes), Task.getBatchSize(),
          static_cast<unsigned>(TaskOperands.size()));
      Block &NewTaskBlock = NewTask->getRegion(0).emplaceBlock();
      Value BatchIndex = NewTaskBlock.addArgument(IndexTy);
      for (Value Operand : TaskOperands)
        NewTaskBlock.addArgument(Operand.getType());

      OpBuilder TaskBuilder =
          OpBuilder::atBlockEnd(TheCtx, &NewTaskBlock);

      // Extract all scalar inputs.
      std::vector<Value> BodyOperands;
      std::vector<Type> BodyOperandTypes;
      for (const ScalarSource &Source : Sources) {
        unsigned ArgIdx = OperandIndexOf(Source.Container) + 1;
        auto Extract = TaskBuilder.create<BatchExtractOp>(
            NewTaskBlock.getArgument(ArgIdx), BatchIndex,
            Source.StaticIndex, Source.Transposed);
        BodyOperands.push_back(Extract->getResult(0));
        BodyOperandTypes.push_back(Extract->getResult(0).getType());
      }

      // Body: the partition's ops move in, in original order; operands
      // read from outside the partition switch to the body's arguments.
      std::vector<Type> BodyResultTypes;
      BodyResultTypes.reserve(InterfaceOut.size());
      for (Value Out : InterfaceOut)
        BodyResultTypes.push_back(Out.getType());
      auto NewBody = TaskBuilder.create<BodyOp>(
          std::span<const Value>(BodyOperands),
          std::span<const Type>(BodyResultTypes));
      Block &NewInner = NewBody->getRegion(0).emplaceBlock();
      for (Type ArgTy : BodyOperandTypes)
        NewInner.addArgument(ArgTy);
      for (uint32_t N : PartNodes[P]) {
        Operation *Op = Nodes[N];
        Op->remove();
        NewInner.push_back(Op);
        for (uint32_t I = OperandBegin[N]; I < OperandBegin[N + 1]; ++I)
          if (uint32_t Arg = NewArgIndex[OperandIds[I]]; Arg != kNone)
            Op->setOperand(I - OperandBegin[N], NewInner.getArgument(Arg));
      }
      for (uint32_t Id : SourceIds)
        NewArgIndex[Id] = kNone;
      OpBuilder InnerBuilder = OpBuilder::atBlockEnd(TheCtx, &NewInner);
      InnerBuilder.create<YieldOp>(std::span<const Value>(InterfaceOut));

      // Collect terminator.
      std::vector<Value> Collected;
      Collected.reserve(InterfaceOut.size());
      for (unsigned I = 0; I < InterfaceOut.size(); ++I)
        Collected.push_back(NewBody->getResult(I));
      TaskBuilder.create<BatchCollectOp>(
          BatchIndex, std::span<const Value>(Collected),
          /*Transposed=*/true);

      // Publish slots.
      PartResult[P] = NewTask->getResult(0);
      unsigned Slot = 0;
      for (uint32_t N : PartNodes[P])
        if (Escapes[N])
          PublishedSlot[N] = Slot++;
    }

    // Rewire the kernel result to the last partition's tensor and drop
    // the original task, which only holds its extracts, the emptied body
    // and its collect.
    Value NewResult = PartResult[PartOf[RootNode]];
    Task->getResult(0).replaceAllUsesWith(NewResult);
    Task.getOperation()->erase();
    return success();
  }

  partition::PartitionOptions Options;
};

} // namespace

std::unique_ptr<Pass> spnc::transforms::createTaskPartitioningPass(
    partition::PartitionOptions Options) {
  return std::make_unique<TaskPartitioningPass>(Options);
}
