//===- Bufferization.cpp - Tensor-to-memref conversion -----------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rewrites LoSPN kernels from tensor form to memref form (paper §IV-A5):
/// kernel and task signatures switch to buffers, tensor-typed task results
/// become output-buffer arguments, batch_extract/batch_collect become
/// batch_read/batch_write, intermediate buffers are allocated and
/// deallocated explicitly. With copy avoidance enabled, a task result that
/// the kernel returns is written directly into the kernel output buffer;
/// otherwise an intermediate buffer plus an explicit lo_spn.copy is used.
/// Task bodies move into the memref-form tasks with their regions; only
/// the batch access ops are rebuilt.
///
//===----------------------------------------------------------------------===//

#include "dialects/lospn/LoSPNOps.h"
#include "transforms/Passes.h"

#include <unordered_map>

using namespace spnc;
using namespace spnc::ir;
using namespace spnc::lospn;
using namespace spnc::transforms;

namespace {

static MemRefType toMemRef(Type TensorTy) {
  TensorType T = TensorTy.cast<TensorType>();
  return MemRefType::get(T.getContext(), T.getShape(),
                         T.getElementType());
}

class BufferizationPass : public Pass {
public:
  explicit BufferizationPass(BufferizationOptions Options)
      : Options(Options) {}

  const char *getName() const override { return "bufferize"; }

  LogicalResult run(Operation *Module, Context &Ctx) override {
    std::vector<Operation *> Kernels;
    for (Operation *Op : cast_op<ModuleOp>(Module).getBody())
      if (isa_op<KernelOp>(Op) && !KernelOp(Op).isBufferized())
        Kernels.push_back(Op);
    for (Operation *Kernel : Kernels)
      if (failed(bufferizeKernel(KernelOp(Kernel), Ctx)))
        return failure();
    return success();
  }

private:
  LogicalResult bufferizeKernel(KernelOp Kernel, Context &Ctx) {
    Block &OldBody = Kernel.getBody();
    Operation *Return = OldBody.getTerminator();
    assert(Return && isa_op<ReturnOp>(Return) && "kernel must return");

    OpBuilder Builder(Ctx);
    Builder.setInsertionPoint(Kernel.getOperation());
    auto NewKernel = Builder.create<KernelOp>(Kernel.getKernelName(),
                                              Kernel.getNumInputs());
    Block &NewBody = NewKernel->getRegion(0).emplaceBlock();

    // Kernel inputs become input memrefs.
    std::unordered_map<ValueImpl *, Value> BufferOf;
    for (unsigned I = 0; I < OldBody.getNumArguments(); ++I) {
      Value OldArg = OldBody.getArgument(I);
      BufferOf[OldArg.getImpl()] =
          NewBody.addArgument(toMemRef(OldArg.getType()));
    }
    // Returned tensors become output memrefs.
    std::unordered_map<ValueImpl *, Value> OutputBufferOf;
    for (unsigned I = 0; I < Return->getNumOperands(); ++I) {
      Value Returned = Return->getOperand(I);
      OutputBufferOf[Returned.getImpl()] =
          NewBody.addArgument(toMemRef(Returned.getType()));
    }

    Builder.setInsertionPointToEnd(&NewBody);

    // Last task consuming each intermediate tensor, for dealloc
    // placement.
    std::unordered_map<ValueImpl *, Operation *> LastUser;
    for (Operation *Op : OldBody)
      for (unsigned I = 0; I < Op->getNumOperands(); ++I)
        LastUser[Op->getOperand(I).getImpl()] = Op;

    // Deallocs to emit after a given original task is processed.
    std::unordered_map<Operation *, std::vector<Value>> PendingDeallocs;

    for (Operation *Op : OldBody) {
      if (isa_op<ReturnOp>(Op))
        continue;
      TaskOp Task = dyn_cast_op<TaskOp>(Op);
      if (!Task) {
        Kernel.getContext().emitError(
            "unexpected op in kernel body during bufferization: " +
            Op->getName());
        return failure();
      }

      // Map operand tensors to buffers.
      std::vector<Value> NewOperands;
      for (unsigned I = 0; I < Op->getNumOperands(); ++I)
        NewOperands.push_back(
            BufferOf.at(Op->getOperand(I).getImpl()));
      unsigned NumInputs = static_cast<unsigned>(NewOperands.size());

      // Allocate / route result buffers.
      std::vector<Value> ResultBuffers;
      for (unsigned I = 0; I < Op->getNumResults(); ++I) {
        Value Result = Op->getResult(I);
        auto OutputIt = OutputBufferOf.find(Result.getImpl());
        Value Buffer;
        if (OutputIt != OutputBufferOf.end() && Options.AvoidCopies) {
          // Copy avoidance: write straight into the kernel output.
          Buffer = OutputIt->second;
        } else {
          auto Alloc = Builder.create<AllocOp>(
              Type(toMemRef(Result.getType())));
          Buffer = Alloc->getResult(0);
          if (Operation *Last = LastUser.count(Result.getImpl())
                                    ? LastUser[Result.getImpl()]
                                    : nullptr;
              Last && !isa_op<ReturnOp>(Last)) {
            PendingDeallocs[Last].push_back(Buffer);
          }
          if (OutputIt != OutputBufferOf.end()) {
            // Ablation mode: materialize the copy the optimization would
            // have avoided.
            PendingCopies.emplace_back(Buffer, OutputIt->second);
          }
        }
        BufferOf[Result.getImpl()] = Buffer;
        ResultBuffers.push_back(Buffer);
      }
      NewOperands.insert(NewOperands.end(), ResultBuffers.begin(),
                         ResultBuffers.end());

      // Create the memref-form task.
      auto NewTask = Builder.create<TaskOp>(
          std::span<const Value>(NewOperands), std::span<const Type>{},
          Task.getBatchSize(), NumInputs);
      Block &NewTaskBlock = NewTask->getRegion(0).emplaceBlock();
      NewTaskBlock.addArgument(IndexType::get(Ctx)); // the batch index
      for (Value Operand : NewOperands)
        NewTaskBlock.addArgument(Operand.getType());

      // Move the task's contents over: its block arguments switch to
      // the memref-form ones, extract/collect become read/write, and the
      // body moves with its region.
      Block &OldTaskBlock = Task.getBody();
      for (unsigned I = 0; I < OldTaskBlock.getNumArguments(); ++I)
        OldTaskBlock.getArgument(I).replaceAllUsesWith(
            NewTaskBlock.getArgument(I));
      OpBuilder TaskBuilder = OpBuilder::atBlockEnd(Ctx, &NewTaskBlock);
      for (auto It = OldTaskBlock.begin(); It != OldTaskBlock.end();) {
        Operation *Nested = *It++;
        if (BatchExtractOp Extract = dyn_cast_op<BatchExtractOp>(Nested)) {
          auto Read = TaskBuilder.create<BatchReadOp>(
              Nested->getOperand(0), Nested->getOperand(1),
              Extract.getStaticIndex(), Extract.getTransposed());
          Nested->getResult(0).replaceAllUsesWith(Read->getResult(0));
          continue;
        }
        if (BatchCollectOp Collect = dyn_cast_op<BatchCollectOp>(Nested)) {
          std::vector<Value> Values = Nested->getOperands();
          Values.erase(Values.begin()); // the batch index
          // One batch_write per result buffer; the single-result case
          // (the common one) writes all values to the one buffer.
          TaskBuilder.create<BatchWriteOp>(
              NewTaskBlock.getArgument(
                  static_cast<unsigned>(NumInputs) + 1),
              Nested->getOperand(0), std::span<const Value>(Values),
              Collect.getTransposed());
          continue;
        }
        Nested->remove();
        NewTaskBlock.push_back(Nested);
      }

      // Copies and deallocs scheduled after this task.
      for (auto &[Src, Dst] : PendingCopies)
        Builder.create<CopyOp>(Src, Dst);
      PendingCopies.clear();
      auto DeallocIt = PendingDeallocs.find(Op);
      if (DeallocIt != PendingDeallocs.end())
        for (Value Buffer : DeallocIt->second)
          Builder.create<DeallocOp>(Buffer);
    }

    Builder.create<ReturnOp>(std::span<const Value>{});

    // Fix the output-count bookkeeping: numInputs counts only the input
    // args; outputs follow.
    NewKernel->setAttr("numInputs",
                       IntAttr::get(Ctx, Kernel.getNumInputs()));
    Kernel.getOperation()->erase();
    return success();
  }

  BufferizationOptions Options;
  std::vector<std::pair<Value, Value>> PendingCopies;
};

class GpuTransferEliminationPass : public Pass {
public:
  const char *getName() const override {
    return "gpu-transfer-elimination";
  }

  LogicalResult run(Operation *Module, Context &Ctx) override {
    // Intermediate buffers never observed by the host can stay on the
    // device: mark every alloc whose buffer is only used by tasks (and
    // its dealloc) as device-resident.
    Module->walk([&](Operation *Op) {
      if (!isa_op<AllocOp>(Op))
        return;
      bool OnlyTaskUses = true;
      Op->getResult(0).forEachUse([&](OpOperand &Use) {
        Operation *User = Use.getOwner();
        if (!isa_op<TaskOp>(User) && !isa_op<DeallocOp>(User))
          OnlyTaskUses = false;
      });
      if (OnlyTaskUses)
        Op->setAttr("deviceResident", UnitAttr::get(Ctx));
    });
    return success();
  }
};

} // namespace

std::unique_ptr<Pass>
spnc::transforms::createBufferizationPass(BufferizationOptions Options) {
  return std::make_unique<BufferizationPass>(Options);
}

std::unique_ptr<Pass>
spnc::transforms::createGpuBufferTransferEliminationPass() {
  return std::make_unique<GpuTransferEliminationPass>();
}
