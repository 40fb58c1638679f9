//===- PatternMatch.cpp - Rewrite patterns and the greedy driver ------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/PatternMatch.h"

#include <algorithm>
#include <unordered_map>

using namespace spnc;
using namespace spnc::ir;

RewritePattern::~RewritePattern() = default;

//===----------------------------------------------------------------------===//
// Folding
//===----------------------------------------------------------------------===//

Value spnc::ir::tryFold(Operation *Op, OpBuilder &Builder) {
  const OpInfo *Info = Op->getInfo();
  if (!Info->Folder || Op->getNumResults() != 1)
    return Value();

  // Collect constant operand attributes (null for non-constants).
  SmallVector<Attribute, 4> OperandConstants;
  for (unsigned I = 0; I < Op->getNumOperands(); ++I) {
    Attribute Constant;
    if (Operation *Def = Op->getOperand(I).getDefiningOp())
      if (Def->getInfo()->IsConstant)
        Constant = Def->getAttr("value");
    OperandConstants.push_back(Constant);
  }

  Attribute Folded = Info->Folder(Op, OperandConstants);
  if (!Folded)
    return Value();

  const auto &Materializer = Op->getContext().getConstantMaterializer();
  if (!Materializer)
    return Value();
  Operation *Constant =
      Materializer(Builder, Folded, Op->getResult(0).getType());
  return Constant ? Constant->getResult(0) : Value();
}

//===----------------------------------------------------------------------===//
// Greedy driver
//===----------------------------------------------------------------------===//

namespace {
struct PatternIndex {
  /// Patterns applicable to a specific op name, sorted by benefit.
  std::unordered_map<std::string, std::vector<const RewritePattern *>>
      ByName;
  /// Patterns applicable to any op.
  std::vector<const RewritePattern *> Generic;
};
} // namespace

namespace spnc {
namespace ir {

class GreedyDriver {
public:
  GreedyDriver(Operation *Scope, const PatternList &Patterns)
      : Scope(Scope), Rewriter(Scope->getContext()) {
    Rewriter.Driver = this;
    for (const auto &ThePattern : Patterns) {
      if (ThePattern->getAnchorOpName().empty())
        Index.Generic.push_back(ThePattern.get());
      else
        Index.ByName[ThePattern->getAnchorOpName()].push_back(
            ThePattern.get());
    }
    auto ByBenefit = [](const RewritePattern *A, const RewritePattern *B) {
      return A->getBenefit() > B->getBenefit();
    };
    for (auto &Entry : Index.ByName)
      std::sort(Entry.second.begin(), Entry.second.end(), ByBenefit);
    std::sort(Index.Generic.begin(), Index.Generic.end(), ByBenefit);
  }

  LogicalResult run(bool *Changed) {
    bool AnyChange = false;
    // Seed the worklist with all nested ops (post-order so producers are
    // folded before consumers).
    Scope->walk([&](Operation *Op) {
      if (Op != Scope)
        addToWorklist(Op);
    });

    // Fixpoint iteration with a generous safety bound.
    size_t Steps = 0;
    const size_t MaxSteps = 1000000 + 100 * Worklist.size();
    while (Head < Worklist.size()) {
      if (++Steps > MaxSteps) {
        clearWorklist();
        return failure(); // Pattern set does not converge.
      }
      Operation *Op = Worklist[Head++];
      if (Head == Worklist.size()) {
        Worklist.clear();
        Head = 0;
      }
      if (!Op)
        continue; // Erased while queued.
      Op->WorklistIndex = 0;

      if (processOp(Op))
        AnyChange = true;
    }
    if (Changed)
      *Changed = AnyChange;
    return success();
  }

  /// Queues \p Op at the back unless it is queued already.
  void addToWorklist(Operation *Op) {
    if (Op->WorklistIndex)
      return;
    Worklist.push_back(Op);
    Op->WorklistIndex = static_cast<unsigned>(Worklist.size());
  }

  /// Drops \p Op, about to be erased, from the worklist.
  void notifyErased(Operation *Op) {
    if (!Op->WorklistIndex)
      return;
    Worklist[Op->WorklistIndex - 1] = nullptr;
    Op->WorklistIndex = 0;
  }

  /// Queues the producers of \p Op's operands (they may have become dead)
  /// and is called right before erasing/replacing an op.
  void queueOperandProducers(Operation *Op) {
    for (unsigned I = 0; I < Op->getNumOperands(); ++I)
      if (Operation *Def = Op->getOperand(I).getDefiningOp())
        addToWorklist(Def);
  }

  /// Queues all users of \p V (their input changed).
  void queueUsers(Value V) {
    V.forEachUse([&](OpOperand &Use) { addToWorklist(Use.getOwner()); });
  }

private:
  /// Returns true if the op was rewritten or erased.
  bool processOp(Operation *Op) {
    // Trivial dead code elimination.
    if (Op->isPure() && Op->useEmpty() && !Op->isTerminator()) {
      queueOperandProducers(Op);
      Rewriter.eraseOp(Op);
      return true;
    }

    // Constant folding.
    Rewriter.setInsertionPoint(Op);
    if (Value Folded = tryFold(Op, Rewriter)) {
      if (Folded != Op->getResult(0)) {
        queueOperandProducers(Op);
        Rewriter.replaceOp(Op, Folded);
        return true;
      }
    }

    // Pattern application: name-specific first (sorted by benefit), then
    // generic.
    auto TryPatterns = [&](const std::vector<const RewritePattern *> &List) {
      for (const RewritePattern *ThePattern : List)
        if (succeeded(ThePattern->matchAndRewrite(Op, Rewriter)))
          return true;
      return false;
    };
    auto It = Index.ByName.find(Op->getName());
    if (It != Index.ByName.end() && TryPatterns(It->second))
      return true;
    return TryPatterns(Index.Generic);
  }

  /// Unqueues every op left in the worklist.
  void clearWorklist() {
    for (size_t I = Head; I < Worklist.size(); ++I)
      if (Worklist[I])
        Worklist[I]->WorklistIndex = 0;
    Worklist.clear();
    Head = 0;
  }

  Operation *Scope;
  PatternRewriter Rewriter;
  PatternIndex Index;
  /// FIFO of queued ops from Head on; an op queued here records its
  /// position + 1 in Operation::WorklistIndex, an erased one is nulled.
  std::vector<Operation *> Worklist;
  size_t Head = 0;
};

} // namespace ir
} // namespace spnc

//===----------------------------------------------------------------------===//
// PatternRewriter
//===----------------------------------------------------------------------===//

void PatternRewriter::replaceOp(Operation *Op,
                                std::span<const Value> NewValues) {
  assert(Op->getNumResults() == NewValues.size() &&
         "replacement value count mismatch");
  for (unsigned I = 0; I < Op->getNumResults(); ++I) {
    if (Driver)
      Driver->queueUsers(Op->getResult(I));
    Op->getResult(I).replaceAllUsesWith(NewValues[I]);
  }
  eraseOp(Op);
}

void PatternRewriter::eraseOp(Operation *Op) {
  assert(Op->useEmpty() && "erasing an op whose results are still used");
  if (Driver) {
    Driver->queueOperandProducers(Op);
    // Recursively drop nested ops from the worklist.
    Op->walk([&](Operation *Nested) { Driver->notifyErased(Nested); });
  }
  Op->erase();
}

void PatternRewriter::notifyChanged(Operation *Op) {
  if (!Driver)
    return;
  Driver->addToWorklist(Op);
  for (unsigned I = 0; I < Op->getNumResults(); ++I)
    Driver->queueUsers(Op->getResult(I));
}

void PatternRewriter::notifyCreated(Operation *Op) {
  if (Driver)
    Driver->addToWorklist(Op);
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

LogicalResult spnc::ir::applyPatternsGreedily(Operation *Scope,
                                              const PatternList &Patterns,
                                              bool *Changed) {
  GreedyDriver Driver(Scope, Patterns);
  return Driver.run(Changed);
}

PatternList spnc::ir::collectCanonicalizationPatterns(Context &Ctx) {
  PatternList Patterns;
  // The registry does not expose iteration over ops directly; dialects
  // register their pattern providers when loaded and we gather via the
  // per-op hooks recorded in OpInfo. See Context::forEachOpInfo.
  Ctx.forEachOpInfo([&](const OpInfo &Info) {
    if (Info.CanonicalizationPatterns)
      Info.CanonicalizationPatterns(Patterns, Ctx);
  });
  return Patterns;
}
