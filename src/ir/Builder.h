//===- Builder.h - IR construction helper -----------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// OpBuilder maintains an insertion point and constructs operations,
/// mirroring mlir::OpBuilder. Typed ops are created through
/// `create<OpTy>(...)`, which forwards to the op class's static `build`
/// method.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_IR_BUILDER_H
#define SPNC_IR_BUILDER_H

#include "ir/Operation.h"

namespace spnc {
namespace ir {

class OpBuilder {
public:
  explicit OpBuilder(Context &Ctx) : Ctx(&Ctx) {}

  /// Returns a builder inserting at the end of \p TheBlock.
  static OpBuilder atBlockEnd(Context &Ctx, Block *TheBlock) {
    OpBuilder Builder(Ctx);
    Builder.setInsertionPointToEnd(TheBlock);
    return Builder;
  }

  /// Returns a builder inserting at the start of \p TheBlock.
  static OpBuilder atBlockBegin(Context &Ctx, Block *TheBlock) {
    OpBuilder Builder(Ctx);
    Builder.setInsertionPointToStart(TheBlock);
    return Builder;
  }

  Context &getContext() { return *Ctx; }

  void setInsertionPointToStart(Block *TheBlock) {
    InsertBlock = TheBlock;
    InsertPoint = TheBlock->begin();
  }
  void setInsertionPointToEnd(Block *TheBlock) {
    InsertBlock = TheBlock;
    InsertPoint = TheBlock->end();
  }
  /// Sets the insertion point directly before \p Op.
  void setInsertionPoint(Operation *Op) {
    InsertBlock = Op->getBlock();
    assert(InsertBlock && "op must be attached");
    InsertPoint = Op->getIterator();
  }
  /// Sets the insertion point directly after \p Op.
  void setInsertionPointAfter(Operation *Op) {
    InsertBlock = Op->getBlock();
    assert(InsertBlock && "op must be attached");
    InsertPoint = std::next(Op->getIterator());
  }
  void clearInsertionPoint() { InsertBlock = nullptr; }

  Block *getInsertionBlock() const { return InsertBlock; }
  Block::iterator getInsertionPoint() const { return InsertPoint; }

  /// Creates an operation from \p State and inserts it at the insertion
  /// point (if one is set).
  Operation *createOperation(const OperationState &State) {
    Operation *Op = Operation::create(*Ctx, State);
    notifyCreated(Op);
    if (InsertBlock)
      InsertBlock->insertBefore(InsertPoint, Op);
    return Op;
  }

  /// Creates a typed operation via OpTy::build.
  template <typename OpTy, typename... Args>
  OpTy create(Args &&...BuildArgs) {
    OperationState State(OpTy::getOperationName());
    OpTy::build(*this, State, std::forward<Args>(BuildArgs)...);
    return OpTy(createOperation(State));
  }

  virtual ~OpBuilder() = default;

protected:
  /// Hook for the rewrite driver to track newly created ops.
  virtual void notifyCreated(Operation *) {}

private:
  Context *Ctx;
  Block *InsertBlock = nullptr;
  Block::iterator InsertPoint;
};

} // namespace ir
} // namespace spnc

#endif // SPNC_IR_BUILDER_H
