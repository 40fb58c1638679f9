//===- Operation.cpp - The generic IR operation ----------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/Operation.h"

#include <algorithm>

using namespace spnc;
using namespace spnc::ir;

//===----------------------------------------------------------------------===//
// Block
//===----------------------------------------------------------------------===//

Block::~Block() { clear(); }

Operation *Block::getParentOp() const {
  return ParentRegion ? ParentRegion->getParentOp() : nullptr;
}

Value Block::addArgument(Type Ty) {
  auto Arg = std::make_unique<BlockArgumentImpl>(
      Ty, static_cast<unsigned>(Arguments.size()), this);
  Value Result(Arg.get());
  Arguments.push_back(std::move(Arg));
  return Result;
}

void Block::push_back(Operation *Op) { insertBefore(Operations.end(), Op); }

void Block::insertBefore(iterator Before, Operation *Op) {
  assert(Op && !Op->getBlock() && "op must be detached");
  Op->ParentBlock = this;
  Op->PositionInBlock = Operations.insert(Before, Op);
}

Operation *Block::getTerminator() {
  if (Operations.empty())
    return nullptr;
  Operation *Last = Operations.back();
  return Last->isTerminator() ? Last : nullptr;
}

void Block::dropAllReferences() {
  for (Operation *Op : Operations)
    Op->dropAllReferences();
}

void Block::numberOperations() {
  unsigned Index = 0;
  for (Operation *Op : Operations)
    Op->OrderIndex = Index++;
}

void Block::clear() {
  // One walk drops every reference of the nested tree, so the ops can
  // then be destroyed in any order without walking it again.
  dropAllReferences();
  destroyOperations();
}

void Block::destroyOperations() {
  while (!Operations.empty()) {
    Operation *Last = Operations.back();
    Operations.pop_back();
    Last->ParentBlock = nullptr;
    Last->destroy();
  }
}

//===----------------------------------------------------------------------===//
// Operation
//===----------------------------------------------------------------------===//

Operation::Operation(Context &Ctx, const OpInfo *Info, unsigned NumOperands,
                     unsigned NumResults)
    : Ctx(&Ctx), Info(Info), NumOperands(NumOperands),
      NumResults(NumResults) {}

Operation *Operation::create(Context &Ctx, const OperationState &State) {
  const OpInfo *Info = Ctx.lookupOrCreateOpInfo(State.Name);
  auto *Op = new Operation(Ctx, Info,
                           static_cast<unsigned>(State.Operands.size()),
                           static_cast<unsigned>(State.ResultTypes.size()));

  if (Op->NumOperands > 0) {
    Op->Operands = std::make_unique<OpOperand[]>(Op->NumOperands);
    for (unsigned I = 0; I < Op->NumOperands; ++I) {
      assert(State.Operands[I] && "null operand");
      Op->Operands[I].initialize(Op, I, State.Operands[I]);
    }
  }

  if (Op->NumResults > 0) {
    Op->Results = std::make_unique<OpResultImpl[]>(Op->NumResults);
    for (unsigned I = 0; I < Op->NumResults; ++I) {
      assert(State.ResultTypes[I] && "null result type");
      Op->Results[I].initialize(State.ResultTypes[I], I, Op);
    }
  }

  Op->Attrs = State.Attributes;
  std::sort(Op->Attrs.begin(), Op->Attrs.end(),
            [](const NamedAttribute &A, const NamedAttribute &B) {
              return A.Name < B.Name;
            });

  Op->Regions.reserve(State.NumRegions);
  for (unsigned I = 0; I < State.NumRegions; ++I) {
    Op->Regions.push_back(std::make_unique<Region>());
    Op->Regions.back()->ParentOp = Op;
  }
  return Op;
}

void Operation::destroy() {
  assert(!ParentBlock && "destroying an op still attached to a block");
  assert(useEmpty() && "destroying an op whose results still have uses");
  delete this;
}

Operation::~Operation() {
  // destroy() requires the references of the whole tree to be dropped
  // already: free the nested ops without walking the tree once per
  // nesting level.
  for (auto &TheRegion : Regions)
    for (auto &TheBlock : *TheRegion)
      TheBlock->destroyOperations();
}

Attribute Operation::getAttr(const std::string &Name) const {
  for (const NamedAttribute &Entry : Attrs)
    if (Entry.Name == Name)
      return Entry.Value;
  return Attribute();
}

void Operation::setAttr(const std::string &Name, Attribute Attr) {
  assert(Attr && "setting a null attribute");
  for (NamedAttribute &Entry : Attrs) {
    if (Entry.Name == Name) {
      Entry.Value = Attr;
      return;
    }
  }
  Attrs.push_back(NamedAttribute{Name, Attr});
  std::sort(Attrs.begin(), Attrs.end(),
            [](const NamedAttribute &A, const NamedAttribute &B) {
              return A.Name < B.Name;
            });
}

void Operation::removeAttr(const std::string &Name) {
  Attrs.erase(std::remove_if(Attrs.begin(), Attrs.end(),
                             [&](const NamedAttribute &Entry) {
                               return Entry.Name == Name;
                             }),
              Attrs.end());
}

int64_t Operation::getIntAttr(const std::string &Name,
                              int64_t Fallback) const {
  Attribute Attr = getAttr(Name);
  return Attr ? Attr.cast<IntAttr>().getValue() : Fallback;
}

double Operation::getFloatAttr(const std::string &Name,
                               double Fallback) const {
  Attribute Attr = getAttr(Name);
  return Attr ? Attr.cast<FloatAttr>().getValue() : Fallback;
}

bool Operation::getBoolAttr(const std::string &Name, bool Fallback) const {
  Attribute Attr = getAttr(Name);
  return Attr ? Attr.cast<BoolAttr>().getValue() : Fallback;
}

void Operation::remove() {
  assert(ParentBlock && "removing a detached op");
  ParentBlock->getOperations().erase(PositionInBlock);
  ParentBlock = nullptr;
}

void Operation::erase() {
  if (ParentBlock)
    remove();
  // Drop operand references, including those of nested ops that may use
  // values defined outside this op.
  dropAllReferences();
  destroy();
}

void Operation::moveBefore(Operation *Other) {
  assert(Other && Other->getBlock() && "target must be attached");
  remove();
  Other->getBlock()->insertBefore(Other->getIterator(), this);
}

void Operation::walk(const std::function<void(Operation *)> &Fn) {
  // Copy iteration state so the callback may erase the visited op.
  for (auto &TheRegion : Regions) {
    for (auto &TheBlock : *TheRegion) {
      auto It = TheBlock->begin();
      while (It != TheBlock->end()) {
        Operation *Current = *It;
        ++It;
        Current->walk(Fn);
      }
    }
  }
  Fn(this);
}

void Operation::dropAllReferences() {
  for (unsigned I = 0; I < NumOperands; ++I)
    Operands[I].set(Value());
  for (auto &TheRegion : Regions)
    TheRegion->dropAllReferences();
}
