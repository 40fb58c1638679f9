//===- Operation.cpp - The generic IR operation ----------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/Operation.h"

#include <algorithm>
#include <cstring>

using namespace spnc;
using namespace spnc::ir;

//===----------------------------------------------------------------------===//
// Block and Region
//===----------------------------------------------------------------------===//

Block *Block::create(Context &Ctx) {
  return new (Ctx.getArena().allocate(sizeof(Block), alignof(Block)))
      Block(Ctx);
}

Operation *Block::getParentOp() const {
  return ParentRegion ? ParentRegion->getParentOp() : nullptr;
}

Value Block::addArgument(Type Ty) {
  auto *Arg = Ctx->getArena().create<BlockArgumentImpl>(Ty, NumArguments,
                                                        this);
  Ctx->getArena().append(Arguments, NumArguments, ArgumentCapacity, Arg);
  return Value(Arg);
}

void Block::push_back(Operation *Op) { insertBefore(end(), Op); }

void Block::insertBefore(iterator Before, Operation *Op) {
  assert(Op && !Op->getBlock() && "op must be detached");
  OpListNode *Next = Before.Node;
  Op->Prev = Next->Prev;
  Op->Next = Next;
  Next->Prev->Next = Op;
  Next->Prev = Op;
  Op->ParentBlock = this;
  ++NumOperations;
}

void Block::unlink(Operation *Op) {
  Op->Prev->Next = Op->Next;
  Op->Next->Prev = Op->Prev;
  Op->Prev = Op->Next = nullptr;
  Op->ParentBlock = nullptr;
  --NumOperations;
}

Operation *Block::getTerminator() {
  if (empty())
    return nullptr;
  Operation *Last = back();
  return Last->isTerminator() ? Last : nullptr;
}

void Block::dropAllReferences() {
  for (Operation *Op : *this)
    Op->dropAllReferences();
}

void Block::numberOperations() {
  unsigned Index = 0;
  for (Operation *Op : *this)
    Op->OrderIndex = Index++;
}

void Block::destroyOperations() {
  while (!empty()) {
    Operation *Last = back();
    unlink(Last);
    Last->destroy();
  }
}

Block &Region::emplaceBlock() {
  Block *TheBlock = Block::create(ParentOp->getContext());
  TheBlock->ParentRegion = this;
  ParentOp->getContext().getArena().append(Blocks, NumBlocks, Capacity,
                                           TheBlock);
  return *TheBlock;
}

//===----------------------------------------------------------------------===//
// Operation
//===----------------------------------------------------------------------===//

Operation::Operation(Context &Ctx, const OpInfo *Info, unsigned NumOperands,
                     unsigned NumResults, unsigned NumRegions,
                     unsigned NumAttrs)
    : Ctx(&Ctx), Info(Info), NumOperands(NumOperands),
      NumResults(NumResults), NumRegions(NumRegions), NumAttrs(NumAttrs),
      AttrCapacity(NumAttrs), NumInlineAttrs(NumAttrs) {
  Attrs = inlineAttrStorage();
}

/// Bytes of an op allocation: the Operation and its trailing arrays.
static size_t opAllocationSize(size_t NumOperands, size_t NumResults,
                               size_t NumRegions, size_t NumAttrs) {
  return sizeof(Operation) + NumOperands * sizeof(OpOperand) +
         NumResults * sizeof(OpResultImpl) + NumRegions * sizeof(Region) +
         NumAttrs * sizeof(NamedAttribute);
}

size_t Operation::allocationSize() const {
  return opAllocationSize(NumOperands, NumResults, NumRegions,
                          NumInlineAttrs);
}

static bool byName(const NamedAttribute &A, const NamedAttribute &B) {
  return A.Name < B.Name;
}

Operation *Operation::create(Context &Ctx, const OperationState &State) {
  const OpInfo *Info = Ctx.lookupOrCreateOpInfo(State.Name);
  auto NumOperands = static_cast<unsigned>(State.Operands.size());
  auto NumResults = static_cast<unsigned>(State.ResultTypes.size());
  auto NumAttrs = static_cast<unsigned>(State.Attributes.size());
  size_t Size =
      opAllocationSize(NumOperands, NumResults, State.NumRegions, NumAttrs);
  auto *Op = new (Ctx.getArena().allocate(Size, alignof(Operation)))
      Operation(Ctx, Info, NumOperands, NumResults, State.NumRegions,
                NumAttrs);

  OpOperand *Operands = Op->operandStorage();
  for (unsigned I = 0; I < NumOperands; ++I) {
    assert(State.Operands[I] && "null operand");
    new (&Operands[I]) OpOperand();
    Operands[I].initialize(Op, I, State.Operands[I]);
  }

  OpResultImpl *Results = Op->resultStorage();
  for (unsigned I = 0; I < NumResults; ++I) {
    assert(State.ResultTypes[I] && "null result type");
    new (&Results[I]) OpResultImpl();
    Results[I].initialize(State.ResultTypes[I], I, Op);
  }

  Region *Regions = Op->regionStorage();
  for (unsigned I = 0; I < State.NumRegions; ++I)
    new (&Regions[I]) Region(Op);

  for (unsigned I = 0; I < NumAttrs; ++I)
    new (&Op->Attrs[I])
        NamedAttribute{Ctx.internString(State.Attributes[I].Name),
                       State.Attributes[I].Value};
  std::sort(Op->Attrs, Op->Attrs + NumAttrs, byName);
  return Op;
}

void Operation::destroy() {
  assert(!ParentBlock && "destroying an op still attached to a block");
  assert(useEmpty() && "destroying an op whose results still have uses");
  // destroy() requires the references of the whole tree to be dropped
  // already: retire the nested ops without walking the tree once per
  // nesting level.
  for (unsigned R = 0; R < NumRegions; ++R)
    for (Block *TheBlock : getRegion(R))
      TheBlock->destroyOperations();
  poisonMemory(this, allocationSize());
}

Attribute Operation::getAttr(std::string_view Name) const {
  for (const NamedAttribute &Entry : getAttrs())
    if (Entry.Name == Name)
      return Entry.Value;
  return Attribute();
}

void Operation::setAttr(std::string_view Name, Attribute Attr) {
  assert(Attr && "setting a null attribute");
  for (unsigned I = 0; I < NumAttrs; ++I) {
    if (Attrs[I].Name == Name) {
      Attrs[I].Value = Attr;
      return;
    }
  }
  Ctx->getArena().append(Attrs, NumAttrs, AttrCapacity,
                         NamedAttribute{Ctx->internString(Name), Attr});
  std::sort(Attrs, Attrs + NumAttrs, byName);
}

void Operation::removeAttr(std::string_view Name) {
  NamedAttribute *End = std::remove_if(
      Attrs, Attrs + NumAttrs,
      [&](const NamedAttribute &Entry) { return Entry.Name == Name; });
  NumAttrs = static_cast<unsigned>(End - Attrs);
}

int64_t Operation::getIntAttr(std::string_view Name,
                              int64_t Fallback) const {
  Attribute Attr = getAttr(Name);
  return Attr ? Attr.cast<IntAttr>().getValue() : Fallback;
}

double Operation::getFloatAttr(std::string_view Name,
                               double Fallback) const {
  Attribute Attr = getAttr(Name);
  return Attr ? Attr.cast<FloatAttr>().getValue() : Fallback;
}

bool Operation::getBoolAttr(std::string_view Name, bool Fallback) const {
  Attribute Attr = getAttr(Name);
  return Attr ? Attr.cast<BoolAttr>().getValue() : Fallback;
}

void Operation::remove() {
  assert(ParentBlock && "removing a detached op");
  ParentBlock->unlink(this);
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
  for (unsigned R = 0; R < NumRegions; ++R) {
    for (Block *TheBlock : getRegion(R)) {
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
  OpOperand *Operands = operandStorage();
  for (unsigned I = 0; I < NumOperands; ++I)
    Operands[I].set(Value());
  for (unsigned R = 0; R < NumRegions; ++R)
    getRegion(R).dropAllReferences();
}
