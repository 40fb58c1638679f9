//===- Operation.h - The generic IR operation -------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `Operation` is the single runtime representation of every IR op (as in
/// MLIR): an interned name (OpInfo), operands with use-list links, typed
/// results, a sorted attribute dictionary and owned regions. Typed op
/// classes in the dialects are thin views over `Operation *`.
///
/// An op is one allocation in its context's arena: the Operation, then
/// its operands, results, regions and attributes. Erasing an op frees
/// nothing; the memory goes with the Context (DESIGN.md §5).
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_IR_OPERATION_H
#define SPNC_IR_OPERATION_H

#include "ir/Attributes.h"
#include "ir/Context.h"
#include "ir/Region.h"
#include "ir/Value.h"
#include "support/SmallVector.h"

#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace spnc {
namespace ir {

/// Transient description of an operation about to be created. The name
/// and the attribute names must outlive Operation::create (the op interns
/// its attribute names; a typed op's name is a string literal). Short
/// lists stay inline, so describing an op allocates nothing.
struct OperationState {
  std::string_view Name;
  SmallVector<Value, 4> Operands;
  SmallVector<Type, 2> ResultTypes;
  SmallVector<NamedAttribute, 4> Attributes;
  unsigned NumRegions = 0;

  OperationState() = default;
  explicit OperationState(std::string_view Name) : Name(Name) {}

  void addOperand(Value V) { Operands.push_back(V); }
  void addOperands(std::span<const Value> Values) { Operands.append(Values); }
  void addResultType(Type Ty) { ResultTypes.push_back(Ty); }
  void addAttribute(std::string_view AttrName, Attribute Attr) {
    Attributes.push_back(NamedAttribute{AttrName, Attr});
  }
  void addRegion() { ++NumRegions; }
};

class Operation : public OpListNode {
public:
  /// Creates a detached operation from \p State. The result is owned by
  /// the caller until inserted into a block (use destroy() to retire a
  /// detached op).
  static Operation *create(Context &Ctx, const OperationState &State);

  /// Retires a detached operation and its nested ops. The results must be
  /// unused and the references of the nested ops dropped
  /// (dropAllReferences()). The memory stays in the context's arena;
  /// under AddressSanitizer it is poisoned, so a later use is reported.
  void destroy();

  Operation(const Operation &) = delete;
  Operation &operator=(const Operation &) = delete;

  Context &getContext() const { return *Ctx; }
  const OpInfo *getInfo() const { return Info; }
  const std::string &getName() const { return Info->Name; }
  bool isPure() const { return Info->IsPure; }
  bool isTerminator() const { return Info->IsTerminator; }

  //===--------------------------------------------------------------------===//
  // Operands
  //===--------------------------------------------------------------------===//

  unsigned getNumOperands() const { return NumOperands; }
  Value getOperand(unsigned Index) const {
    assert(Index < NumOperands && "operand index out of range");
    return operandStorage()[Index].get();
  }
  void setOperand(unsigned Index, Value NewValue) {
    assert(Index < NumOperands && "operand index out of range");
    operandStorage()[Index].set(NewValue);
  }
  OpOperand &getOpOperand(unsigned Index) {
    assert(Index < NumOperands && "operand index out of range");
    return operandStorage()[Index];
  }
  std::vector<Value> getOperands() const {
    std::vector<Value> Result;
    Result.reserve(NumOperands);
    for (unsigned I = 0; I < NumOperands; ++I)
      Result.push_back(getOperand(I));
    return Result;
  }

  //===--------------------------------------------------------------------===//
  // Results
  //===--------------------------------------------------------------------===//

  unsigned getNumResults() const { return NumResults; }
  Value getResult(unsigned Index = 0) const {
    assert(Index < NumResults && "result index out of range");
    return Value(&resultStorage()[Index]);
  }
  std::vector<Value> getResults() const {
    std::vector<Value> Result;
    Result.reserve(NumResults);
    for (unsigned I = 0; I < NumResults; ++I)
      Result.push_back(getResult(I));
    return Result;
  }
  /// True if no result of this op has a use.
  bool useEmpty() const {
    for (unsigned I = 0; I < NumResults; ++I)
      if (!getResult(I).useEmpty())
        return false;
    return true;
  }
  /// Re-points all uses of all results to the corresponding value in
  /// \p NewValues.
  void replaceAllUsesWith(std::span<const Value> NewValues) {
    assert(NewValues.size() == NumResults &&
           "replacement value count mismatch");
    for (unsigned I = 0; I < NumResults; ++I)
      getResult(I).replaceAllUsesWith(NewValues[I]);
  }

  //===--------------------------------------------------------------------===//
  // Attributes
  //===--------------------------------------------------------------------===//

  /// Returns the attribute named \p Name or the null attribute.
  Attribute getAttr(std::string_view Name) const;
  bool hasAttr(std::string_view Name) const {
    return static_cast<bool>(getAttr(Name));
  }
  /// Sets (or replaces) the attribute \p Name.
  void setAttr(std::string_view Name, Attribute Attr);
  /// Removes the attribute \p Name if present.
  void removeAttr(std::string_view Name);
  /// The attributes, sorted by name; names are interned in the Context.
  std::span<const NamedAttribute> getAttrs() const {
    return {Attrs, NumAttrs};
  }

  /// Convenience accessors with kind casts; assert on kind mismatch when
  /// the attribute is present, return the fallback when absent.
  int64_t getIntAttr(std::string_view Name, int64_t Fallback = 0) const;
  double getFloatAttr(std::string_view Name, double Fallback = 0.0) const;
  bool getBoolAttr(std::string_view Name, bool Fallback = false) const;

  //===--------------------------------------------------------------------===//
  // Regions and position
  //===--------------------------------------------------------------------===//

  unsigned getNumRegions() const { return NumRegions; }
  Region &getRegion(unsigned Index = 0) {
    assert(Index < NumRegions && "region index out of range");
    return regionStorage()[Index];
  }

  /// Returns the block containing this op (null if detached).
  Block *getBlock() const { return ParentBlock; }
  /// Returns the op owning the region containing this op, or null.
  Operation *getParentOp() const {
    return ParentBlock ? ParentBlock->getParentOp() : nullptr;
  }

  /// Unlinks this op from its block without destroying it.
  void remove();
  /// Unlinks, drops the references of and destroys this op.
  void erase();
  /// Moves this op directly before \p Other (same or different block).
  void moveBefore(Operation *Other);

  /// Position of this op in its parent block list.
  Block::iterator getIterator() {
    assert(ParentBlock && "detached op has no position");
    return Block::iterator(this);
  }

  /// Dense index of this op in its block as of the block's last
  /// numberOperations(); stale once ops are inserted, moved or erased
  /// there.
  unsigned getOrderIndex() const { return OrderIndex; }

  //===--------------------------------------------------------------------===//
  // Traversal
  //===--------------------------------------------------------------------===//

  /// Post-order walk (nested ops first) over this op and all nested ops.
  /// The callback may erase the op it is given, but no other op in the
  /// same block.
  void walk(const std::function<void(Operation *)> &Fn);

  /// Drops all operand references (recursively through regions); used
  /// before bulk destruction.
  void dropAllReferences();

private:
  Operation(Context &Ctx, const OpInfo *Info, unsigned NumOperands,
            unsigned NumResults, unsigned NumRegions, unsigned NumAttrs);

  // The trailing arrays, in allocation order.
  OpOperand *operandStorage() const {
    return reinterpret_cast<OpOperand *>(const_cast<Operation *>(this + 1));
  }
  OpResultImpl *resultStorage() const {
    return reinterpret_cast<OpResultImpl *>(operandStorage() + NumOperands);
  }
  Region *regionStorage() const {
    return reinterpret_cast<Region *>(resultStorage() + NumResults);
  }
  NamedAttribute *inlineAttrStorage() const {
    return reinterpret_cast<NamedAttribute *>(regionStorage() + NumRegions);
  }
  /// Bytes of the allocation holding this op and its trailing arrays.
  size_t allocationSize() const;

  Context *Ctx;
  const OpInfo *Info;
  Block *ParentBlock = nullptr;
  /// Sorted by name for deterministic printing and hashing; starts in the
  /// trailing array, moves to a larger arena array when setAttr grows it.
  NamedAttribute *Attrs;
  unsigned OrderIndex = 0;
  unsigned NumOperands;
  unsigned NumResults;
  unsigned NumRegions;
  unsigned NumAttrs;
  unsigned AttrCapacity;
  unsigned NumInlineAttrs;
  /// Position + 1 in GreedyDriver's worklist, 0 if unqueued.
  unsigned WorklistIndex = 0;

  friend class Block;
  friend class GreedyDriver;
};

inline Operation *OpIterator::operator*() const {
  return static_cast<Operation *>(Node);
}

inline Operation *Block::front() {
  assert(!empty() && "front() on empty block");
  return static_cast<Operation *>(Sentinel.Next);
}

inline Operation *Block::back() {
  assert(!empty() && "back() on empty block");
  return static_cast<Operation *>(Sentinel.Prev);
}

} // namespace ir
} // namespace spnc

#endif // SPNC_IR_OPERATION_H
