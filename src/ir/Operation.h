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
//===----------------------------------------------------------------------===//

#ifndef SPNC_IR_OPERATION_H
#define SPNC_IR_OPERATION_H

#include "ir/Attributes.h"
#include "ir/Context.h"
#include "ir/Region.h"
#include "ir/Value.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace spnc {
namespace ir {

/// Transient description of an operation about to be created.
struct OperationState {
  std::string Name;
  std::vector<Value> Operands;
  std::vector<Type> ResultTypes;
  std::vector<NamedAttribute> Attributes;
  unsigned NumRegions = 0;

  OperationState() = default;
  explicit OperationState(std::string Name) : Name(std::move(Name)) {}

  void addOperand(Value V) { Operands.push_back(V); }
  void addOperands(std::span<const Value> Values) {
    Operands.insert(Operands.end(), Values.begin(), Values.end());
  }
  void addResultType(Type Ty) { ResultTypes.push_back(Ty); }
  void addAttribute(std::string AttrName, Attribute Attr) {
    Attributes.push_back(NamedAttribute{std::move(AttrName), Attr});
  }
  void addRegion() { ++NumRegions; }
};

class Operation {
public:
  /// Creates a detached operation from \p State. The result is owned by
  /// the caller until inserted into a block (use destroy() to free a
  /// detached op).
  static Operation *create(Context &Ctx, const OperationState &State);

  /// Frees a detached operation. The results must be unused and the
  /// references of the nested ops dropped (dropAllReferences()).
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
    return Operands[Index].get();
  }
  void setOperand(unsigned Index, Value NewValue) {
    assert(Index < NumOperands && "operand index out of range");
    Operands[Index].set(NewValue);
  }
  OpOperand &getOpOperand(unsigned Index) {
    assert(Index < NumOperands && "operand index out of range");
    return Operands[Index];
  }
  std::vector<Value> getOperands() const {
    std::vector<Value> Result;
    Result.reserve(NumOperands);
    for (unsigned I = 0; I < NumOperands; ++I)
      Result.push_back(Operands[I].get());
    return Result;
  }

  //===--------------------------------------------------------------------===//
  // Results
  //===--------------------------------------------------------------------===//

  unsigned getNumResults() const { return NumResults; }
  Value getResult(unsigned Index = 0) const {
    assert(Index < NumResults && "result index out of range");
    return Value(&Results[Index]);
  }
  std::vector<Value> getResults() const {
    std::vector<Value> Result;
    Result.reserve(NumResults);
    for (unsigned I = 0; I < NumResults; ++I)
      Result.push_back(Value(&Results[I]));
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
  Attribute getAttr(const std::string &Name) const;
  bool hasAttr(const std::string &Name) const {
    return static_cast<bool>(getAttr(Name));
  }
  /// Sets (or replaces) the attribute \p Name.
  void setAttr(const std::string &Name, Attribute Attr);
  /// Removes the attribute \p Name if present.
  void removeAttr(const std::string &Name);
  const std::vector<NamedAttribute> &getAttrs() const { return Attrs; }

  /// Convenience accessors with kind casts; assert on kind mismatch when
  /// the attribute is present, return the fallback when absent.
  int64_t getIntAttr(const std::string &Name, int64_t Fallback = 0) const;
  double getFloatAttr(const std::string &Name, double Fallback = 0.0) const;
  bool getBoolAttr(const std::string &Name, bool Fallback = false) const;

  //===--------------------------------------------------------------------===//
  // Regions and position
  //===--------------------------------------------------------------------===//

  unsigned getNumRegions() const {
    return static_cast<unsigned>(Regions.size());
  }
  Region &getRegion(unsigned Index = 0) {
    assert(Index < Regions.size() && "region index out of range");
    return *Regions[Index];
  }

  /// Returns the block containing this op (null if detached).
  Block *getBlock() const { return ParentBlock; }
  /// Returns the op owning the region containing this op, or null.
  Operation *getParentOp() const {
    return ParentBlock ? ParentBlock->getParentOp() : nullptr;
  }

  /// Unlinks this op from its block without destroying it.
  void remove();
  /// Unlinks and destroys this op.
  void erase();
  /// Moves this op directly before \p Other (same or different block).
  void moveBefore(Operation *Other);

  /// Position of this op in its parent block list.
  Block::iterator getIterator() const { return PositionInBlock; }

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
            unsigned NumResults);
  ~Operation();

  Context *Ctx;
  const OpInfo *Info;
  Block *ParentBlock = nullptr;
  Block::iterator PositionInBlock;
  unsigned OrderIndex = 0;
  unsigned NumOperands;
  unsigned NumResults;
  std::unique_ptr<OpOperand[]> Operands;
  std::unique_ptr<OpResultImpl[]> Results;
  /// Sorted by name for deterministic printing and hashing.
  std::vector<NamedAttribute> Attrs;
  std::vector<std::unique_ptr<Region>> Regions;

  friend class Block;
};

} // namespace ir
} // namespace spnc

#endif // SPNC_IR_OPERATION_H
