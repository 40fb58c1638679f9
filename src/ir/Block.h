//===- Block.h - Basic block holding operations ----------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Block owns an ordered list of operations and a list of typed block
/// arguments. All SPN dialect ops use single-block regions; the block
/// abstraction exists so the IR stays structurally faithful to MLIR.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_IR_BLOCK_H
#define SPNC_IR_BLOCK_H

#include "ir/Value.h"

#include <list>
#include <memory>

namespace spnc {
namespace ir {

class Region;
class Operation;

class Block {
public:
  using OpList = std::list<Operation *>;
  using iterator = OpList::iterator;

  Block() = default;
  ~Block();

  Block(const Block &) = delete;
  Block &operator=(const Block &) = delete;

  /// Returns the region containing this block (null for detached blocks).
  Region *getParent() const { return ParentRegion; }
  /// Returns the operation whose region contains this block, or null.
  Operation *getParentOp() const;

  //===--------------------------------------------------------------------===//
  // Arguments
  //===--------------------------------------------------------------------===//

  /// Appends a new block argument of the given type.
  Value addArgument(Type Ty);
  unsigned getNumArguments() const {
    return static_cast<unsigned>(Arguments.size());
  }
  Value getArgument(unsigned Index) const {
    assert(Index < Arguments.size() && "block argument index out of range");
    return Value(Arguments[Index].get());
  }

  //===--------------------------------------------------------------------===//
  // Operation list
  //===--------------------------------------------------------------------===//

  OpList &getOperations() { return Operations; }
  const OpList &getOperations() const { return Operations; }

  iterator begin() { return Operations.begin(); }
  iterator end() { return Operations.end(); }
  bool empty() const { return Operations.empty(); }
  size_t size() const { return Operations.size(); }
  Operation *front() { return Operations.front(); }
  Operation *back() { return Operations.back(); }

  /// Appends \p Op to this block; \p Op must be detached.
  void push_back(Operation *Op);
  /// Inserts \p Op before \p Before; \p Op must be detached.
  void insertBefore(iterator Before, Operation *Op);

  /// Returns the last operation if it is a terminator, else null.
  Operation *getTerminator();

  /// Numbers the ops 0..size()-1 in list order (Operation::getOrderIndex),
  /// so a pass can index per-op tables densely.
  void numberOperations();

  /// Drops all operand references held by operations in this block
  /// (recursively), so blocks can be destroyed in any order.
  void dropAllReferences();

  /// Erases and destroys all operations.
  void clear();

private:
  /// Destroys all operations; their references must be dropped already.
  void destroyOperations();

  Region *ParentRegion = nullptr;
  std::vector<std::unique_ptr<BlockArgumentImpl>> Arguments;
  OpList Operations;

  friend class Region;
  friend class Operation;
};

} // namespace ir
} // namespace spnc

#endif // SPNC_IR_BLOCK_H
