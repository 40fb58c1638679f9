//===- Block.h - Basic block holding operations ----------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Block holds an ordered list of operations and a list of typed block
/// arguments. All SPN dialect ops use single-block regions; the block
/// abstraction exists so the IR stays structurally faithful to MLIR.
///
/// The operations are linked through their own prev/next pointers into a
/// ring closed by the block's sentinel node, so inserting, removing and
/// moving an op allocate nothing. Blocks and their arguments live in the
/// context's arena.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_IR_BLOCK_H
#define SPNC_IR_BLOCK_H

#include "ir/Value.h"

#include <cstddef>
#include <iterator>

namespace spnc {
namespace ir {

class Context;
class Region;
class Operation;

/// The links of an operation in its block's list.
class OpListNode {
protected:
  OpListNode *Prev = nullptr;
  OpListNode *Next = nullptr;

  friend class Block;
  friend class OpIterator;
};

/// Bidirectional iterator over the operations of a block. It stays valid
/// while the op it points at stays in the block; end() always does.
class OpIterator {
public:
  using iterator_category = std::bidirectional_iterator_tag;
  using value_type = Operation *;
  using difference_type = std::ptrdiff_t;
  using pointer = Operation **;
  using reference = Operation *;

  OpIterator() = default;
  explicit OpIterator(OpListNode *Node) : Node(Node) {}

  inline Operation *operator*() const;
  OpIterator &operator++() {
    Node = Node->Next;
    return *this;
  }
  OpIterator operator++(int) {
    OpIterator Old = *this;
    Node = Node->Next;
    return Old;
  }
  OpIterator &operator--() {
    Node = Node->Prev;
    return *this;
  }
  OpIterator operator--(int) {
    OpIterator Old = *this;
    Node = Node->Prev;
    return Old;
  }
  bool operator==(const OpIterator &Other) const {
    return Node == Other.Node;
  }
  bool operator!=(const OpIterator &Other) const {
    return Node != Other.Node;
  }

private:
  OpListNode *Node = nullptr;

  friend class Block;
};

class Block {
public:
  using iterator = OpIterator;

  /// Creates a detached empty block in \p Ctx's arena.
  static Block *create(Context &Ctx);

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
  unsigned getNumArguments() const { return NumArguments; }
  Value getArgument(unsigned Index) const {
    assert(Index < NumArguments && "block argument index out of range");
    return Value(Arguments[Index]);
  }

  //===--------------------------------------------------------------------===//
  // Operation list
  //===--------------------------------------------------------------------===//

  iterator begin() { return iterator(Sentinel.Next); }
  iterator end() { return iterator(&Sentinel); }
  bool empty() const { return Sentinel.Next == &Sentinel; }
  size_t size() const { return NumOperations; }
  inline Operation *front();
  inline Operation *back();

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

private:
  explicit Block(Context &Ctx) : Ctx(&Ctx) {
    Sentinel.Prev = &Sentinel;
    Sentinel.Next = &Sentinel;
  }

  /// Unlinks \p Op from this block.
  void unlink(Operation *Op);
  /// Destroys all operations; their references must be dropped already.
  void destroyOperations();

  Context *Ctx;
  Region *ParentRegion = nullptr;
  OpListNode Sentinel;
  size_t NumOperations = 0;
  BlockArgumentImpl **Arguments = nullptr;
  unsigned NumArguments = 0;
  unsigned ArgumentCapacity = 0;

  friend class Region;
  friend class Operation;
};

} // namespace ir
} // namespace spnc

#endif // SPNC_IR_BLOCK_H
