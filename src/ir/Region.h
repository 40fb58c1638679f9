//===- Region.h - Region holding blocks -------------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Region is an ordered list of blocks owned by an operation. Regions
/// give the IR its nesting capability (paper §II-B): the graph of an
/// `hi_spn.joint_query` or the body of a `lo_spn.task` are regions.
/// A region is stored inside its operation; its block list lives in the
/// context's arena.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_IR_REGION_H
#define SPNC_IR_REGION_H

#include "ir/Block.h"

namespace spnc {
namespace ir {

class Operation;

class Region {
public:
  explicit Region(Operation *ParentOp) : ParentOp(ParentOp) {}

  Region(const Region &) = delete;
  Region &operator=(const Region &) = delete;

  /// Returns the operation owning this region.
  Operation *getParentOp() const { return ParentOp; }

  bool empty() const { return NumBlocks == 0; }
  size_t size() const { return NumBlocks; }

  Block &front() {
    assert(NumBlocks > 0 && "front() on empty region");
    return *Blocks[0];
  }
  Block &getBlock(size_t Index) {
    assert(Index < NumBlocks && "block index out of range");
    return *Blocks[Index];
  }

  /// Creates and appends a new empty block.
  Block &emplaceBlock();

  /// Drops operand references in all contained blocks.
  void dropAllReferences() {
    for (Block *TheBlock : *this)
      TheBlock->dropAllReferences();
  }

  Block **begin() { return Blocks; }
  Block **end() { return Blocks + NumBlocks; }

private:
  Operation *ParentOp;
  Block **Blocks = nullptr;
  unsigned NumBlocks = 0;
  unsigned Capacity = 0;
};

} // namespace ir
} // namespace spnc

#endif // SPNC_IR_REGION_H
