//===- Transforms.cpp - Generic IR transformations --------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/Transforms.h"

#include "ir/Operation.h"
#include "ir/PatternMatch.h"
#include "support/Hashing.h"

#include <span>
#include <vector>

using namespace spnc;
using namespace spnc::ir;

//===----------------------------------------------------------------------===//
// CSE
//===----------------------------------------------------------------------===//

namespace {

/// Hash of the structural key of a pure operation: name, operand
/// identities, attributes and result types, read in place.
static size_t hashOp(Operation *Op) {
  size_t Seed = std::hash<const void *>()(Op->getInfo());
  for (unsigned I = 0; I < Op->getNumOperands(); ++I)
    hashCombineSeed(Seed, std::hash<void *>()(Op->getOperand(I).getImpl()));
  for (const NamedAttribute &Entry : Op->getAttrs())
    hashCombineSeed(Seed, std::hash<const void *>()(Entry.Value.getImpl()));
  for (unsigned I = 0; I < Op->getNumResults(); ++I)
    hashCombineSeed(Seed, std::hash<const void *>()(
                              Op->getResult(I).getType().getImpl()));
  return static_cast<size_t>(splitmix64(Seed));
}

/// True if \p A and \p B have equal structural keys. Attribute names are
/// interned, so equal names have equal pointers.
static bool isEquivalent(Operation *A, Operation *B) {
  if (A->getInfo() != B->getInfo() ||
      A->getNumOperands() != B->getNumOperands() ||
      A->getNumResults() != B->getNumResults() ||
      A->getAttrs().size() != B->getAttrs().size())
    return false;
  for (unsigned I = 0; I < A->getNumOperands(); ++I)
    if (A->getOperand(I) != B->getOperand(I))
      return false;
  std::span<const NamedAttribute> AttrsA = A->getAttrs();
  std::span<const NamedAttribute> AttrsB = B->getAttrs();
  for (size_t I = 0; I < AttrsA.size(); ++I)
    if (AttrsA[I].Value != AttrsB[I].Value ||
        AttrsA[I].Name.data() != AttrsB[I].Name.data())
      return false;
  for (unsigned I = 0; I < A->getNumResults(); ++I)
    if (A->getResult(I).getType() != B->getResult(I).getType())
      return false;
  return true;
}

/// Scoped value-numbering table. Entries are kept in insertion order and
/// a block's scope is a suffix of them, dropped when the block is done;
/// lookups therefore see exactly the expressions available from the
/// enclosing blocks. The open-addressing index is (re)built in insertion
/// order, so dropping the newest entry can simply empty its slot.
class CSEDriver {
public:
  unsigned run(Operation *Scope) {
    processRegionsOf(Scope);
    return NumErased;
  }

private:
  struct Entry {
    size_t Hash;
    Operation *Op;
  };

  void processRegionsOf(Operation *Op) {
    for (unsigned R = 0; R < Op->getNumRegions(); ++R)
      for (Block *TheBlock : Op->getRegion(R))
        processBlock(*TheBlock);
  }

  void processBlock(Block &TheBlock) {
    size_t ScopeBegin = Entries.size();
    auto It = TheBlock.begin();
    while (It != TheBlock.end()) {
      Operation *Op = *It;
      ++It;
      // Only simple pure ops without regions are CSE candidates; ops with
      // regions are just recursed into.
      if (!Op->isPure() || Op->getNumRegions() > 0 ||
          Op->getNumResults() == 0) {
        processRegionsOf(Op);
        continue;
      }
      if (Operation *Existing = lookupOrInsert(Op)) {
        for (unsigned I = 0; I < Op->getNumResults(); ++I)
          Op->getResult(I).replaceAllUsesWith(Existing->getResult(I));
        Op->erase();
        ++NumErased;
      }
    }
    while (Entries.size() > ScopeBegin)
      popEntry();
  }

  /// Returns the available op equivalent to \p Op, or records \p Op and
  /// returns null.
  Operation *lookupOrInsert(Operation *Op) {
    if (2 * (Entries.size() + 1) > Slots.size())
      rebuildIndex(Slots.empty() ? 1024 : 2 * Slots.size());
    size_t Hash = hashOp(Op);
    size_t Mask = Slots.size() - 1;
    size_t I = Hash & Mask;
    for (; Slots[I]; I = (I + 1) & Mask) {
      const Entry &Candidate = Entries[Slots[I] - 1];
      if (Candidate.Hash == Hash && isEquivalent(Candidate.Op, Op))
        return Candidate.Op;
    }
    Entries.push_back(Entry{Hash, Op});
    Slots[I] = static_cast<uint32_t>(Entries.size());
    return nullptr;
  }

  void popEntry() {
    size_t Mask = Slots.size() - 1;
    auto Position = static_cast<uint32_t>(Entries.size());
    size_t I = Entries.back().Hash & Mask;
    while (Slots[I] != Position)
      I = (I + 1) & Mask;
    Slots[I] = 0;
    Entries.pop_back();
  }

  void rebuildIndex(size_t NumSlots) {
    Slots.assign(NumSlots, 0);
    size_t Mask = NumSlots - 1;
    for (size_t P = 0; P < Entries.size(); ++P) {
      size_t I = Entries[P].Hash & Mask;
      while (Slots[I])
        I = (I + 1) & Mask;
      Slots[I] = static_cast<uint32_t>(P + 1);
    }
  }

  std::vector<Entry> Entries;
  /// 1 + the position in Entries, or 0 for an empty slot.
  std::vector<uint32_t> Slots;
  unsigned NumErased = 0;
};

} // namespace

unsigned spnc::ir::runCSE(Operation *Scope) {
  return CSEDriver().run(Scope);
}

//===----------------------------------------------------------------------===//
// DCE
//===----------------------------------------------------------------------===//

unsigned spnc::ir::runDCE(Operation *Scope) {
  unsigned NumErased = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    Scope->walk([&](Operation *Op) {
      if (Op == Scope || !Op->isPure() || Op->isTerminator())
        return;
      if (Op->getNumResults() == 0 || !Op->useEmpty())
        return;
      Op->erase();
      ++NumErased;
      Changed = true;
    });
  }
  return NumErased;
}

//===----------------------------------------------------------------------===//
// Canonicalizer
//===----------------------------------------------------------------------===//

LogicalResult spnc::ir::runCanonicalizer(Operation *Scope) {
  PatternList Patterns =
      collectCanonicalizationPatterns(Scope->getContext());
  if (failed(applyPatternsGreedily(Scope, Patterns)))
    return failure();
  runDCE(Scope);
  return success();
}

//===----------------------------------------------------------------------===//
// Pass wrappers
//===----------------------------------------------------------------------===//

namespace {

class CSEPass : public Pass {
public:
  const char *getName() const override { return "cse"; }
  LogicalResult run(Operation *Module, Context &) override {
    runCSE(Module);
    return success();
  }
};

class CanonicalizerPass : public Pass {
public:
  const char *getName() const override { return "canonicalize"; }
  LogicalResult run(Operation *Module, Context &) override {
    return runCanonicalizer(Module);
  }
};

} // namespace

std::unique_ptr<Pass> spnc::ir::createCSEPass() {
  return std::make_unique<CSEPass>();
}
std::unique_ptr<Pass> spnc::ir::createCanonicalizerPass() {
  return std::make_unique<CanonicalizerPass>();
}
