//===- Value.h - SSA values, operands and use-lists ------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SSA value machinery: `ValueImpl` (the storage behind op results and
/// block arguments), `OpOperand` (a use with intrusive use-list links) and
/// the value-semantic `Value` handle. Use-lists enable
/// replaceAllUsesWith, CSE and DCE.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_IR_VALUE_H
#define SPNC_IR_VALUE_H

#include "ir/Types.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

namespace spnc {
namespace ir {

class Block;
class Operation;
class OpOperand;

/// Storage shared by op results and block arguments: the type, the owner,
/// and the head of the intrusive use-list.
class ValueImpl {
public:
  enum class Kind : uint8_t { OpResult, BlockArgument };

  Kind getKind() const { return K; }
  Type getType() const { return Ty; }
  void setType(Type NewType) { Ty = NewType; }
  unsigned getIndex() const { return Index; }

protected:
  ValueImpl(Kind K, Type Ty, unsigned Index, void *Owner)
      : K(K), Index(Index), Ty(Ty), Owner(Owner) {}

  Kind K;
  unsigned Index;
  Type Ty;
  /// Operation* for results, Block* for block arguments.
  void *Owner;
  /// Head of the use-list.
  OpOperand *FirstUse = nullptr;

  friend class Value;
  friend class OpOperand;
};

/// An op result value; owned inline by its defining Operation. Default
/// constructed (for inline array allocation) and initialized in place.
class OpResultImpl : public ValueImpl {
public:
  OpResultImpl() : ValueImpl(Kind::OpResult, Type(), 0, nullptr) {}

  void initialize(Type TheType, unsigned TheIndex, Operation *TheOwner) {
    Ty = TheType;
    Index = TheIndex;
    Owner = TheOwner;
  }

  Operation *getOwner() const { return static_cast<Operation *>(Owner); }
};

/// A block argument value; owned by its Block.
class BlockArgumentImpl : public ValueImpl {
public:
  BlockArgumentImpl(Type Ty, unsigned Index, Block *Owner)
      : ValueImpl(Kind::BlockArgument, Ty, Index, Owner) {}

  Block *getOwner() const { return static_cast<Block *>(Owner); }
};

/// Value-semantic handle to an SSA value. Default-constructed is null.
class Value {
public:
  Value() = default;
  /*implicit*/ Value(ValueImpl *Impl) : Impl(Impl) {}

  explicit operator bool() const { return Impl != nullptr; }
  bool operator==(Value Other) const { return Impl == Other.Impl; }
  bool operator!=(Value Other) const { return Impl != Other.Impl; }

  Type getType() const {
    assert(Impl && "querying the null value");
    return Impl->getType();
  }
  void setType(Type NewType) {
    assert(Impl && "mutating the null value");
    Impl->setType(NewType);
  }

  /// Returns the defining operation, or null if this is a block argument.
  Operation *getDefiningOp() const {
    if (!Impl || Impl->getKind() != ValueImpl::Kind::OpResult)
      return nullptr;
    return static_cast<OpResultImpl *>(Impl)->getOwner();
  }

  /// Returns the owning block for block arguments, null otherwise.
  Block *getOwnerBlock() const {
    if (!Impl || Impl->getKind() != ValueImpl::Kind::BlockArgument)
      return nullptr;
    return static_cast<BlockArgumentImpl *>(Impl)->getOwner();
  }

  bool isBlockArgument() const {
    return Impl && Impl->getKind() == ValueImpl::Kind::BlockArgument;
  }

  /// Result or argument index within the owner.
  unsigned getIndex() const {
    assert(Impl && "querying the null value");
    return Impl->getIndex();
  }

  /// True if this value has no uses.
  bool useEmpty() const {
    assert(Impl && "querying the null value");
    return Impl->FirstUse == nullptr;
  }

  /// True if this value has exactly one use.
  bool hasOneUse() const;

  /// Re-points all uses of this value to \p NewValue.
  void replaceAllUsesWith(Value NewValue) const;

  /// Invokes \p Fn for every use. The callback must not mutate the
  /// use-list.
  void forEachUse(const std::function<void(OpOperand &)> &Fn) const;

  /// Collects the (possibly repeated) owning operations of all uses.
  std::vector<Operation *> getUsers() const;

  ValueImpl *getImpl() const { return Impl; }

private:
  ValueImpl *Impl = nullptr;
};

/// A single use of a Value by an Operation, linked into the value's
/// use-list. OpOperand objects live inline in their owning Operation and
/// have stable addresses for the operation's lifetime. Nothing unlinks an
/// operand implicitly: erasing an op drops its references first.
class OpOperand {
public:
  OpOperand() = default;

  OpOperand(const OpOperand &) = delete;
  OpOperand &operator=(const OpOperand &) = delete;

  Value get() const { return Val; }

  /// Replaces the used value, maintaining both use-lists.
  void set(Value NewValue) {
    removeFromUseList();
    Val = NewValue;
    insertIntoUseList();
  }

  Operation *getOwner() const { return Owner; }
  unsigned getOperandNumber() const { return Index; }

private:
  void initialize(Operation *TheOwner, unsigned TheIndex, Value TheValue) {
    Owner = TheOwner;
    Index = TheIndex;
    Val = TheValue;
    insertIntoUseList();
  }

  void insertIntoUseList() {
    if (!Val)
      return;
    ValueImpl *Impl = Val.getImpl();
    NextUse = Impl->FirstUse;
    if (NextUse)
      NextUse->Back = &NextUse;
    Impl->FirstUse = this;
    Back = &Impl->FirstUse;
  }

  void removeFromUseList() {
    if (!Back)
      return;
    *Back = NextUse;
    if (NextUse)
      NextUse->Back = Back;
    NextUse = nullptr;
    Back = nullptr;
  }

  Value Val;
  Operation *Owner = nullptr;
  unsigned Index = 0;
  OpOperand *NextUse = nullptr;
  /// Address of the pointer that points at this use (use-list head or the
  /// previous use's NextUse).
  OpOperand **Back = nullptr;

  friend class Operation;
  friend class Value;
};

inline bool Value::hasOneUse() const {
  assert(Impl && "querying the null value");
  return Impl->FirstUse && !Impl->FirstUse->NextUse;
}

inline void Value::replaceAllUsesWith(Value NewValue) const {
  assert(Impl && "RAUW on the null value");
  assert(NewValue != *this && "cannot replace a value with itself");
  while (OpOperand *Use = Impl->FirstUse)
    Use->set(NewValue);
}

inline void Value::forEachUse(
    const std::function<void(OpOperand &)> &Fn) const {
  assert(Impl && "querying the null value");
  for (OpOperand *Use = Impl->FirstUse; Use; Use = Use->NextUse)
    Fn(*Use);
}

inline std::vector<Operation *> Value::getUsers() const {
  std::vector<Operation *> Users;
  forEachUse([&](OpOperand &Use) { Users.push_back(Use.getOwner()); });
  return Users;
}

} // namespace ir
} // namespace spnc

namespace std {
template <> struct hash<spnc::ir::Value> {
  size_t operator()(spnc::ir::Value V) const {
    return hash<void *>()(V.getImpl());
  }
};
} // namespace std

#endif // SPNC_IR_VALUE_H
