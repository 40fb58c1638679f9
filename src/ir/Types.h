//===- Types.h - Uniqued IR type system ------------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The IR type system: immutable, context-uniqued type objects accessed
/// through lightweight `Type` value handles, mirroring MLIR's design.
/// Pointer equality of the underlying storage is type equality.
///
/// The core provides the builtin types (integer, float, index, tensor,
/// memref) plus the storage for the two SPN-dialect types
/// (`!hi_spn.prob` and `!lo_spn.log<T>`); the dialect-facing wrappers for
/// the latter live with their dialects.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_IR_TYPES_H
#define SPNC_IR_TYPES_H

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>

namespace spnc {

class RawOStream;

namespace ir {

class Context;

/// Discriminator for the built-in type storage.
enum class TypeKind : uint8_t {
  Index,
  Integer,
  Float,
  /// Abstract probability type of the HiSPN dialect (paper §III-A).
  Probability,
  /// Log-space computation type of the LoSPN dialect (paper §III-B).
  Log,
  Tensor,
  MemRef,
};

/// Uniqued immutable storage shared by all type kinds, kept in the
/// context's arena. Field use depends on the kind; unused fields keep
/// their defaults and participate in uniquing.
struct TypeStorage {
  TypeKind Kind = TypeKind::Index;
  Context *Ctx = nullptr;
  /// Integer bit width or float bit width (32/64).
  unsigned Width = 0;
  /// Element type of Log/Tensor/MemRef.
  const TypeStorage *Element = nullptr;
  /// Shape of Tensor/MemRef; kDynamic encodes a dynamic dimension. The
  /// uniqued storage points at a copy in the context's arena.
  std::span<const int64_t> Shape;

  static constexpr int64_t kDynamic = -1;
};

/// Value-semantic handle to a uniqued type. A default-constructed Type is
/// the null type.
class Type {
public:
  Type() = default;
  explicit Type(const TypeStorage *Impl) : Impl(Impl) {}

  explicit operator bool() const { return Impl != nullptr; }
  bool operator==(Type Other) const { return Impl == Other.Impl; }
  bool operator!=(Type Other) const { return Impl != Other.Impl; }

  TypeKind getKind() const {
    assert(Impl && "querying the null type");
    return Impl->Kind;
  }
  Context &getContext() const {
    assert(Impl && "querying the null type");
    return *Impl->Ctx;
  }
  const TypeStorage *getImpl() const { return Impl; }

  /// True if this is a 32/64-bit float type.
  bool isFloat() const { return Impl && Impl->Kind == TypeKind::Float; }
  /// True if this is an integer type.
  bool isInteger() const { return Impl && Impl->Kind == TypeKind::Integer; }
  /// True if values of this type can feed SPN arithmetic: float or
  /// log-space.
  bool isComputationType() const {
    return Impl && (Impl->Kind == TypeKind::Float ||
                    Impl->Kind == TypeKind::Log ||
                    Impl->Kind == TypeKind::Probability);
  }

  template <typename T> bool isa() const { return T::classof(*this); }
  template <typename T> T cast() const {
    assert(isa<T>() && "Type::cast to incompatible type");
    return T(Impl);
  }
  template <typename T> T dyn_cast() const {
    return isa<T>() ? T(Impl) : T();
  }

  /// Prints the textual form (e.g. `f32`, `memref<?x26xf32>`).
  void print(RawOStream &OS) const;

private:
  const TypeStorage *Impl = nullptr;
};

/// The platform-sized index type used for batch indices.
class IndexType : public Type {
public:
  using Type::Type;
  static IndexType get(Context &Ctx);
  static bool classof(Type T) {
    return T && T.getKind() == TypeKind::Index;
  }
};

/// Arbitrary-width signless integer type (i1, i32, ...).
class IntegerType : public Type {
public:
  using Type::Type;
  static IntegerType get(Context &Ctx, unsigned Width);
  unsigned getWidth() const { return getImpl()->Width; }
  static bool classof(Type T) {
    return T && T.getKind() == TypeKind::Integer;
  }
};

/// IEEE float type of width 32 or 64.
class FloatType : public Type {
public:
  using Type::Type;
  static FloatType getF32(Context &Ctx);
  static FloatType getF64(Context &Ctx);
  unsigned getWidth() const { return getImpl()->Width; }
  static bool classof(Type T) {
    return T && T.getKind() == TypeKind::Float;
  }
};

/// Ranked tensor type (value-semantic batch container before
/// bufferization).
class TensorType : public Type {
public:
  using Type::Type;
  static TensorType get(Context &Ctx, std::span<const int64_t> Shape,
                        Type ElementType);
  static TensorType get(Context &Ctx, std::initializer_list<int64_t> Shape,
                        Type ElementType) {
    return get(Ctx, std::span<const int64_t>(Shape.begin(), Shape.size()),
               ElementType);
  }
  std::span<const int64_t> getShape() const { return getImpl()->Shape; }
  Type getElementType() const { return Type(getImpl()->Element); }
  static bool classof(Type T) {
    return T && T.getKind() == TypeKind::Tensor;
  }
};

/// Ranked buffer type (side-effecting batch container after
/// bufferization).
class MemRefType : public Type {
public:
  using Type::Type;
  static MemRefType get(Context &Ctx, std::span<const int64_t> Shape,
                        Type ElementType);
  static MemRefType get(Context &Ctx, std::initializer_list<int64_t> Shape,
                        Type ElementType) {
    return get(Ctx, std::span<const int64_t>(Shape.begin(), Shape.size()),
               ElementType);
  }
  std::span<const int64_t> getShape() const { return getImpl()->Shape; }
  Type getElementType() const { return Type(getImpl()->Element); }
  static bool classof(Type T) {
    return T && T.getKind() == TypeKind::MemRef;
  }
};

} // namespace ir
} // namespace spnc

#endif // SPNC_IR_TYPES_H
