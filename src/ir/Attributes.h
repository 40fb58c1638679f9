//===- Attributes.h - Uniqued compile-time attribute values ---------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Attributes attach compile-time information to operations (weights,
/// histogram buckets, batch sizes, ...). Like types they are immutable and
/// uniqued in the Context, so attribute equality is pointer equality.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_IR_ATTRIBUTES_H
#define SPNC_IR_ATTRIBUTES_H

#include "ir/Types.h"

#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>

namespace spnc {

class RawOStream;

namespace ir {

class Context;
class Attribute;

/// Discriminator for attribute storage.
enum class AttrKind : uint8_t {
  Unit,
  Bool,
  Int,
  Float,
  String,
  Type,
  /// Dense array of doubles; used for sum weights, categorical
  /// probabilities and flattened histogram buckets.
  DenseF64,
};

/// Uniqued immutable attribute storage, kept in the context's arena.
/// Field use depends on the kind.
struct AttrStorage {
  AttrKind Kind = AttrKind::Unit;
  Context *Ctx = nullptr;
  union {
    bool BoolValue;
    int64_t IntValue = 0;
    double FloatValue;
    const TypeStorage *TypeValue;
    /// String characters or DenseF64 values.
    const void *Data;
  };
  /// Element count of a String or DenseF64 payload.
  size_t Size = 0;

  std::string_view getString() const {
    return {static_cast<const char *>(Data), Size};
  }
  std::span<const double> getDoubles() const {
    return {static_cast<const double *>(Data), Size};
  }
};

/// Value-semantic handle to a uniqued attribute. Default-constructed is the
/// null attribute.
class Attribute {
public:
  Attribute() = default;
  explicit Attribute(const AttrStorage *Impl) : Impl(Impl) {}

  explicit operator bool() const { return Impl != nullptr; }
  bool operator==(Attribute Other) const { return Impl == Other.Impl; }
  bool operator!=(Attribute Other) const { return Impl != Other.Impl; }

  AttrKind getKind() const {
    assert(Impl && "querying the null attribute");
    return Impl->Kind;
  }
  Context &getContext() const {
    assert(Impl && "querying the null attribute");
    return *Impl->Ctx;
  }
  const AttrStorage *getImpl() const { return Impl; }

  template <typename T> bool isa() const { return T::classof(*this); }
  template <typename T> T cast() const {
    assert(isa<T>() && "Attribute::cast to incompatible kind");
    return T(Impl);
  }
  template <typename T> T dyn_cast() const {
    return isa<T>() ? T(Impl) : T();
  }

  /// Prints the textual form (e.g. `42 : i64`, `[0.3, 0.7]`).
  void print(RawOStream &OS) const;

private:
  const AttrStorage *Impl = nullptr;
};

/// Attribute that carries no value beyond its presence.
class UnitAttr : public Attribute {
public:
  using Attribute::Attribute;
  static UnitAttr get(Context &Ctx);
  static bool classof(Attribute A) {
    return A && A.getKind() == AttrKind::Unit;
  }
};

/// Boolean attribute.
class BoolAttr : public Attribute {
public:
  using Attribute::Attribute;
  static BoolAttr get(Context &Ctx, bool Value);
  bool getValue() const { return getImpl()->BoolValue; }
  static bool classof(Attribute A) {
    return A && A.getKind() == AttrKind::Bool;
  }
};

/// 64-bit integer attribute.
class IntAttr : public Attribute {
public:
  using Attribute::Attribute;
  static IntAttr get(Context &Ctx, int64_t Value);
  int64_t getValue() const { return getImpl()->IntValue; }
  static bool classof(Attribute A) {
    return A && A.getKind() == AttrKind::Int;
  }
};

/// Double-precision float attribute.
class FloatAttr : public Attribute {
public:
  using Attribute::Attribute;
  static FloatAttr get(Context &Ctx, double Value);
  double getValue() const { return getImpl()->FloatValue; }
  static bool classof(Attribute A) {
    return A && A.getKind() == AttrKind::Float;
  }
};

/// String attribute.
class StringAttr : public Attribute {
public:
  using Attribute::Attribute;
  static StringAttr get(Context &Ctx, std::string_view Value);
  std::string_view getValue() const { return getImpl()->getString(); }
  static bool classof(Attribute A) {
    return A && A.getKind() == AttrKind::String;
  }
};

/// Attribute wrapping a Type (e.g. the requested computation type).
class TypeAttr : public Attribute {
public:
  using Attribute::Attribute;
  static TypeAttr get(Context &Ctx, Type Value);
  Type getValue() const { return Type(getImpl()->TypeValue); }
  static bool classof(Attribute A) {
    return A && A.getKind() == AttrKind::Type;
  }
};

/// Dense array of doubles (weights, probabilities, bucket boundaries).
class DenseF64Attr : public Attribute {
public:
  using Attribute::Attribute;
  static DenseF64Attr get(Context &Ctx, std::span<const double> Values);
  static DenseF64Attr get(Context &Ctx, std::initializer_list<double> Values) {
    return get(Ctx, std::span<const double>(Values.begin(), Values.size()));
  }
  std::span<const double> getValues() const {
    return getImpl()->getDoubles();
  }
  size_t size() const { return getImpl()->Size; }
  double operator[](size_t Index) const {
    assert(Index < size() && "DenseF64Attr index out of range");
    return getValues()[Index];
  }
  static bool classof(Attribute A) {
    return A && A.getKind() == AttrKind::DenseF64;
  }
};

/// A (name, attribute) pair as stored on operations. On an operation
/// the name is interned in its Context (Context::internString).
struct NamedAttribute {
  std::string_view Name;
  Attribute Value;
};

} // namespace ir
} // namespace spnc

#endif // SPNC_IR_ATTRIBUTES_H
