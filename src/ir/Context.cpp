//===- Context.cpp - IR context implementation ----------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/Context.h"

#include "support/Hashing.h"
#include "support/RawOStream.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

using namespace spnc;
using namespace spnc::ir;

//===----------------------------------------------------------------------===//
// Hashing and equality for uniqued storage
//===----------------------------------------------------------------------===//

static size_t hashType(const TypeStorage &T) {
  size_t Seed = hashCombine(static_cast<unsigned>(T.Kind), T.Width,
                            reinterpret_cast<uintptr_t>(T.Element));
  for (int64_t Dim : T.Shape)
    hashCombineSeed(Seed, std::hash<int64_t>()(Dim));
  return Seed;
}

static bool typeEquals(const TypeStorage &A, const TypeStorage &B) {
  return A.Kind == B.Kind && A.Width == B.Width && A.Element == B.Element &&
         std::equal(A.Shape.begin(), A.Shape.end(), B.Shape.begin(),
                    B.Shape.end());
}

/// Bytes of the payload of a String or DenseF64 attribute.
static size_t payloadBytes(const AttrStorage &A) {
  switch (A.Kind) {
  case AttrKind::String:
    return A.Size;
  case AttrKind::DenseF64:
    return A.Size * sizeof(double);
  default:
    return 0;
  }
}

/// Hash of a general-path attribute. Payloads hash and compare by their
/// bytes, so DenseF64 values are equal when their bits are.
static size_t hashAttr(const AttrStorage &A) {
  size_t Seed = hashCombine(static_cast<unsigned>(A.Kind), A.Size);
  if (A.Kind == AttrKind::Type)
    hashCombineSeed(Seed, reinterpret_cast<uintptr_t>(A.TypeValue));
  else
    hashCombineSeed(Seed, xxh64(A.Data, payloadBytes(A)));
  return Seed;
}

static bool attrEquals(const AttrStorage &A, const AttrStorage &B) {
  if (A.Kind != B.Kind || A.Size != B.Size)
    return false;
  if (A.Kind == AttrKind::Type)
    return A.TypeValue == B.TypeValue;
  size_t Bytes = payloadBytes(A);
  return Bytes == 0 || std::memcmp(A.Data, B.Data, Bytes) == 0;
}

const AttrStorage *&Context::BitsTable::lookup(uint64_t Bits) {
  if (2 * (NumFilled + 1) > Slots.size())
    grow();
  size_t Mask = Slots.size() - 1;
  for (size_t I = splitmix64(Bits) & Mask;; I = (I + 1) & Mask) {
    Slot &Entry = Slots[I];
    if (!Entry.Storage) {
      // The caller fills the slot on a miss.
      Entry.Bits = Bits;
      ++NumFilled;
      return Entry.Storage;
    }
    if (Entry.Bits == Bits)
      return Entry.Storage;
  }
}

void Context::BitsTable::grow() {
  std::vector<Slot> Old(Slots.empty() ? 64 : 2 * Slots.size());
  Old.swap(Slots);
  size_t Mask = Slots.size() - 1;
  for (const Slot &Entry : Old) {
    if (!Entry.Storage)
      continue;
    size_t I = splitmix64(Entry.Bits) & Mask;
    while (Slots[I].Storage)
      I = (I + 1) & Mask;
    Slots[I] = Entry;
  }
}

//===----------------------------------------------------------------------===//
// Context
//===----------------------------------------------------------------------===//

Context::Context() {
  DiagHandler = [](const std::string &Message) {
    errs() << "error: " << Message << '\n';
  };
}

Context::~Context() = default;

const TypeStorage *Context::uniqueType(const TypeStorage &Prototype) {
  size_t Hash = hashType(Prototype);
  auto [Begin, End] = TypePool.equal_range(Hash);
  for (auto It = Begin; It != End; ++It)
    if (typeEquals(*It->second, Prototype))
      return It->second;
  TypeStorage *Storage = Arena.create<TypeStorage>(Prototype);
  Storage->Ctx = this;
  Storage->Shape = Arena.copy(Prototype.Shape);
  TypePool.emplace(Hash, Storage);
  return Storage;
}

const AttrStorage *Context::newAttr(const AttrStorage &Prototype) {
  AttrStorage *Storage = Arena.create<AttrStorage>(Prototype);
  Storage->Ctx = this;
  if (size_t Bytes = payloadBytes(Prototype)) {
    void *Payload = Arena.allocate(Bytes, alignof(double));
    std::memcpy(Payload, Prototype.Data, Bytes);
    Storage->Data = Payload;
  } else if (Prototype.Kind == AttrKind::String ||
             Prototype.Kind == AttrKind::DenseF64) {
    // An empty payload must not keep pointing into the caller's memory.
    Storage->Data = nullptr;
  }
  return Storage;
}

const AttrStorage *Context::uniqueAttr(const AttrStorage &Prototype) {
  const AttrStorage **Slot = nullptr;
  switch (Prototype.Kind) {
  case AttrKind::Unit:
    Slot = &UnitAttrStorage;
    break;
  case AttrKind::Bool:
    Slot = &BoolAttrStorage[Prototype.BoolValue];
    break;
  case AttrKind::Int:
    Slot = &IntAttrs.lookup(static_cast<uint64_t>(Prototype.IntValue));
    break;
  case AttrKind::Float:
    Slot = &FloatAttrs.lookup(std::bit_cast<uint64_t>(Prototype.FloatValue));
    break;
  default: {
    size_t Hash = hashAttr(Prototype);
    auto [Begin, End] = AttrPool.equal_range(Hash);
    for (auto It = Begin; It != End; ++It)
      if (attrEquals(*It->second, Prototype))
        return It->second;
    const AttrStorage *Storage = newAttr(Prototype);
    AttrPool.emplace(Hash, Storage);
    return Storage;
  }
  }
  if (!*Slot)
    *Slot = newAttr(Prototype);
  return *Slot;
}

std::string_view Context::internString(std::string_view Text) {
  auto It = InternedStrings.find(Text);
  if (It != InternedStrings.end())
    return *It;
  return *InternedStrings.insert(Arena.copy(Text)).first;
}

const OpInfo *Context::registerOp(OpInfo Info) {
  assert(!OpRegistry.count(Info.Name) && "operation registered twice");
  auto Owned = std::make_unique<OpInfo>(std::move(Info));
  const OpInfo *Result = Owned.get();
  OpRegistry.emplace(Result->Name, std::move(Owned));
  return Result;
}

const OpInfo *Context::lookupOrCreateOpInfo(std::string_view Name) {
  auto It = OpRegistry.find(Name);
  if (It != OpRegistry.end())
    return It->second.get();
  OpInfo Default;
  Default.Name = Name;
  size_t Dot = Name.find('.');
  Default.DialectName = Dot == std::string::npos ? "" : Name.substr(0, Dot);
  return registerOp(std::move(Default));
}

const OpInfo *Context::lookupOpInfo(std::string_view Name) const {
  auto It = OpRegistry.find(Name);
  return It == OpRegistry.end() ? nullptr : It->second.get();
}

bool Context::isDialectLoaded(const std::string &Name) const {
  auto It = LoadedDialects.find(Name);
  return It != LoadedDialects.end() && It->second;
}

void Context::markDialectLoaded(const std::string &Name) {
  LoadedDialects[Name] = true;
}

void Context::emitError(const std::string &Message) {
  ++NumErrors;
  if (DiagHandler)
    DiagHandler(Message);
}

DiagnosticHandler Context::setDiagnosticHandler(DiagnosticHandler Handler) {
  DiagnosticHandler Previous = std::move(DiagHandler);
  DiagHandler = std::move(Handler);
  return Previous;
}

//===----------------------------------------------------------------------===//
// Type factory methods
//===----------------------------------------------------------------------===//

IndexType IndexType::get(Context &Ctx) {
  TypeStorage Proto;
  Proto.Kind = TypeKind::Index;
  return IndexType(Ctx.uniqueType(Proto));
}

IntegerType IntegerType::get(Context &Ctx, unsigned Width) {
  TypeStorage Proto;
  Proto.Kind = TypeKind::Integer;
  Proto.Width = Width;
  return IntegerType(Ctx.uniqueType(Proto));
}

FloatType FloatType::getF32(Context &Ctx) {
  TypeStorage Proto;
  Proto.Kind = TypeKind::Float;
  Proto.Width = 32;
  return FloatType(Ctx.uniqueType(Proto));
}

FloatType FloatType::getF64(Context &Ctx) {
  TypeStorage Proto;
  Proto.Kind = TypeKind::Float;
  Proto.Width = 64;
  return FloatType(Ctx.uniqueType(Proto));
}

TensorType TensorType::get(Context &Ctx, std::span<const int64_t> Shape,
                           Type ElementType) {
  assert(ElementType && "tensor element type must be non-null");
  TypeStorage Proto;
  Proto.Kind = TypeKind::Tensor;
  Proto.Shape = Shape;
  Proto.Element = ElementType.getImpl();
  return TensorType(Ctx.uniqueType(Proto));
}

MemRefType MemRefType::get(Context &Ctx, std::span<const int64_t> Shape,
                           Type ElementType) {
  assert(ElementType && "memref element type must be non-null");
  TypeStorage Proto;
  Proto.Kind = TypeKind::MemRef;
  Proto.Shape = Shape;
  Proto.Element = ElementType.getImpl();
  return MemRefType(Ctx.uniqueType(Proto));
}

//===----------------------------------------------------------------------===//
// Attribute factory methods
//===----------------------------------------------------------------------===//

UnitAttr UnitAttr::get(Context &Ctx) {
  AttrStorage Proto;
  Proto.Kind = AttrKind::Unit;
  return UnitAttr(Ctx.uniqueAttr(Proto));
}

BoolAttr BoolAttr::get(Context &Ctx, bool Value) {
  AttrStorage Proto;
  Proto.Kind = AttrKind::Bool;
  Proto.BoolValue = Value;
  return BoolAttr(Ctx.uniqueAttr(Proto));
}

IntAttr IntAttr::get(Context &Ctx, int64_t Value) {
  AttrStorage Proto;
  Proto.Kind = AttrKind::Int;
  Proto.IntValue = Value;
  return IntAttr(Ctx.uniqueAttr(Proto));
}

FloatAttr FloatAttr::get(Context &Ctx, double Value) {
  AttrStorage Proto;
  Proto.Kind = AttrKind::Float;
  Proto.FloatValue = Value;
  return FloatAttr(Ctx.uniqueAttr(Proto));
}

StringAttr StringAttr::get(Context &Ctx, std::string_view Value) {
  AttrStorage Proto;
  Proto.Kind = AttrKind::String;
  Proto.Data = Value.data();
  Proto.Size = Value.size();
  return StringAttr(Ctx.uniqueAttr(Proto));
}

TypeAttr TypeAttr::get(Context &Ctx, Type Value) {
  assert(Value && "TypeAttr requires a non-null type");
  AttrStorage Proto;
  Proto.Kind = AttrKind::Type;
  Proto.TypeValue = Value.getImpl();
  return TypeAttr(Ctx.uniqueAttr(Proto));
}

DenseF64Attr DenseF64Attr::get(Context &Ctx, std::span<const double> Values) {
  AttrStorage Proto;
  Proto.Kind = AttrKind::DenseF64;
  Proto.Data = Values.data();
  Proto.Size = Values.size();
  return DenseF64Attr(Ctx.uniqueAttr(Proto));
}
