//===- Context.h - IR context: uniquing, registry, diagnostics ------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Context owns all uniqued types and attributes, the registry of
/// operation definitions contributed by dialects, and the diagnostic
/// engine. Every IR object is tied to exactly one Context; a Context must
/// outlive all IR created within it. Operations, blocks, values and the
/// uniqued storage live in the context's arena until the Context dies
/// (DESIGN.md §5).
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_IR_CONTEXT_H
#define SPNC_IR_CONTEXT_H

#include "ir/Attributes.h"
#include "ir/Types.h"
#include "support/Arena.h"
#include "support/LogicalResult.h"

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace spnc {
namespace ir {

class OpBuilder;
class Operation;
class RewritePattern;
class Value;

/// Static information about a registered operation kind. Dialects register
/// one OpInfo per operation; Operation instances point at their OpInfo.
struct OpInfo {
  /// Fully qualified name, e.g. "lo_spn.mul".
  std::string Name;
  /// Dialect namespace prefix, e.g. "lo_spn".
  std::string DialectName;
  /// True if the op has no side effects (eligible for CSE/DCE).
  bool IsPure = false;
  /// True if the op terminates a block (e.g. yield, root).
  bool IsTerminator = false;
  /// True if the op materializes a compile-time constant carried in its
  /// "value" attribute (enables participation in constant folding).
  bool IsConstant = false;
  /// Optional per-op structural verifier.
  std::function<LogicalResult(Operation *)> Verifier;
  /// Optional constant folder: given constant operand attributes (null
  /// entries for non-constant operands), returns the folded result
  /// attribute or null.
  std::function<Attribute(Operation *, std::span<const Attribute>)> Folder;
  /// Optional provider of canonicalization patterns.
  std::function<void(std::vector<std::unique_ptr<RewritePattern>> &Patterns,
                     Context &Ctx)>
      CanonicalizationPatterns;
};

/// Sink for diagnostics. The default handler prints to stderr; tests
/// install capturing handlers.
using DiagnosticHandler = std::function<void(const std::string &Message)>;

class Context {
public:
  Context();
  ~Context();

  Context(const Context &) = delete;
  Context &operator=(const Context &) = delete;

  //===--------------------------------------------------------------------===//
  // Type and attribute uniquing
  //===--------------------------------------------------------------------===//

  /// Returns the canonical storage for a type equal to \p Prototype,
  /// creating it on first use. The Ctx field of the prototype is ignored.
  const TypeStorage *uniqueType(const TypeStorage &Prototype);

  /// Returns the canonical storage for an attribute equal to \p Prototype
  /// (String, Array and DenseF64 payloads are compared by content and
  /// copied into the arena). Float values are equal when their bits are:
  /// -0.0 and +0.0 are two attributes, and a NaN is equal to itself.
  const AttrStorage *uniqueAttr(const AttrStorage &Prototype);

  /// Returns a copy of \p Text that lives as long as this Context; equal
  /// texts share one copy. Attribute names on operations are interned.
  std::string_view internString(std::string_view Text);

  /// The arena holding this context's IR.
  BumpArena &getArena() { return Arena; }

  //===--------------------------------------------------------------------===//
  // Operation registry
  //===--------------------------------------------------------------------===//

  /// Registers an operation definition. Registering the same name twice is
  /// an error.
  const OpInfo *registerOp(OpInfo Info);

  /// Looks up the definition for \p Name. Unregistered names lazily get a
  /// conservative default definition (impure, unverified), so ops of
  /// unknown names can be built.
  const OpInfo *lookupOrCreateOpInfo(std::string_view Name);

  /// Returns the definition for \p Name or null if it was never seen.
  const OpInfo *lookupOpInfo(std::string_view Name) const;

  /// Invokes \p Fn for every registered operation definition.
  void forEachOpInfo(
      const std::function<void(const OpInfo &)> &Fn) const {
    for (const auto &Entry : OpRegistry)
      Fn(*Entry.second);
  }

  /// True if the dialect with namespace \p Name has been loaded.
  bool isDialectLoaded(const std::string &Name) const;
  /// Marks the dialect namespace \p Name as loaded.
  void markDialectLoaded(const std::string &Name);

  //===--------------------------------------------------------------------===//
  // Constant materialization
  //===--------------------------------------------------------------------===//

  /// Hook creating a dialect constant op for a folded attribute of the
  /// given result type (returns null if the dialect cannot represent it).
  using ConstantMaterializer =
      std::function<Operation *(OpBuilder &Builder, Attribute Value,
                                Type ResultType)>;

  void setConstantMaterializer(ConstantMaterializer Materializer) {
    ConstantHook = std::move(Materializer);
  }
  const ConstantMaterializer &getConstantMaterializer() const {
    return ConstantHook;
  }

  //===--------------------------------------------------------------------===//
  // Diagnostics
  //===--------------------------------------------------------------------===//

  /// Reports an error through the installed handler.
  void emitError(const std::string &Message);

  /// Installs \p Handler as diagnostic sink and returns the previous one.
  DiagnosticHandler setDiagnosticHandler(DiagnosticHandler Handler);

  /// Number of errors emitted so far.
  unsigned getNumErrors() const { return NumErrors; }

private:
  /// Open-addressing map from a value's 64 bits to its uniqued storage.
  class BitsTable {
  public:
    const AttrStorage *&lookup(uint64_t Bits);

  private:
    struct Slot {
      uint64_t Bits = 0;
      const AttrStorage *Storage = nullptr;
    };
    void grow();
    std::vector<Slot> Slots;
    size_t NumFilled = 0;
  };

  /// Hashes std::string and std::string_view alike, so the registry is
  /// searched without building a std::string.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view Text) const {
      return std::hash<std::string_view>()(Text);
    }
  };

  const AttrStorage *newAttr(const AttrStorage &Prototype);

  BumpArena Arena;
  std::unordered_multimap<size_t, const TypeStorage *> TypePool;
  /// Unit and Bool attributes, then Int and Float keyed by their bits.
  const AttrStorage *UnitAttrStorage = nullptr;
  const AttrStorage *BoolAttrStorage[2] = {nullptr, nullptr};
  BitsTable IntAttrs;
  BitsTable FloatAttrs;
  /// String, Type, Array and DenseF64 attributes by content hash.
  std::unordered_multimap<size_t, const AttrStorage *> AttrPool;
  std::unordered_set<std::string_view> InternedStrings;
  std::unordered_map<std::string, std::unique_ptr<OpInfo>, StringHash,
                     std::equal_to<>>
      OpRegistry;
  std::unordered_map<std::string, bool> LoadedDialects;
  ConstantMaterializer ConstantHook;
  DiagnosticHandler DiagHandler;
  unsigned NumErrors = 0;
};

} // namespace ir
} // namespace spnc

#endif // SPNC_IR_CONTEXT_H
