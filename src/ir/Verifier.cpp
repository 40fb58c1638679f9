//===- Verifier.cpp - Structural IR verification ----------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/Context.h"
#include "ir/Operation.h"
#include "support/StringUtils.h"

#include <unordered_map>
#include <unordered_set>

using namespace spnc;
using namespace spnc::ir;

namespace {

class VerifierImpl {
public:
  explicit VerifierImpl(Context &Ctx) : Ctx(Ctx) {}

  LogicalResult verifyOp(Operation *Op) {
    LogicalResult Result = success();

    // Check operands: visibility and dominance.
    for (unsigned I = 0; I < Op->getNumOperands(); ++I) {
      Value Operand = Op->getOperand(I);
      if (!Operand) {
        error(Op, formatString("operand %u is null", I));
        Result = failure();
        continue;
      }
      if (failed(verifyOperandVisibility(Op, Operand, I)))
        Result = failure();
    }

    // Terminators must be the last operation of their block.
    if (Op->isTerminator() && Op->getBlock() &&
        Op->getBlock()->back() != Op) {
      error(Op, "terminator is not the last operation in its block");
      Result = failure();
    }

    // Run the op-specific verifier.
    if (const auto &OpVerifier = Op->getInfo()->Verifier)
      if (failed(OpVerifier(Op))) {
        error(Op, "operation verifier failed");
        Result = failure();
      }

    // Recurse into regions, numbering ops per block for dominance checks.
    for (unsigned R = 0; R < Op->getNumRegions(); ++R) {
      for (auto &TheBlock : Op->getRegion(R)) {
        unsigned Position = 0;
        for (Operation *Nested : *TheBlock) {
          OpPosition[Nested] = Position++;
          if (Nested->isTerminator() && TheBlock->back() != Nested) {
            error(Nested, "terminator is not the last operation");
            Result = failure();
          }
        }
        for (Operation *Nested : *TheBlock)
          if (failed(verifyOp(Nested)))
            Result = failure();
      }
    }
    return Result;
  }

private:
  /// Checks that \p Operand is visible at \p User: defined in the same
  /// block before the user, or in an ancestor block.
  LogicalResult verifyOperandVisibility(Operation *User, Value Operand,
                                        unsigned OperandIdx) {
    Block *DefBlock = Operand.isBlockArgument()
                          ? Operand.getOwnerBlock()
                          : Operand.getDefiningOp()->getBlock();
    // Walk up from the user's block looking for the defining block.
    for (Block *Current = User->getBlock(); Current;) {
      if (Current == DefBlock) {
        // Same-block op definitions must come before the user.
        if (Operation *Def = Operand.getDefiningOp();
            Def && Current == User->getBlock()) {
          auto DefIt = OpPosition.find(Def);
          auto UseIt = OpPosition.find(User);
          if (DefIt != OpPosition.end() && UseIt != OpPosition.end() &&
              DefIt->second >= UseIt->second) {
            error(User, formatString("operand %u used before its definition",
                                     OperandIdx));
            return failure();
          }
        }
        return success();
      }
      Operation *Parent = Current->getParentOp();
      Current = Parent ? Parent->getBlock() : nullptr;
    }
    error(User,
          formatString("operand %u defined outside any enclosing region",
                       OperandIdx));
    return failure();
  }

  void error(Operation *Op, const std::string &Message) {
    Ctx.emitError(formatString("'%s': %s", Op->getName().c_str(),
                               Message.c_str()));
  }

  Context &Ctx;
  std::unordered_map<Operation *, unsigned> OpPosition;
};

} // namespace

LogicalResult spnc::ir::verify(Operation *TopLevel) {
  VerifierImpl Impl(TopLevel->getContext());
  return Impl.verifyOp(TopLevel);
}

LogicalResult spnc::ir::verify(Operation *TopLevel,
                               std::string *FirstDiagnostic) {
  if (!FirstDiagnostic)
    return verify(TopLevel);
  // Capture the first diagnostic instead of letting it reach the
  // context's (stderr-printing) handler; every later diagnostic of the
  // same run is swallowed with it.
  Context &Ctx = TopLevel->getContext();
  std::string Captured;
  DiagnosticHandler Previous =
      Ctx.setDiagnosticHandler([&Captured](const std::string &Message) {
        if (Captured.empty())
          Captured = Message;
      });
  LogicalResult Result = verify(TopLevel);
  Ctx.setDiagnosticHandler(std::move(Previous));
  *FirstDiagnostic = std::move(Captured);
  return Result;
}
