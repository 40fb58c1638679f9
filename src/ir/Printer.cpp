//===- Printer.cpp - Generic textual IR printing ----------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"

#include "ir/Operation.h"
#include "support/Compiler.h"
#include "support/RawOStream.h"
#include "support/StringUtils.h"

#include <cmath>
#include <unordered_map>

using namespace spnc;
using namespace spnc::ir;

//===----------------------------------------------------------------------===//
// Type printing
//===----------------------------------------------------------------------===//

static void printShape(std::span<const int64_t> Shape, RawOStream &OS) {
  for (int64_t Dim : Shape) {
    if (Dim == TypeStorage::kDynamic)
      OS << '?';
    else
      OS << Dim;
    OS << 'x';
  }
}

void Type::print(RawOStream &OS) const {
  if (!Impl) {
    OS << "<<null type>>";
    return;
  }
  switch (Impl->Kind) {
  case TypeKind::Index:
    OS << "index";
    return;
  case TypeKind::Integer:
    OS << 'i' << Impl->Width;
    return;
  case TypeKind::Float:
    OS << 'f' << Impl->Width;
    return;
  case TypeKind::Probability:
    OS << "!hi_spn.prob";
    return;
  case TypeKind::Log:
    OS << "!lo_spn.log<";
    Type(Impl->Element).print(OS);
    OS << '>';
    return;
  case TypeKind::Tensor:
    OS << "tensor<";
    printShape(Impl->Shape, OS);
    Type(Impl->Element).print(OS);
    OS << '>';
    return;
  case TypeKind::MemRef:
    OS << "memref<";
    printShape(Impl->Shape, OS);
    Type(Impl->Element).print(OS);
    OS << '>';
    return;
  }
  spnc_unreachable("unhandled type kind");
}

//===----------------------------------------------------------------------===//
// Attribute printing
//===----------------------------------------------------------------------===//

static void printDouble(double Value, RawOStream &OS) {
  if (std::isnan(Value)) {
    OS << "nan";
    return;
  }
  if (std::isinf(Value)) {
    OS << (Value < 0 ? "-inf" : "inf");
    return;
  }
  std::string Text = formatString("%.17g", Value);
  // A printed float reads as a float, not an integer.
  if (Text.find_first_of(".e") == std::string::npos)
    Text += ".0";
  OS << Text;
}

void Attribute::print(RawOStream &OS) const {
  if (!Impl) {
    OS << "<<null attribute>>";
    return;
  }
  switch (Impl->Kind) {
  case AttrKind::Unit:
    OS << "unit";
    return;
  case AttrKind::Bool:
    OS << (Impl->BoolValue ? "true" : "false");
    return;
  case AttrKind::Int:
    OS << Impl->IntValue;
    return;
  case AttrKind::Float:
    printDouble(Impl->FloatValue, OS);
    return;
  case AttrKind::String: {
    OS << '"';
    for (char C : Impl->getString()) {
      if (C == '"' || C == '\\')
        OS << '\\';
      OS << C;
    }
    OS << '"';
    return;
  }
  case AttrKind::Type:
    Type(Impl->TypeValue).print(OS);
    return;
  case AttrKind::DenseF64: {
    OS << "dense<[";
    bool First = true;
    for (double Value : Impl->getDoubles()) {
      if (!First)
        OS << ", ";
      First = false;
      printDouble(Value, OS);
    }
    OS << "]>";
    return;
  }
  }
  spnc_unreachable("unhandled attribute kind");
}

//===----------------------------------------------------------------------===//
// Operation printing
//===----------------------------------------------------------------------===//

namespace {

/// Stateful printer assigning stable SSA names while walking the IR.
class AsmPrinter {
public:
  explicit AsmPrinter(RawOStream &OS) : OS(OS) {}

  void printOp(Operation *Op, unsigned Indent) {
    OS.indent(Indent);
    if (Op->getNumResults() > 0) {
      for (unsigned I = 0; I < Op->getNumResults(); ++I) {
        if (I > 0)
          OS << ", ";
        OS << nameOf(Op->getResult(I));
      }
      OS << " = ";
    }
    OS << '"' << Op->getName() << "\"(";
    for (unsigned I = 0; I < Op->getNumOperands(); ++I) {
      if (I > 0)
        OS << ", ";
      OS << nameOf(Op->getOperand(I));
    }
    OS << ')';

    if (Op->getNumRegions() > 0) {
      OS << " (";
      for (unsigned I = 0; I < Op->getNumRegions(); ++I) {
        if (I > 0)
          OS << ", ";
        printRegion(Op->getRegion(I), Indent);
      }
      OS << ')';
    }

    if (!Op->getAttrs().empty()) {
      OS << " {";
      bool First = true;
      for (const NamedAttribute &Entry : Op->getAttrs()) {
        if (!First)
          OS << ", ";
        First = false;
        OS << Entry.Name << " = ";
        Entry.Value.print(OS);
      }
      OS << '}';
    }

    OS << " : (";
    for (unsigned I = 0; I < Op->getNumOperands(); ++I) {
      if (I > 0)
        OS << ", ";
      Op->getOperand(I).getType().print(OS);
    }
    OS << ") -> ";
    if (Op->getNumResults() == 1) {
      Op->getResult(0).getType().print(OS);
    } else {
      OS << '(';
      for (unsigned I = 0; I < Op->getNumResults(); ++I) {
        if (I > 0)
          OS << ", ";
        Op->getResult(I).getType().print(OS);
      }
      OS << ')';
    }
    OS << '\n';
  }

private:
  void printRegion(Region &TheRegion, unsigned Indent) {
    OS << "{\n";
    for (auto &TheBlock : TheRegion) {
      if (TheBlock->getNumArguments() > 0) {
        OS.indent(Indent);
        OS << "^bb(";
        for (unsigned I = 0; I < TheBlock->getNumArguments(); ++I) {
          if (I > 0)
            OS << ", ";
          Value Arg = TheBlock->getArgument(I);
          OS << nameOf(Arg) << ": ";
          Arg.getType().print(OS);
        }
        OS << "):\n";
      }
      for (Operation *Op : *TheBlock)
        printOp(Op, Indent + 2);
    }
    OS.indent(Indent);
    OS << '}';
  }

  const std::string &nameOf(Value V) {
    auto It = Names.find(V.getImpl());
    if (It != Names.end())
      return It->second;
    std::string Name;
    if (V.isBlockArgument())
      Name = formatString("%%arg%u", NextArgId++);
    else
      Name = formatString("%%%u", NextResultId++);
    return Names.emplace(V.getImpl(), std::move(Name)).first->second;
  }

  RawOStream &OS;
  std::unordered_map<ValueImpl *, std::string> Names;
  unsigned NextResultId = 0;
  unsigned NextArgId = 0;
};

} // namespace

void spnc::ir::printOperation(Operation *Op, RawOStream &OS) {
  AsmPrinter Printer(OS);
  Printer.printOp(Op, 0);
}

std::string spnc::ir::opToString(Operation *Op) {
  std::string Result;
  StringOStream OS(Result);
  printOperation(Op, OS);
  return Result;
}
