//===- Printer.h - Generic textual IR printing ------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints operations in MLIR's generic form, e.g.
/// `%0 = "lo_spn.mul"(%1, %2) : (f32, f32) -> f32`, for inspection
/// (`spnc-cli --dump-ir`, the `ir-dump:<stage>` stage). Nothing reads the
/// text back in: models enter the compiler as `.spnb` files.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_IR_PRINTER_H
#define SPNC_IR_PRINTER_H

#include <string>

namespace spnc {

class RawOStream;

namespace ir {

class Operation;

/// Prints \p Op (and nested regions) in generic form to \p OS.
void printOperation(Operation *Op, RawOStream &OS);

/// Returns the generic-form text of \p Op.
std::string opToString(Operation *Op);

} // namespace ir
} // namespace spnc

#endif // SPNC_IR_PRINTER_H
