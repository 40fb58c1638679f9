//===- Transforms.h - Generic IR transformations ----------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dialect-agnostic transformations (paper §IV-A5): common subexpression
/// elimination, dead code elimination and the canonicalizer (greedy
/// pattern application + constant folding + DCE).
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_IR_TRANSFORMS_H
#define SPNC_IR_TRANSFORMS_H

#include "ir/PassManager.h"

namespace spnc {
namespace ir {

class Operation;

/// Eliminates duplicate pure operations. Values defined in enclosing
/// blocks are visible in nested ones, so the implementation uses a scoped
/// value-numbering table. Returns the number of erased ops.
unsigned runCSE(Operation *Scope);

/// Erases pure, unused operations until a fixpoint. Returns the number of
/// erased ops.
unsigned runDCE(Operation *Scope);

/// Applies all registered canonicalization patterns plus folding and DCE.
LogicalResult runCanonicalizer(Operation *Scope);

/// Pass wrappers for pipeline assembly.
std::unique_ptr<Pass> createCSEPass();
std::unique_ptr<Pass> createCanonicalizerPass();

} // namespace ir
} // namespace spnc

#endif // SPNC_IR_TRANSFORMS_H
