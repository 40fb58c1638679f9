//===- LookupBackend.h - The built-in backends by name ------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Finds a built-in backend by its `--backend` spelling: "vm" (the
/// bytecode engines) or "cpp" (AOT-compiled native kernels).
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_BACKEND_LOOKUPBACKEND_H
#define SPNC_BACKEND_LOOKUPBACKEND_H

#include "backend/Backend.h"

namespace spnc {
namespace backend {

/// The process-wide instance of the built-in backend named \p Name,
/// built on first lookup and shared by every caller (backends are
/// immutable). Fails with "unknown backend '<Name>'; built-in backends:
/// vm, cpp" for any other name. Thread-safe.
Expected<std::shared_ptr<Backend>> lookupBackend(const std::string &Name);

} // namespace backend
} // namespace spnc

#endif // SPNC_BACKEND_LOOKUPBACKEND_H
