//===- Serializer.h - Binary SPN model serialization --------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary serialization of SPN models. The paper (§IV-A1) uses a custom
/// Cap'n-Proto-based binary format because SPFlow lacks binary
/// serialization; this is the equivalent container here: a versioned,
/// little-endian, length-prefixed node table.
///
/// Layout:
///   magic "SPNB" | u32 version | u32 numFeatures | u32 nameLen | name
///   | u32 numNodes | u32 rootId | nodes...
/// Each node: u8 kind | payload (see Serializer.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_FRONTEND_SERIALIZER_H
#define SPNC_FRONTEND_SERIALIZER_H

#include "frontend/Model.h"
#include "support/Expected.h"
#include "support/LogicalResult.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace spnc {
namespace spn {

/// Serializes \p TheModel into a byte buffer.
std::vector<uint8_t> serializeModel(const Model &TheModel);

/// Deserializes a model from \p Buffer; fails on malformed input.
Expected<Model> deserializeModel(std::span<const uint8_t> Buffer);

/// Writes the serialized model to \p Path, atomically (see
/// replaceFileAtomically). On failure \p ErrorMessage (when non-null)
/// receives an errno-based reason.
LogicalResult saveModel(const Model &TheModel, const std::string &Path,
                        std::string *ErrorMessage = nullptr);

/// Reads a serialized model from \p Path. Fails with "cannot open
/// '<Path>': <reason>", "cannot read '<Path>': <reason>" or the decode
/// error.
Expected<Model> loadModel(const std::string &Path);

} // namespace spn
} // namespace spnc

#endif // SPNC_FRONTEND_SERIALIZER_H
