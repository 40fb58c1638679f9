//===- ProgramBinary.h - Binary encoding of kernel programs -------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary serialization of `KernelProgram`s — the analog of the object
/// code / CUBIN module the paper's pipeline produces. The GPU compile
/// pipeline encodes the device portion into this format and attaches it
/// to the host module (paper §IV-C); it also enables caching compiled
/// kernels on disk (`.spnk` files).
///
/// The on-disk layout is a stable, documented contract: see
/// docs/spnk-format.md for the byte-level specification and the version
/// history. The header carries an FNV-1a content checksum over the
/// payload, so truncated or bit-rotted blobs are rejected at decode time
/// instead of executing garbage.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_VM_PROGRAMBINARY_H
#define SPNC_VM_PROGRAMBINARY_H

#include "support/Expected.h"
#include "vm/Bytecode.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace spnc {
namespace vm {

/// The header version `encodeProgram` writes and the only one
/// `decodeProgram` reads. History (full table in docs/spnk-format.md):
/// v1 initial format, v2 added the lowering-strategy byte, v3 the FNV-1a
/// payload checksum, v4 the query-kind byte and the traceback plan (MPE
/// / sampling kernels), v5 the parameterization header (Parameterized
/// flag, NumParams) and the per-task parameter-site tables of
/// merged-model programs, v6 dropped the Parameterized flag (every
/// joint/marginal program carries sites) and added the fold sites of
/// the -O2 weight fold (docs/merging.md), v7 made LogSumExpN weighted
/// (its Args list the operand registers, then their weights' const-pool
/// slots), v8 replaced the FNV-1a checksum with XXH64 (payload
/// unchanged), v9 added LogSumExpGroup (the sums of one RAT-SPN region
/// sharing their exponentials; its Args list the children, the
/// destinations, then one raw-weight slot per sum and child). A `.spnk`
/// is only a cache, so older files are rejected and recompiled rather
/// than read.
inline constexpr uint32_t kProgramBinaryVersion = 9;

/// Encodes \p Program into a self-contained, checksummed byte blob in
/// the current format. Never fails.
std::vector<uint8_t> encodeProgram(const KernelProgram &Program);

/// Decodes a program produced by encodeProgram. The version must be
/// kProgramBinaryVersion, and the payload checksum is verified before
/// any structural parsing: a mismatch (truncation, bit rot, partial
/// write) fails with a "checksum mismatch" error. The decoded program is
/// then range-checked in one linear pass — opcodes, registers,
/// side-table indices, buffer ids and roles, step tasks and copies,
/// plan-node references and parameter sites — so a blob that carries a
/// valid checksum over a bad index still fails, with an error naming the
/// field. Errors never leave a partially-filled program behind.
Expected<KernelProgram> decodeProgram(std::span<const uint8_t> Blob);

/// Reads the `.spnk` file at \p Path and decodes it. Fails with
/// "cannot open '<Path>': <reason>" or "cannot read '<Path>': <reason>"
/// (the errno text, e.g. for a directory) when the bytes cannot be read,
/// and with "cannot load '<Path>': <decode error>" when they do not
/// decode.
Expected<KernelProgram> readProgramFile(const std::string &Path);

} // namespace vm
} // namespace spnc

#endif // SPNC_VM_PROGRAMBINARY_H
