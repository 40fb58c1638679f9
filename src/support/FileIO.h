//===- FileIO.h - Whole-file reads and writes -------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place the library opens files. A checked whole-file read, a
/// checked in-place write for files nothing reads back (reports, IR
/// dumps, the cpp backend's build units), and an atomic replace for the
/// files that are (`.spnb` models, `.spnk` kernels, `.tune.json`
/// tuning records). Errors carry the path and the errno text.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_SUPPORT_FILEIO_H
#define SPNC_SUPPORT_FILEIO_H

#include "support/Expected.h"
#include "support/LogicalResult.h"
#include "support/RawOStream.h"

#include <string>
#include <string_view>

namespace spnc {

/// Reads the whole file at \p Path. Fails with "cannot open '<Path>':
/// <reason>" or "cannot read '<Path>': <reason>" (e.g. "Is a
/// directory").
Expected<std::string> readWholeFile(const std::string &Path);

/// Creates or truncates \p Path and writes \p Bytes to it. A failed
/// write may leave a partial file. On failure \p ErrorMessage (when
/// non-null) receives "cannot create '<Path>': <reason>" or "cannot
/// write '<Path>': <reason>".
LogicalResult writeFileInPlace(const std::string &Path,
                               std::string_view Bytes,
                               std::string *ErrorMessage = nullptr);

/// Replaces \p Path with \p Bytes so that a reader sees either the old
/// or the new file, never a partial one. The bytes go to a sibling
/// `<Path>.tmp.<unique>` that this call alone creates (exclusively, so
/// concurrent writers of one path never share it, and with the mode the
/// umask gives), which is renamed over \p Path after a complete write;
/// of concurrent writers the last rename wins. A failed write removes
/// its sibling and leaves \p Path as it was; a crashed writer leaves its
/// own sibling behind, which nothing reads. On failure \p ErrorMessage
/// (when non-null) receives "cannot create '<sibling>': <reason>",
/// "cannot write '<sibling>': <reason>" or "cannot rename '<sibling>'
/// to '<Path>': <reason>". Thread-safe.
LogicalResult replaceFileAtomically(const std::string &Path,
                                    std::string_view Bytes,
                                    std::string *ErrorMessage = nullptr);

/// Renders what \p Emit prints to its RawOStream into memory, then
/// writes it to \p Path with writeFileInPlace.
template <typename EmitFn>
LogicalResult writeRenderedFile(const std::string &Path,
                                std::string *ErrorMessage, EmitFn Emit) {
  std::string Text;
  StringOStream OS(Text);
  Emit(OS);
  return writeFileInPlace(Path, Text, ErrorMessage);
}

} // namespace spnc

#endif // SPNC_SUPPORT_FILEIO_H
