//===- FileIO.cpp - Whole-file reads and writes -----------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "support/FileIO.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <random>

using namespace spnc;

namespace {

/// Fails with "<What>: <errno text>" in \p ErrorMessage.
LogicalResult errnoFailure(std::string *ErrorMessage,
                           const std::string &What) {
  if (ErrorMessage)
    *ErrorMessage = What + ": " + std::strerror(errno);
  return failure();
}

/// Writes \p Bytes to \p File and closes it; false (errno set) when
/// either step fails.
bool writeAndClose(std::FILE *File, std::string_view Bytes) {
  bool Written =
      std::fwrite(Bytes.data(), 1, Bytes.size(), File) == Bytes.size();
  return std::fclose(File) == 0 && Written;
}

/// A name part no other writer of this process uses: a random
/// per-process tag and a counter. A clash with a file left by another
/// process is caught by the exclusive create and retried.
std::string uniqueSuffix() {
  static const unsigned ProcessTag = std::random_device()();
  static std::atomic<unsigned long long> Counter{0};
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%08x%llx", ProcessTag,
                Counter++);
  return Buffer;
}

} // namespace

Expected<std::string> spnc::readWholeFile(const std::string &Path) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return makeError("cannot open '" + Path + "': " + std::strerror(errno));
  std::string Bytes;
  char Chunk[1 << 16];
  size_t Read;
  while ((Read = std::fread(Chunk, 1, sizeof(Chunk), File)) > 0)
    Bytes.append(Chunk, Read);
  if (std::ferror(File)) {
    Error Err =
        makeError("cannot read '" + Path + "': " + std::strerror(errno));
    std::fclose(File);
    return Err;
  }
  std::fclose(File);
  return Bytes;
}

LogicalResult spnc::writeFileInPlace(const std::string &Path,
                                     std::string_view Bytes,
                                     std::string *ErrorMessage) {
  std::FILE *File = std::fopen(Path.c_str(), "wb");
  if (!File)
    return errnoFailure(ErrorMessage, "cannot create '" + Path + "'");
  if (!writeAndClose(File, Bytes))
    return errnoFailure(ErrorMessage, "cannot write '" + Path + "'");
  return success();
}

LogicalResult spnc::replaceFileAtomically(const std::string &Path,
                                          std::string_view Bytes,
                                          std::string *ErrorMessage) {
  constexpr unsigned kMaxAttempts = 100;
  std::string TempPath;
  std::FILE *File = nullptr;
  for (unsigned Attempt = 1; !File; ++Attempt) {
    TempPath = Path + ".tmp." + uniqueSuffix();
    File = std::fopen(TempPath.c_str(), "wbx");
    if (!File && (errno != EEXIST || Attempt == kMaxAttempts))
      return errnoFailure(ErrorMessage, "cannot create '" + TempPath + "'");
  }
  LogicalResult Result = success();
  if (!writeAndClose(File, Bytes))
    Result = errnoFailure(ErrorMessage, "cannot write '" + TempPath + "'");
  else if (std::rename(TempPath.c_str(), Path.c_str()) != 0)
    Result = errnoFailure(ErrorMessage, "cannot rename '" + TempPath +
                                            "' to '" + Path + "'");
  if (failed(Result))
    std::remove(TempPath.c_str());
  return Result;
}
