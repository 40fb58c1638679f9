//===- StringUtils.h - String formatting helpers ---------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style string formatting used for diagnostics and benchmark
/// reporting, avoiding `<iostream>` in library code, and the one checked
/// parser of unsigned numbers in flags and text formats.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_SUPPORT_STRINGUTILS_H
#define SPNC_SUPPORT_STRINGUTILS_H

#include <charconv>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace spnc {

/// Returns a std::string produced from a printf-style format.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 1, 2)))
#endif
inline std::string
formatString(const char *Format, ...) {
  va_list Args;
  va_start(Args, Format);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Size = std::vsnprintf(nullptr, 0, Format, Args);
  va_end(Args);
  std::string Result;
  if (Size > 0) {
    Result.resize(static_cast<size_t>(Size));
    std::vsnprintf(Result.data(), Result.size() + 1, Format, ArgsCopy);
  }
  va_end(ArgsCopy);
  return Result;
}

/// Splits \p Input on \p Separator; empty pieces are kept.
inline std::vector<std::string> splitString(const std::string &Input,
                                            char Separator) {
  std::vector<std::string> Pieces;
  size_t Start = 0;
  for (size_t I = 0; I <= Input.size(); ++I) {
    if (I == Input.size() || Input[I] == Separator) {
      Pieces.push_back(Input.substr(Start, I - Start));
      Start = I + 1;
    }
  }
  return Pieces;
}

/// Reads all of \p Text as a decimal integer that \p Out's type can hold
/// and is not negative. A sign, a blank, trailing characters, an empty
/// text or an overflow make it fail and leave \p Out unchanged.
template <typename T> bool parseUnsigned(std::string_view Text, T &Out) {
  static_assert(std::is_integral_v<T>, "parses integers");
  uint64_t Value = 0;
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  if (Ec != std::errc() || Ptr != End ||
      Value > static_cast<uint64_t>(std::numeric_limits<T>::max()))
    return false;
  Out = static_cast<T>(Value);
  return true;
}

} // namespace spnc

#endif // SPNC_SUPPORT_STRINGUTILS_H
