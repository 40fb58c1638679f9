//===- ByteStream.h - Little-endian byte writer and reader ------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one byte codec of the binary file formats (`.spnb` models and
/// `.spnk` kernels): an append-only writer and a bounds-checked reader of
/// little-endian scalars, length-prefixed strings and length-prefixed
/// f64 arrays. Header-only, so a decoder's per-field reads inline.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_SUPPORT_BYTESTREAM_H
#define SPNC_SUPPORT_BYTESTREAM_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spnc {

// Scalars are copied in host byte order, which is the formats' order.
static_assert(std::endian::native == std::endian::little,
              "the binary formats are little-endian");

/// Append-only writer.
class ByteWriter {
public:
  std::vector<uint8_t> take() { return std::move(Bytes); }

  void u8(uint8_t V) { Bytes.push_back(V); }
  void u32(uint32_t V) { raw(&V, sizeof(V)); }
  void u64(uint64_t V) { raw(&V, sizeof(V)); }
  void f64(double V) { raw(&V, sizeof(V)); }
  /// u32 length, then the bytes.
  void str(std::string_view V) {
    u32(static_cast<uint32_t>(V.size()));
    raw(V.data(), V.size());
  }
  /// u32 count, then the values.
  void f64Vec(std::span<const double> V) {
    u32(static_cast<uint32_t>(V.size()));
    for (double X : V)
      f64(X);
  }

private:
  void raw(const void *Data, size_t Size) {
    const auto *P = static_cast<const uint8_t *>(Data);
    Bytes.insert(Bytes.end(), P, P + Size);
  }
  std::vector<uint8_t> Bytes;
};

/// Bounds-checked reader. A read past the end sets bad() and returns
/// zero (an empty string or array); later reads keep failing, so a
/// decoder may check bad() once per record.
class ByteReader {
public:
  explicit ByteReader(std::span<const uint8_t> Bytes) : Bytes(Bytes) {}

  bool bad() const { return Error; }
  bool atEnd() const { return Offset == Bytes.size(); }

  uint8_t u8() { return scalar<uint8_t>(); }
  uint32_t u32() { return scalar<uint32_t>(); }
  uint64_t u64() { return scalar<uint64_t>(); }
  double f64() { return scalar<double>(); }
  std::string str() {
    uint32_t Size = u32();
    if (Error || Bytes.size() - Offset < Size) {
      Error = true;
      return {};
    }
    std::string V(reinterpret_cast<const char *>(Bytes.data() + Offset), Size);
    Offset += Size;
    return V;
  }
  std::vector<double> f64Vec() {
    uint32_t Size = u32();
    if (Error || (Bytes.size() - Offset) / sizeof(double) < Size) {
      Error = true;
      return {};
    }
    std::vector<double> V(Size);
    for (double &X : V)
      X = f64();
    return V;
  }

private:
  template <typename T> T scalar() {
    T V{};
    if (Error || Bytes.size() - Offset < sizeof(T)) {
      Error = true;
      return V;
    }
    std::memcpy(&V, Bytes.data() + Offset, sizeof(T));
    Offset += sizeof(T);
    return V;
  }

  std::span<const uint8_t> Bytes;
  size_t Offset = 0;
  bool Error = false;
};

/// Views text read from a file as bytes, without copying.
inline std::span<const uint8_t> asBytes(std::string_view Text) {
  return {reinterpret_cast<const uint8_t *>(Text.data()), Text.size()};
}

/// Views bytes as text for a file writer, without copying.
inline std::string_view asChars(std::span<const uint8_t> Bytes) {
  return {reinterpret_cast<const char *>(Bytes.data()), Bytes.size()};
}

} // namespace spnc

#endif // SPNC_SUPPORT_BYTESTREAM_H
