//===- Hashing.h - Hash combination utilities ------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-combining helpers used by the IR uniquer and CSE (the mixing
/// function follows the boost::hash_combine recipe with a 64-bit
/// constant), the XXH64 content hash over bytes or a stream of 64-bit
/// words, and the SplitMix64 finalizer.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_SUPPORT_HASHING_H
#define SPNC_SUPPORT_HASHING_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <type_traits>

namespace spnc {

/// Mixes \p Value into the running hash \p Seed.
inline void hashCombineSeed(size_t &Seed, size_t Value) {
  Seed ^= Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2);
}

/// Returns a hash combining all arguments, each hashed with std::hash.
template <typename... Ts>
size_t hashCombine(const Ts &...Values) {
  size_t Seed = 0;
  (hashCombineSeed(Seed, std::hash<Ts>()(Values)), ...);
  return Seed;
}

namespace xxh64_detail {

inline constexpr uint64_t P1 = 0x9E3779B185EBCA87ULL;
inline constexpr uint64_t P2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr uint64_t P3 = 0x165667B19E3779F9ULL;
inline constexpr uint64_t P4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr uint64_t P5 = 0x27D4EB2F165667C5ULL;

inline uint64_t xxRound(uint64_t Acc, uint64_t Lane) {
  return std::rotl(Acc + Lane * P2, 31) * P1;
}

inline uint64_t load64(const uint8_t *Bytes) {
  uint64_t Word;
  std::memcpy(&Word, Bytes, sizeof(Word));
  return Word;
}

/// The four lane accumulators of a run of whole 32-byte stripes.
struct Lanes {
  uint64_t Acc[4];

  explicit Lanes(uint64_t Seed)
      : Acc{Seed + P1 + P2, Seed + P2, Seed, Seed - P1} {}
  void stripe(const uint64_t Words[4]) {
    for (int L = 0; L < 4; ++L)
      Acc[L] = xxRound(Acc[L], Words[L]);
  }
  uint64_t converge() const {
    uint64_t Hash = std::rotl(Acc[0], 1) + std::rotl(Acc[1], 7) +
                    std::rotl(Acc[2], 12) + std::rotl(Acc[3], 18);
    for (uint64_t A : Acc)
      Hash = (Hash ^ xxRound(0, A)) * P1 + P4;
    return Hash;
  }
};

/// Adds the input length, consumes the last `Length % 32` bytes
/// (\p Tail, \p Size) and avalanches.
inline uint64_t finish(uint64_t Hash, uint64_t Length, const uint8_t *Tail,
                       size_t Size) {
  Hash += Length;
  for (; Size >= 8; Tail += 8, Size -= 8)
    Hash = std::rotl(Hash ^ xxRound(0, load64(Tail)), 27) * P1 + P4;
  if (Size >= 4) {
    uint32_t Word;
    std::memcpy(&Word, Tail, sizeof(Word));
    Hash = std::rotl(Hash ^ (Word * P1), 23) * P2 + P3;
    Tail += 4;
    Size -= 4;
  }
  for (; Size > 0; ++Tail, --Size)
    Hash = std::rotl(Hash ^ (*Tail * P5), 11) * P1;
  Hash = (Hash ^ (Hash >> 33)) * P2;
  Hash = (Hash ^ (Hash >> 29)) * P3;
  return Hash ^ (Hash >> 32);
}

} // namespace xxh64_detail

/// XXH64 of a byte range (https://github.com/Cyan4973/xxHash,
/// doc/xxhash_spec.md): reads its input a 64-bit word at a time in four
/// independent lanes, and every input bit affects every output bit. It
/// is the project's one content hash: the `.spnk` payload checksum (see
/// docs/spnk-format.md), the structural hash of a model, and the hash of
/// stage names, backend names, toolchain flags and IR attribute
/// payloads. Not cryptographic; words are read in host (little-endian)
/// order.
inline uint64_t xxh64(const void *Data, size_t Size, uint64_t Seed = 0) {
  using namespace xxh64_detail;
  const auto *Bytes = static_cast<const uint8_t *>(Data);
  uint64_t Hash = Seed + P5;
  if (Size >= 32) {
    Lanes State(Seed);
    const uint8_t *End = Bytes + Size / 32 * 32;
    for (; Bytes != End; Bytes += 32) {
      uint64_t Words[4] = {load64(Bytes), load64(Bytes + 8),
                           load64(Bytes + 16), load64(Bytes + 24)};
      State.stripe(Words);
    }
    Hash = State.converge();
  }
  return finish(Hash, Size, Bytes, Size % 32);
}

/// XXH64 of a stream of 64-bit words fed one at a time: the same value as
/// xxh64 over the words' bytes, without storing the stream.
class WordHasher {
public:
  explicit WordHasher(uint64_t Seed = 0) : Seed(Seed), State(Seed) {}

  void add(uint64_t Word) {
    Pending[NumWords++ % 4] = Word;
    if (NumWords % 4 == 0)
      State.stripe(Pending);
  }

  /// Adds each of \p Fields as one word: integers, bools and enums by
  /// value, doubles by their bits.
  template <typename... Ts> void addFields(const Ts &...Fields) {
    (add(toWord(Fields)), ...);
  }

  uint64_t finish() const {
    uint64_t Hash =
        NumWords >= 4 ? State.converge() : Seed + xxh64_detail::P5;
    return xxh64_detail::finish(
        Hash, NumWords * sizeof(uint64_t),
        reinterpret_cast<const uint8_t *>(Pending),
        NumWords % 4 * sizeof(uint64_t));
  }

private:
  template <typename T> static uint64_t toWord(const T &Field) {
    static_assert(std::is_same_v<T, double> || std::is_integral_v<T> ||
                  std::is_enum_v<T>);
    if constexpr (std::is_same_v<T, double>)
      return std::bit_cast<uint64_t>(Field);
    else
      return static_cast<uint64_t>(Field);
  }

  uint64_t Seed;
  xxh64_detail::Lanes State;
  uint64_t Pending[4] = {};
  uint64_t NumWords = 0;
};

/// SplitMix64 finalizer: a bijective avalanche mix of a 64-bit value.
/// Every input bit affects every output bit, which makes it suitable for
/// turning structured keys (small counters, shard/virtual-node indices)
/// into uniformly distributed points — the consistent-hash ring of the
/// serving layer is built from it.
inline uint64_t splitmix64(uint64_t Value) {
  Value += 0x9e3779b97f4a7c15ULL;
  Value = (Value ^ (Value >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Value = (Value ^ (Value >> 27)) * 0x94d049bb133111ebULL;
  return Value ^ (Value >> 31);
}

/// Hashes a contiguous range of values.
template <typename Iterator>
size_t hashRange(Iterator Begin, Iterator End) {
  size_t Seed = 0;
  for (Iterator It = Begin; It != End; ++It)
    hashCombineSeed(
        Seed, std::hash<typename std::iterator_traits<Iterator>::value_type>()(
                  *It));
  return Seed;
}

} // namespace spnc

#endif // SPNC_SUPPORT_HASHING_H
