//===- Hashing.h - Hash combination utilities ------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-combining helpers used by the IR uniquer and CSE. The mixing
/// function follows the boost::hash_combine recipe with a 64-bit constant.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_SUPPORT_HASHING_H
#define SPNC_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>
#include <functional>

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

/// The FNV-1a 64-bit offset basis: the hash of the empty range.
inline constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a over a byte range. Used as the content checksum of the
/// `.spnk` kernel-binary format (see docs/spnk-format.md): cheap, has no
/// dependencies, and detects the truncations and bit flips a disk-backed
/// cache must survive. Not cryptographic. Passing the hash of a prefix as
/// \p Hash continues it: hashing a range in pieces gives the same value.
inline uint64_t fnv1a64(const void *Data, size_t Size,
                        uint64_t Hash = kFnv1a64Basis) {
  const auto *Bytes = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I < Size; ++I) {
    Hash ^= Bytes[I];
    Hash *= 0x100000001b3ULL; // FNV prime
  }
  return Hash;
}

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
