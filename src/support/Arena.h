//===- Arena.h - Bump-pointer arena ----------------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `BumpArena` hands out memory from chunks it frees all at once when it
/// dies; nothing is returned earlier and no destructor runs, so only
/// trivially destructible objects live in it. The IR keeps every
/// operation, block, value and uniqued type/attribute of a Context in
/// one arena (DESIGN.md §5).
///
/// Under AddressSanitizer the unused tail of each chunk is poisoned and
/// every allocation unpoisoned, and owners poison what they retire with
/// `poisonMemory`, so a use after an IR object was erased is still
/// reported.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_SUPPORT_ARENA_H
#define SPNC_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define SPNC_ADDRESS_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SPNC_ADDRESS_SANITIZER 1
#endif
#endif

#ifdef SPNC_ADDRESS_SANITIZER
#include <sanitizer/asan_interface.h>
#endif

namespace spnc {

/// Marks [Addr, Addr + Size) unaddressable under AddressSanitizer; a
/// no-op otherwise.
inline void poisonMemory(const void *Addr, size_t Size) {
#ifdef SPNC_ADDRESS_SANITIZER
  ASAN_POISON_MEMORY_REGION(Addr, Size);
#else
  (void)Addr;
  (void)Size;
#endif
}

/// Marks [Addr, Addr + Size) addressable again under AddressSanitizer.
inline void unpoisonMemory(const void *Addr, size_t Size) {
#ifdef SPNC_ADDRESS_SANITIZER
  ASAN_UNPOISON_MEMORY_REGION(Addr, Size);
#else
  (void)Addr;
  (void)Size;
#endif
}

class BumpArena {
public:
  BumpArena() = default;
  ~BumpArena() {
    while (Chunks) {
      Chunk *Prev = Chunks->Prev;
      unpoisonMemory(Chunks, Chunks->Size);
      ::operator delete(Chunks);
      Chunks = Prev;
    }
  }

  BumpArena(const BumpArena &) = delete;
  BumpArena &operator=(const BumpArena &) = delete;

  /// Returns \p Size bytes aligned to \p Align (a power of two, at most
  /// alignof(std::max_align_t)).
  void *allocate(size_t Size, size_t Align) {
    uintptr_t P = (reinterpret_cast<uintptr_t>(Cur) + Align - 1) &
                  ~static_cast<uintptr_t>(Align - 1);
    if (!Cur || P + Size > reinterpret_cast<uintptr_t>(End))
      return allocateSlow(Size, Align);
    Cur = reinterpret_cast<char *>(P + Size);
    unpoisonMemory(reinterpret_cast<void *>(P), Size);
    return reinterpret_cast<void *>(P);
  }

  /// Constructs a T in the arena. T's destructor never runs.
  template <typename T, typename... Args> T *create(Args &&...CtorArgs) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed");
    return new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(CtorArgs)...);
  }

  /// Returns uninitialized room for \p N objects of type T.
  template <typename T> T *allocateArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed");
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Copies \p Values into the arena.
  template <typename T> std::span<const T> copy(std::span<const T> Values) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "arena copies are bitwise");
    if (Values.empty())
      return {};
    T *Data = allocateArray<T>(Values.size());
    std::memcpy(static_cast<void *>(Data), Values.data(),
                Values.size_bytes());
    return {Data, Values.size()};
  }

  /// Copies \p Text into the arena.
  std::string_view copy(std::string_view Text) {
    std::span<const char> Copy = copy(std::span<const char>(Text));
    return {Copy.data(), Copy.size()};
  }

  /// Appends \p Value to the array \p Data of \p Size elements and
  /// \p Capacity slots, moving it to a twice as large arena array when
  /// it is full (the old array is not reused).
  template <typename T>
  void append(T *&Data, unsigned &Size, unsigned &Capacity, const T &Value) {
    if (Size == Capacity) {
      Capacity = Capacity ? 2 * Capacity : 1;
      T *Grown = allocateArray<T>(Capacity);
      if (Size)
        std::memcpy(static_cast<void *>(Grown), Data, Size * sizeof(T));
      Data = Grown;
    }
    Data[Size++] = Value;
  }

private:
  /// Header at the start of every chunk; chunks form a stack.
  struct alignas(std::max_align_t) Chunk {
    Chunk *Prev;
    size_t Size;
  };

  static constexpr size_t kFirstChunkSize = size_t(16) << 10;
  static constexpr size_t kMaxChunkSize = size_t(1) << 20;

  void *allocateSlow(size_t Size, size_t Align) {
    size_t Needed = sizeof(Chunk) + Size + Align;
    // An allocation larger than a standard chunk gets a chunk of its own
    // behind the current one, so the current chunk keeps serving.
    if (Needed > NextChunkSize) {
      Chunk *Own = newChunk(Needed);
      if (Chunks) {
        Own->Prev = Chunks->Prev;
        Chunks->Prev = Own;
      } else {
        Chunks = Own;
      }
      uintptr_t P = (reinterpret_cast<uintptr_t>(Own + 1) + Align - 1) &
                    ~static_cast<uintptr_t>(Align - 1);
      unpoisonMemory(reinterpret_cast<void *>(P), Size);
      return reinterpret_cast<void *>(P);
    }
    Chunk *Fresh = newChunk(NextChunkSize);
    Fresh->Prev = Chunks;
    Chunks = Fresh;
    Cur = reinterpret_cast<char *>(Fresh + 1);
    End = reinterpret_cast<char *>(Fresh) + NextChunkSize;
    if (NextChunkSize < kMaxChunkSize)
      NextChunkSize *= 2;
    return allocate(Size, Align);
  }

  Chunk *newChunk(size_t Size) {
    Chunk *Result = new (::operator new(Size)) Chunk{nullptr, Size};
    poisonMemory(Result + 1, Size - sizeof(Chunk));
    return Result;
  }

  char *Cur = nullptr;
  char *End = nullptr;
  Chunk *Chunks = nullptr;
  size_t NextChunkSize = kFirstChunkSize;
};

} // namespace spnc

#endif // SPNC_SUPPORT_ARENA_H
