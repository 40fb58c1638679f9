//===- SmallVector.h - Vector with inline storage ---------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `SmallVector<T, N>` keeps its first N elements inline and moves to the
/// heap only beyond them, so building a short list allocates nothing.
/// Elements must be trivially copyable (values, types, attributes).
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_SUPPORT_SMALLVECTOR_H
#define SPNC_SUPPORT_SMALLVECTOR_H

#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>

namespace spnc {

template <typename T, size_t N> class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector elements are copied bitwise");

public:
  SmallVector() = default;
  SmallVector(const SmallVector &Other) { append(Other); }
  SmallVector &operator=(const SmallVector &Other) {
    if (this != &Other) {
      Size = 0;
      append(Other);
    }
    return *this;
  }

  size_t size() const { return Size; }
  T *data() { return Data; }
  const T *data() const { return Data; }
  T *begin() { return Data; }
  T *end() { return Data + Size; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Size; }
  T &operator[](size_t Index) {
    assert(Index < Size && "SmallVector index out of range");
    return Data[Index];
  }
  const T &operator[](size_t Index) const {
    assert(Index < Size && "SmallVector index out of range");
    return Data[Index];
  }
  operator std::span<const T>() const { return {Data, Size}; }

  void push_back(const T &Value) {
    if (Size == Capacity)
      grow(Size + 1);
    Data[Size++] = Value;
  }
  void append(std::span<const T> Values) {
    if (Size + Values.size() > Capacity)
      grow(Size + Values.size());
    if (!Values.empty())
      std::memcpy(static_cast<void *>(Data + Size), Values.data(),
                  Values.size_bytes());
    Size += Values.size();
  }

private:
  void grow(size_t MinCapacity) {
    size_t NewCapacity = Capacity * 2 > MinCapacity ? Capacity * 2
                                                    : MinCapacity;
    auto Grown = std::make_unique<T[]>(NewCapacity);
    std::memcpy(static_cast<void *>(Grown.get()), Data, Size * sizeof(T));
    Heap = std::move(Grown);
    Data = Heap.get();
    Capacity = NewCapacity;
  }

  T Inline[N];
  T *Data = Inline;
  size_t Size = 0;
  size_t Capacity = N;
  std::unique_ptr<T[]> Heap;
};

} // namespace spnc

#endif // SPNC_SUPPORT_SMALLVECTOR_H
