//===- ValueMap.h - Flat map keyed by SSA values ----------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `ValueMap<T>` maps SSA values (by their storage) to small trivially
/// copyable data such as register or buffer numbers. It is one
/// open-addressing array, so adding an entry allocates nothing but the
/// occasional doubling.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_IR_VALUEMAP_H
#define SPNC_IR_VALUEMAP_H

#include "ir/Value.h"
#include "support/Hashing.h"

#include <cassert>
#include <type_traits>
#include <vector>

namespace spnc {
namespace ir {

template <typename T> class ValueMap {
  static_assert(std::is_trivially_copyable_v<T>,
                "ValueMap data is copied bitwise");

public:
  /// Returns the entry of \p Key, value-initialized if it was absent.
  /// The reference is valid until the next insertion.
  T &operator[](const ValueImpl *Key) {
    if (2 * (NumFilled + 1) > Slots.size())
      grow();
    Slot &Entry = Slots[find(Key)];
    if (!Entry.Key) {
      Entry.Key = Key;
      ++NumFilled;
    }
    return Entry.Data;
  }

  /// Returns the entry of \p Key, which must be present.
  T at(const ValueImpl *Key) const {
    const T *Data = lookup(Key);
    assert(Data && "ValueMap::at on an absent value");
    return *Data;
  }

  /// Returns the entry of \p Key, or null if it is absent.
  const T *lookup(const ValueImpl *Key) const {
    if (Slots.empty())
      return nullptr;
    const Slot &Entry = Slots[find(Key)];
    return Entry.Key ? &Entry.Data : nullptr;
  }

private:
  struct Slot {
    const ValueImpl *Key = nullptr;
    T Data{};
  };

  /// Index of \p Key's slot, or of the empty slot where it would go.
  size_t find(const ValueImpl *Key) const {
    size_t Mask = Slots.size() - 1;
    size_t I = splitmix64(reinterpret_cast<uintptr_t>(Key)) & Mask;
    while (Slots[I].Key && Slots[I].Key != Key)
      I = (I + 1) & Mask;
    return I;
  }

  void grow() {
    std::vector<Slot> Old(Slots.empty() ? 64 : 2 * Slots.size());
    Old.swap(Slots);
    for (const Slot &Entry : Old)
      if (Entry.Key)
        Slots[find(Entry.Key)] = Entry;
  }

  std::vector<Slot> Slots;
  size_t NumFilled = 0;
};

} // namespace ir
} // namespace spnc

#endif // SPNC_IR_VALUEMAP_H
