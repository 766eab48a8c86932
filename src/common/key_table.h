// Fixed-capacity open-addressed map from 64-bit keys to 32-bit values:
// linear probing over a power-of-two slot array, hashed with Mix64, with
// backward-shift deletion. Sized once at construction, so no operation
// allocates. Not synchronized: callers hold their own lock.

#ifndef EEB_COMMON_KEY_TABLE_H_
#define EEB_COMMON_KEY_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace eeb {

/// Smallest power of two >= v (1 for v <= 1).
inline size_t NextPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

class KeyTable {
 public:
  /// Room for `max_keys` live keys at a load factor of at most 1/2, which
  /// also guarantees every probe chain ends at an empty slot.
  explicit KeyTable(size_t max_keys)
      : mask_(NextPow2(max_keys * 2) - 1), slots_(mask_ + 1) {}

  /// The value stored for `key`, or nullptr when absent. The pointer stays
  /// valid until the next Erase; Insert never moves an entry.
  uint32_t* Find(uint64_t key) {
    size_t i = Home(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.key_plus1 == 0) return nullptr;
      if (s.key_plus1 == key + 1) return &s.value;
      i = (i + 1) & mask_;
    }
  }

  /// Adds `key` -> `value`; `key` must be absent and the table not full.
  void Insert(uint64_t key, uint32_t value) {
    size_t i = Home(key);
    while (slots_[i].key_plus1 != 0) i = (i + 1) & mask_;
    slots_[i].key_plus1 = key + 1;
    slots_[i].value = value;
  }

  /// Removes `key` if present.
  void Erase(uint64_t key) {
    size_t i = Home(key);
    while (slots_[i].key_plus1 != key + 1) {
      if (slots_[i].key_plus1 == 0) return;  // not present
      i = (i + 1) & mask_;
    }
    // Backward-shift deletion: probe chains stay intact with no tombstones,
    // so lookup cost never degrades under churn. An entry may stay put only
    // if its home slot lies in the cyclic range (hole, j].
    size_t hole = i;
    slots_[hole].key_plus1 = 0;
    size_t j = hole;
    while (true) {
      j = (j + 1) & mask_;
      const uint64_t kp = slots_[j].key_plus1;
      if (kp == 0) break;
      const size_t home = Home(kp - 1);
      const bool home_in_range =
          hole < j ? (home > hole && home <= j) : (home > hole || home <= j);
      if (!home_in_range) {
        slots_[hole] = slots_[j];
        slots_[j].key_plus1 = 0;
        hole = j;
      }
    }
  }

 private:
  struct Slot {
    uint64_t key_plus1 = 0;  // 0 = empty
    uint32_t value = 0;
  };

  size_t Home(uint64_t key) const {
    return static_cast<size_t>(Mix64(key)) & mask_;
  }

  const size_t mask_;
  std::vector<Slot> slots_;
};

}  // namespace eeb

#endif  // EEB_COMMON_KEY_TABLE_H_
