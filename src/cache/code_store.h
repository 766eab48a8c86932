// Bit-packed storage for cached code words ("exploit every bit", paper
// Sec. 3.1 footnote 5): each cached item is `codes_per_item` fields of
// `bits_per_code` bits packed LSB-first into consecutive 64-bit words
// (PackBits/UnpackBits; a field may straddle two words). Slots are
// fixed-size so caches can recycle them under LRU eviction.

#ifndef EEB_CACHE_CODE_STORE_H_
#define EEB_CACHE_CODE_STORE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitops.h"
#include "common/types.h"

namespace eeb::cache {

/// Slot-addressed array of packed code tuples.
class CodeStore {
 public:
  /// @param codes_per_item  number of fields per item (d for per-dimension
  ///                        codes, 1 for multi-dimensional histogram codes)
  /// @param bits_per_code   tau, in [1, 32]
  CodeStore(size_t codes_per_item, uint32_t bits_per_code)
      : codes_per_item_(codes_per_item),
        bits_per_code_(bits_per_code),
        words_per_item_(WordsForBits(codes_per_item * bits_per_code)) {}

  /// Bytes occupied by one item (whole words, as packed in memory).
  size_t item_bytes() const { return words_per_item_ * sizeof(uint64_t); }

  size_t codes_per_item() const { return codes_per_item_; }
  uint32_t bits_per_code() const { return bits_per_code_; }

  /// Number of allocated slots.
  size_t num_slots() const {
    return words_per_item_ == 0 ? 0 : words_.size() / words_per_item_;
  }

  /// Appends a new zeroed slot and returns its index.
  uint32_t AllocateSlot() {
    const uint32_t slot = static_cast<uint32_t>(num_slots());
    words_.resize(words_.size() + words_per_item_, 0);
    return slot;
  }

  /// Overwrites slot contents with the given codes.
  void Write(uint32_t slot, std::span<const BucketId> codes) {
    const size_t first = static_cast<size_t>(slot) * words_per_item_;
    std::fill_n(words_.begin() + first, words_per_item_, 0);
    size_t bit = first * 64;
    for (size_t j = 0; j < codes_per_item_; ++j) {
      PackBits(words_, bit, bits_per_code_, codes[j]);
      bit += bits_per_code_;
    }
  }

  /// Decodes slot contents into `out` (must have codes_per_item entries).
  void Read(uint32_t slot, std::span<BucketId> out) const {
    const uint64_t* base =
        words_.data() + static_cast<size_t>(slot) * words_per_item_;
    size_t bit = 0;
    for (size_t j = 0; j < codes_per_item_; ++j) {
      out[j] = static_cast<BucketId>(UnpackBits(base, bit, bits_per_code_));
      bit += bits_per_code_;
    }
  }

 private:
  size_t codes_per_item_;
  uint32_t bits_per_code_;
  size_t words_per_item_;
  std::vector<uint64_t> words_;
};

}  // namespace eeb::cache

#endif  // EEB_CACHE_CODE_STORE_H_
