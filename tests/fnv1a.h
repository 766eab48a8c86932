// FNV-1a 64 over little-endian 64-bit words: the hash golden tests use to
// pin a long sequence of results in one constant.

#ifndef EEB_TESTS_FNV1A_H_
#define EEB_TESTS_FNV1A_H_

#include <cstdint>

namespace eeb {

class Fnv1a {
 public:
  void Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

}  // namespace eeb

#endif  // EEB_TESTS_FNV1A_H_
