// Deterministic pseudo-random generation. Every randomized component in the
// library takes an explicit seed so benchmark tables reproduce bit-for-bit.

#ifndef EEB_COMMON_RANDOM_H_
#define EEB_COMMON_RANDOM_H_

#include <cmath>
#include <cstdint>

namespace eeb {

/// SplitMix64 finalizer: a stateless single-word hash with good avalanche.
/// Seeds Rng and hashes keys (KeyTable, the analytics sampling gate).
inline uint64_t Mix64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256** generator seeded via SplitMix64. Fast, decent quality,
/// fully deterministic across platforms (unlike std::mt19937 distributions).
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // SplitMix64 expansion of the seed into the 256-bit state.
    uint64_t x = seed;
    for (int i = 0; i < 4; ++i) {
      x += 0x9e3779b97f4a7c15ULL;
      s_[i] = Mix64(x);
    }
  }

  /// Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double NextDouble() { return (Next() >> 11) * 0x1.0p-53; }

  /// Standard normal via Box-Muller (no cached second value; simple and
  /// deterministic).
  double NextGaussian() {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 < 1e-300) u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
};

}  // namespace eeb

#endif  // EEB_COMMON_RANDOM_H_
