#ifndef LDPR_CORE_RNG_ENGINE_H_
#define LDPR_CORE_RNG_ENGINE_H_

// Internal to Rng: the bit engine and the bits -> [0, 1) conversion behind
// it, exposed so that tests can pin both against their <random> references.
// Everything else draws through ldpr::Rng (core/rng.h).

#include <cstddef>
#include <cstdint>

namespace ldpr::rng_internal {

/// The 64-bit Mersenne Twister: std::mt19937_64's seeding, recurrence and
/// tempering, so every seed yields std::mt19937_64's sequence bit for bit.
/// Unlike libstdc++'s, the twist selects the matrix word with a mask instead
/// of a branch on each word's low bit (a coin flip the predictor misses
/// about half the time). Words are tempered as they are returned; the state
/// has std::mt19937_64's size.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  explicit Mt19937_64(std::uint64_t seed) {
    mt_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      std::uint64_t x = mt_[i - 1];
      mt_[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (pos_ >= kN) Refill();
    std::uint64_t z = mt_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  /// Regenerates all kN words (the twist) and rewinds to the first.
  void Refill();

  std::uint64_t mt_[kN];
  std::size_t pos_ = kN;  // the first draw refills
};

/// Maps a full-range 64-bit draw to [0, 1) exactly as
/// std::generate_canonical<double, 53> does over a 64-bit engine: u * 2^-64
/// rounded to nearest-even, clamped to the largest double below 1. The two
/// 32-bit halves convert exactly and the one add rounds like a direct
/// unsigned conversion, without that conversion's branch on the top bit.
inline double UnitInterval(std::uint64_t u) {
  double d = (static_cast<double>(static_cast<std::uint32_t>(u >> 32)) * 0x1p32 +
              static_cast<double>(static_cast<std::uint32_t>(u))) *
             0x1p-64;
  return d < 1.0 ? d : 0x1.fffffffffffffp-1;
}

}  // namespace ldpr::rng_internal

#endif  // LDPR_CORE_RNG_ENGINE_H_
