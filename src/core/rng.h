#ifndef LDPR_CORE_RNG_H_
#define LDPR_CORE_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

#include "core/rng_engine.h"

namespace ldpr {

/// Deterministic random-number generator used across the library.
///
/// All randomized components in ldpr take an `Rng&` (or a seed) so every
/// experiment is reproducible from a single root seed. `Split()` derives an
/// independent child generator, which lets parallel workers consume
/// uncorrelated streams without sharing state.
///
/// The engine yields std::mt19937_64's sequence, and every draw below
/// returns what the same <random> distribution over std::mt19937_64 would.
/// The legacy streams depend on it: `RngTest.StreamMatchesStdEngine` pins
/// the engine and each draw bit for bit for several seeds, Split and Fork.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xC0FFEE123456789ULL);

  /// Derives an independent child generator. Successive calls yield distinct
  /// streams; the parent's future output is unaffected except for advancing
  /// its split counter.
  Rng Split();

  /// Derives the `stream`-th child generator *without* mutating this one.
  /// Fork(i) always returns the same stream for the same (seed, i), no matter
  /// how much the parent has advanced or split — this is what gives sharded
  /// simulations results that are independent of the worker-thread count.
  /// Fork streams are salted so they never collide with Split children.
  Rng Fork(std::uint64_t stream) const;

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t UniformInt(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformRange(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1): std::uniform_real_distribution<double>(0, 1)'s
  /// value, without its branchy unsigned conversion.
  double UniformReal() { return rng_internal::UnitInterval(engine_()); }

  /// Bernoulli draw: true with probability p (clamped to [0, 1]). Draws only
  /// for 0 < p < 1, and for a NaN p, which then returns false.
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformReal() < p;
  }

  /// Standard Laplace(0, b) sample.
  double Laplace(double b);

  /// Exponential(lambda) sample.
  double Exponential(double lambda);

  /// Standard normal sample.
  double Gaussian();

  /// Gamma(shape, 1) sample; used by the Dirichlet sampler.
  double Gamma(double shape);

  /// Binomial(n, p) sample.
  int Binomial(int n, double p);

  /// Binomial(n, p) sample for 64-bit n. The closed-form aggregation paths
  /// draw support counts over millions of users in one call, which overflows
  /// the int-based overload.
  long long Binomial64(long long n, double p);

  /// Samples `m` distinct values from {0, ..., n-1} uniformly at random,
  /// without replacement. Requires m <= n. Order of the result is random.
  std::vector<int> SampleWithoutReplacement(int n, int m);

  /// SampleWithoutReplacement into a caller-owned buffer (resized to n; the
  /// first m entries are the sample afterwards). Draws identically to the
  /// allocating overload — hot paths reuse `idx` to keep the RNG stream of
  /// the scalar path while skipping its per-call allocation.
  void SampleWithoutReplacementInto(int n, int m, std::vector<int>* idx);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (std::size_t i = v->size(); i > 1; --i) {
      std::size_t j = UniformInt(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// UniformRandomBitGenerator interface (usable with <random> distributions).
  static constexpr result_type min() {
    return rng_internal::Mt19937_64::min();
  }
  static constexpr result_type max() {
    return rng_internal::Mt19937_64::max();
  }
  result_type operator()() { return engine_(); }

 private:
  rng_internal::Mt19937_64 engine_;
  std::uint64_t seed_;
  std::uint64_t split_counter_ = 0;
};

}  // namespace ldpr

#endif  // LDPR_CORE_RNG_H_
