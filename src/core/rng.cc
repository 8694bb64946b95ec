#include "core/rng.h"

#include <cmath>
#include <random>

#include "core/check.h"
#include "core/hash.h"

namespace ldpr {

// Rng is copied by value (Fork, vectors of per-attribute generators): the
// engine keeps std::mt19937_64's footprint.
static_assert(sizeof(Rng) <= sizeof(std::mt19937_64) + 24,
              "Rng grew beyond std::mt19937_64's state");

namespace rng_internal {

void Mt19937_64::Refill() {
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t kLower = ~kUpper;
  constexpr std::uint64_t kMatrix = 0xB5026F5AA96619E9ULL;
  // mt_[i] <- mt_[i + M (mod N)] ^ twist(upper bits of mt_[i], lower bits of
  // mt_[i + 1 (mod N)]); the three loops keep the indices free of a modulo.
  auto twist = [](std::uint64_t hi, std::uint64_t lo, std::uint64_t far) {
    std::uint64_t y = (hi & kUpper) | (lo & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
  };
  std::size_t i = 0;
  for (; i < kN - kM; ++i) mt_[i] = twist(mt_[i], mt_[i + 1], mt_[i + kM]);
  for (; i < kN - 1; ++i) {
    mt_[i] = twist(mt_[i], mt_[i + 1], mt_[i + kM - kN]);
  }
  mt_[kN - 1] = twist(mt_[kN - 1], mt_[0], mt_[kM - 1]);
  pos_ = 0;
}

}  // namespace rng_internal

Rng::Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

Rng Rng::Split() {
  // Children are seeded by hashing (root seed, counter) so that sibling
  // streams are decorrelated regardless of how much the parent has advanced.
  std::uint64_t child_seed = Mix64(seed_ ^ Mix64(++split_counter_));
  return Rng(child_seed);
}

Rng Rng::Fork(std::uint64_t stream) const {
  // Same hash construction as Split, but stateless and salted into a
  // different stream family so Fork(i) never aliases the i-th Split child.
  constexpr std::uint64_t kForkSalt = 0xA5B35705987C29E1ULL;
  return Rng(Mix64(seed_ ^ kForkSalt ^ Mix64(stream ^ kForkSalt)));
}

std::uint64_t Rng::UniformInt(std::uint64_t n) {
  LDPR_CHECK(n > 0, "UniformInt requires n > 0");
  std::uniform_int_distribution<std::uint64_t> dist(0, n - 1);
  return dist(engine_);
}

std::int64_t Rng::UniformRange(std::int64_t lo, std::int64_t hi) {
  LDPR_CHECK(lo <= hi, "UniformRange requires lo <= hi");
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Laplace(double b) {
  double u = UniformReal() - 0.5;
  return -b * std::copysign(std::log(1.0 - 2.0 * std::abs(u)), u);
}

double Rng::Exponential(double lambda) {
  std::exponential_distribution<double> dist(lambda);
  return dist(engine_);
}

double Rng::Gaussian() {
  std::normal_distribution<double> dist(0.0, 1.0);
  return dist(engine_);
}

double Rng::Gamma(double shape) {
  std::gamma_distribution<double> dist(shape, 1.0);
  return dist(engine_);
}

int Rng::Binomial(int n, double p) {
  std::binomial_distribution<int> dist(n, p);
  return dist(engine_);
}

long long Rng::Binomial64(long long n, double p) {
  LDPR_CHECK(n >= 0, "Binomial64 requires n >= 0");
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  std::binomial_distribution<long long> dist(n, p);
  return dist(engine_);
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int m) {
  std::vector<int> idx;
  SampleWithoutReplacementInto(n, m, &idx);
  idx.resize(m);
  return idx;
}

void Rng::SampleWithoutReplacementInto(int n, int m, std::vector<int>* idx) {
  LDPR_REQUIRE(m >= 0 && m <= n,
               "SampleWithoutReplacement requires 0 <= m <= n, got m=" << m
                                                                       << " n=" << n);
  // Partial Fisher–Yates over an index array. For m much smaller than n a
  // rejection-sampling scheme would use less memory, but callers in ldpr use
  // n = attribute-domain sizes (small), so simplicity wins. Both overloads
  // share this one draw sequence: the fused SS aggregator's bit-identical
  // stream guarantee depends on it.
  idx->resize(n);
  for (int i = 0; i < n; ++i) (*idx)[i] = i;
  for (int i = 0; i < m; ++i) {
    int j = i + static_cast<int>(UniformInt(n - i));
    std::swap((*idx)[i], (*idx)[j]);
  }
}

}  // namespace ldpr
