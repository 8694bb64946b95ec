#include "core/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/check.h"
#include "core/hash.h"
#include "core/rng_engine.h"

namespace ldpr {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(1000), b.UniformInt(1000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(1000000) == b.UniformInt(1000000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, SplitStreamsAreIndependentAndReproducible) {
  Rng parent1(7), parent2(7);
  Rng c1 = parent1.Split();
  Rng c2 = parent2.Split();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(c1.UniformInt(1 << 30), c2.UniformInt(1 << 30));
  }
  // Two successive splits from the same parent differ.
  Rng parent(9);
  Rng d1 = parent.Split();
  Rng d2 = parent.Split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (d1.UniformInt(1 << 30) == d2.UniformInt(1 << 30)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformIntRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = rng.UniformInt(7);
    EXPECT_LT(v, 7u);
  }
}

TEST(RngTest, UniformIntRejectsZero) {
  Rng rng(3);
  EXPECT_THROW(rng.UniformInt(0), InternalError);
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformRealInUnitInterval) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformReal();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliMeanMatchesP) {
  Rng rng(29);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.015);
}

TEST(RngTest, LaplaceMeanAndScale) {
  Rng rng(31);
  const int trials = 50000;
  double sum = 0.0, abs_sum = 0.0;
  for (int i = 0; i < trials; ++i) {
    double v = rng.Laplace(2.0);
    sum += v;
    abs_sum += std::abs(v);
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.1);
  // E|X| = b for Laplace(0, b).
  EXPECT_NEAR(abs_sum / trials, 2.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(37);
  const int trials = 50000;
  double sum = 0.0;
  for (int i = 0; i < trials; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / trials, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(41);
  const int trials = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < trials; ++i) {
    double v = rng.Gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.03);
  EXPECT_NEAR(sq / trials, 1.0, 0.05);
}

TEST(RngTest, GammaMean) {
  Rng rng(43);
  const int trials = 50000;
  double sum = 0.0;
  for (int i = 0; i < trials; ++i) sum += rng.Gamma(3.0);
  EXPECT_NEAR(sum / trials, 3.0, 0.1);
}

TEST(RngTest, BinomialMean) {
  Rng rng(47);
  const int trials = 20000;
  long long sum = 0;
  for (int i = 0; i < trials; ++i) sum += rng.Binomial(50, 0.2);
  EXPECT_NEAR(static_cast<double>(sum) / trials, 10.0, 0.2);
}

TEST(RngTest, SampleWithoutReplacementProperties) {
  Rng rng(53);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> s = rng.SampleWithoutReplacement(20, 8);
    ASSERT_EQ(s.size(), 8u);
    std::set<int> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 8u);
    for (int v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 20);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFullAndEmpty) {
  Rng rng(59);
  std::vector<int> all = rng.SampleWithoutReplacement(5, 5);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
  EXPECT_THROW(rng.SampleWithoutReplacement(3, 4), InvalidArgumentError);
}

TEST(RngTest, SampleWithoutReplacementIsUniform) {
  Rng rng(61);
  std::vector<int> counts(6, 0);
  const int trials = 30000;
  for (int t = 0; t < trials; ++t) {
    for (int v : rng.SampleWithoutReplacement(6, 2)) ++counts[v];
  }
  // Each element appears with probability 2/6 per trial.
  for (int v = 0; v < 6; ++v) {
    EXPECT_NEAR(static_cast<double>(counts[v]) / trials, 1.0 / 3.0, 0.02);
  }
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(67);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleIsUniformOnFirstPosition) {
  Rng rng(71);
  std::vector<int> counts(5, 0);
  const int trials = 25000;
  for (int t = 0; t < trials; ++t) {
    std::vector<int> v{0, 1, 2, 3, 4};
    rng.Shuffle(&v);
    ++counts[v[0]];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.2, 0.015);
  }
}

// The legacy streams were drawn from std::mt19937_64 through <random>'s
// distributions. This reference redraws every Rng method that way, one
// distribution object per call, as the draws were made.
class StdReference {
 public:
  explicit StdReference(std::uint64_t seed) : engine_(seed) {}

  std::uint64_t Word() { return engine_(); }
  double UniformReal() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformReal() < p;
  }
  std::uint64_t UniformInt(std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine_);
  }
  std::int64_t UniformRange(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  double Gaussian() {
    return std::normal_distribution<double>(0.0, 1.0)(engine_);
  }
  double Gamma(double shape) {
    return std::gamma_distribution<double>(shape, 1.0)(engine_);
  }
  long long Binomial64(long long n, double p) {
    if (n == 0 || p <= 0.0) return 0;
    if (p >= 1.0) return n;
    return std::binomial_distribution<long long>(n, p)(engine_);
  }
  double Exponential(double lambda) {
    return std::exponential_distribution<double>(lambda)(engine_);
  }
  double Laplace(double b) {
    double u = UniformReal() - 0.5;
    return -b * std::copysign(std::log(1.0 - 2.0 * std::abs(u)), u);
  }

 private:
  std::mt19937_64 engine_;
};

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Runs the same mixed draw sequence on `rng` and on the reference and
// requires every value to match bit for bit. ~60 engine words per round, so
// 400 rounds cross the 312-word refill boundary dozens of times.
void ExpectSameStream(Rng rng, std::uint64_t reference_seed,
                      const std::string& label) {
  SCOPED_TRACE(label);
  StdReference ref(reference_seed);
  const double oue_p = 0.5;
  const double oue_q = 1.0 / (std::exp(1.0) + 1.0);
  const double probabilities[] = {oue_p, oue_q, 0.5, 1e-300,
                                  std::numeric_limits<double>::quiet_NaN()};
  const std::uint64_t sizes[] = {1,
                                 2,
                                 100,
                                 1000000007ULL,
                                 (std::uint64_t{1} << 63) + 1,
                                 ~std::uint64_t{0}};
  for (int round = 0; round < 400; ++round) {
    ASSERT_EQ(rng(), ref.Word()) << "round " << round;
    ASSERT_EQ(Bits(rng.UniformReal()), Bits(ref.UniformReal()))
        << "round " << round;
    for (double p : probabilities) {
      for (int i = 0; i < 6; ++i) {
        ASSERT_EQ(rng.Bernoulli(p), ref.Bernoulli(p))
            << "round " << round << " p " << p;
      }
    }
    for (std::uint64_t n : sizes) {
      ASSERT_EQ(rng.UniformInt(n), ref.UniformInt(n))
          << "round " << round << " n " << n;
    }
    ASSERT_EQ(rng.UniformRange(-3, 3), ref.UniformRange(-3, 3));
    ASSERT_EQ(rng.UniformRange(std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::int64_t>::max()),
              ref.UniformRange(std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::int64_t>::max()));
    ASSERT_EQ(Bits(rng.Gaussian()), Bits(ref.Gaussian())) << "round " << round;
    ASSERT_EQ(Bits(rng.Gamma(0.5)), Bits(ref.Gamma(0.5))) << "round " << round;
    ASSERT_EQ(Bits(rng.Gamma(3.0)), Bits(ref.Gamma(3.0))) << "round " << round;
    ASSERT_EQ(rng.Binomial64(10, 0.3), ref.Binomial64(10, 0.3));
    ASSERT_EQ(rng.Binomial64(1000000, 0.2), ref.Binomial64(1000000, 0.2));
    ASSERT_EQ(rng.Binomial64(1000, 0.0), ref.Binomial64(1000, 0.0));
    ASSERT_EQ(Bits(rng.Exponential(2.0)), Bits(ref.Exponential(2.0)))
        << "round " << round;
    ASSERT_EQ(Bits(rng.Laplace(1.5)), Bits(ref.Laplace(1.5)))
        << "round " << round;
  }
}

TEST(RngTest, StreamMatchesStdEngine) {
  // Child seeds as Rng::Split / Rng::Fork derive them.
  constexpr std::uint64_t kForkSalt = 0xA5B35705987C29E1ULL;
  const std::uint64_t seeds[] = {0, 1, 0xC0FFEE123456789ULL,
                                 ~std::uint64_t{0}};
  for (std::uint64_t seed : seeds) {
    const std::string tag = "seed " + std::to_string(seed);
    Rng root(seed);
    ExpectSameStream(root, seed, tag);
    for (std::uint64_t k = 1; k <= 2; ++k) {
      ExpectSameStream(root.Split(), Mix64(seed ^ Mix64(k)),
                       tag + " Split #" + std::to_string(k));
    }
    for (std::uint64_t i : {std::uint64_t{0}, std::uint64_t{7}}) {
      ExpectSameStream(root.Fork(i),
                       Mix64(seed ^ kForkSalt ^ Mix64(i ^ kForkSalt)),
                       tag + " Fork(" + std::to_string(i) + ")");
    }
  }
  ExpectSameStream(Rng(), 0xC0FFEE123456789ULL, "default seed");
}

// A bit generator that returns one fixed word, so generate_canonical sees
// exactly the word under test.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return word; }
  std::uint64_t word;
};

TEST(RngTest, UnitConversionMatchesGenerateCanonical) {
  constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;
  constexpr std::uint64_t kAll = ~std::uint64_t{0};
  long long checked = 0, mismatches = 0;
  auto check = [&](std::uint64_t word) {
    FixedWord engine{word};
    const double want = std::generate_canonical<double, 53>(engine);
    const double got = rng_internal::UnitInterval(word);
    ++checked;
    if (Bits(got) != Bits(want) && ++mismatches <= 5) {
      ADD_FAILURE() << "word " << word << ": got " << got << ", want "
                    << want;
    }
  };
  for (std::uint64_t w : {std::uint64_t{0}, std::uint64_t{1}, kTwo53 - 1,
                          kTwo53, kTwo53 + 1}) {
    check(w);
  }
  // The top 4096 words: those that round up to 2^64 must clamp below 1.
  for (std::uint64_t back = 0; back < 4096; ++back) check(kAll - back);
  // Halfway cases: above 2^63 a double's spacing is 2^11, so odd multiples
  // of 2^10 sit exactly between two doubles and round to the even one.
  for (std::uint64_t j = 0; j < 4096; ++j) {
    check(kTwo63 + (2 * j + 1) * (std::uint64_t{1} << 10));
    check(kAll - (2 * j + 1) * (std::uint64_t{1} << 10) + 1);
  }
  std::mt19937_64 words(20261020);
  for (int i = 0; i < 1000000; ++i) check(words());
  EXPECT_EQ(mismatches, 0) << "of " << checked << " words";
}

}  // namespace
}  // namespace ldpr
