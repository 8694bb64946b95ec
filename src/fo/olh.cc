#include "fo/olh.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "core/check.h"
#include "core/hash.h"
#include "fo/bitslice.h"
#include "fo/wire.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define LDPR_OLH_SIMD 1
#include <immintrin.h>
#endif

namespace ldpr::fo {

Olh::Olh(int k, double epsilon)
    : Olh(k, epsilon,
          std::max(2, static_cast<int>(std::lround(std::exp(epsilon))) + 1)) {
}

Olh::Olh(int k, double epsilon, int g) : FrequencyOracle(k, epsilon) {
  LDPR_REQUIRE(g >= 2, "local hashing needs g >= 2, got " << g);
  const double e = std::exp(epsilon);
  g_ = g;
  p_prime_ = e / (e + g_ - 1);
  // Overall support probabilities (Wang et al. 2017):
  //   p = p',   q = (1/g) p' + (1 - 1/g) q' = 1/g.
  SetProbabilities(p_prime_, 1.0 / g_);
}

Report Olh::Randomize(int value, Rng& rng) const {
  LDPR_REQUIRE(value >= 0 && value < k(), "OLH value out of range");
  Report r;
  r.hash_seed = rng();
  UniversalHash h(r.hash_seed, g_);
  const int hashed = h(value);
  // GRR inside the reduced domain [g].
  if (rng.Bernoulli(p_prime_)) {
    r.value = hashed;
  } else {
    int other = static_cast<int>(rng.UniformInt(g_ - 1));
    r.value = other >= hashed ? other + 1 : other;
  }
  return r;
}

void Olh::AccumulateSupport(const Report& report,
                            std::vector<long long>* counts) const {
  LDPR_REQUIRE(report.value >= 0 && report.value < g_,
               "OLH report value out of range");
  UniversalHash h(report.hash_seed, g_);
  for (int v = 0; v < k(); ++v) {
    if (h(v) == report.value) ++(*counts)[v];
  }
}

namespace {

// ---------------------------------------------------------------------------
// Batched preimage-count kernels: for one candidate value's hash mix, count
// the staged reports r with XxHash64Len8Finish(preseed[r], mix) % g ==
// reported[r]. The modulo is the exact multiplicative divisibility test of
// fo/bitslice.h: h % g == val  <=>  h >= val and g | (h - val). Three
// implementations — portable scalar, AVX2, AVX-512DQ — selected once at
// runtime; all three are pinned bit-identical to the scalar UniversalHash
// walk by fo_bitslice_exact_test.
// ---------------------------------------------------------------------------

long long CountMatchesScalar(const std::uint64_t* preseed,
                             const std::uint64_t* reported, int count,
                             std::uint64_t mix,
                             const bitslice::DivisibilityCheck& div) {
  long long hits = 0;
  for (int r = 0; r < count; ++r) {
    const std::uint64_t h = XxHash64Len8Finish(preseed[r], mix);
    const std::uint64_t val = reported[r];
    hits += static_cast<long long>(h >= val && div.IsDivisible(h - val));
  }
  return hits;
}

void SweepValuesScalar(const std::uint64_t* preseed,
                       const std::uint64_t* reported, int count,
                       const std::uint64_t* mixes, int k,
                       const bitslice::DivisibilityCheck& div,
                       long long* counts) {
  for (int v = 0; v < k; ++v) {
    counts[v] += CountMatchesScalar(preseed, reported, count, mixes[v], div);
  }
}

#if LDPR_OLH_SIMD

// GCC 12's AVX-512 intrinsic headers trip -Wmaybe-uninitialized false
// positives when expanded at -O3 (mask-load/undefined-vector plumbing);
// the kernels below are pure register code with no memory writes.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

using hash_detail::kXxPrime1;
using hash_detail::kXxPrime2;
using hash_detail::kXxPrime3;
using hash_detail::kXxPrime4;

// 64-bit lane-wise multiply by a constant on AVX2 (no vpmullq there):
// schoolbook 32x32 cross products. `b` holds the constant, `b_hi` its high
// halves pre-shifted.
__attribute__((target("avx2"), always_inline)) inline __m256i Mul64Const(
    __m256i a, __m256i b, __m256i b_hi) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                       _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// Whether d is a power of two, in which case h % d == val is just a mask
// compare — the SIMD sweeps drop the multiplicative test's multiply+rotate
// (and g = round(e^eps) + 1 lands on a power of two for common budgets,
// e.g. g = 4 at eps = 1). Both tests compute exactly h % d == val, so the
// choice cannot change any count.
inline bool IsPow2(std::uint64_t d) { return (d & (d - 1)) == 0; }

__attribute__((target("avx2"))) void SweepValuesAvx2(
    const std::uint64_t* preseed, const std::uint64_t* reported, int count,
    const std::uint64_t* mixes, int k, std::uint64_t g,
    const bitslice::DivisibilityCheck& div, long long* counts) {
#define LDPR_CONST64(name, value)                                   \
  const __m256i name = _mm256_set1_epi64x(                          \
      static_cast<long long>(value));                               \
  const __m256i name##_hi =                                         \
      _mm256_set1_epi64x(static_cast<long long>((value) >> 32))
  LDPR_CONST64(p1, kXxPrime1);
  LDPR_CONST64(p2, kXxPrime2);
  LDPR_CONST64(p3, kXxPrime3);
  LDPR_CONST64(inv, div.inverse);
#undef LDPR_CONST64
  const __m256i p4 = _mm256_set1_epi64x(static_cast<long long>(kXxPrime4));
  const __m256i sign =
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  const __m256i limit_biased =
      _mm256_set1_epi64x(static_cast<long long>(div.limit ^
                                                0x8000000000000000ULL));
  const __m128i rsh = _mm_cvtsi32_si128(div.shift);
  const __m128i lsh = _mm_cvtsi32_si128(64 - div.shift);  // psllq(64) == 0
  const __m256i gmask = _mm256_set1_epi64x(static_cast<long long>(g - 1));
  const __m256i minus_one = _mm256_set1_epi64x(-1);
  const bool pow2 = IsPow2(g);
  for (int v = 0; v < k; ++v) {
    const std::uint64_t mix = mixes[v];
    const __m256i vmix = _mm256_set1_epi64x(static_cast<long long>(mix));
    __m256i acc = _mm256_setzero_si256();
    int r = 0;
    for (; r + 4 <= count; r += 4) {
      __m256i h = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(preseed + r));
      h = _mm256_xor_si256(h, vmix);
      h = _mm256_or_si256(_mm256_slli_epi64(h, 27),
                          _mm256_srli_epi64(h, 37));
      h = _mm256_add_epi64(Mul64Const(h, p1, p1_hi), p4);
      h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
      h = Mul64Const(h, p2, p2_hi);
      h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 29));
      h = Mul64Const(h, p3, p3_hi);
      h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 32));
      const __m256i val = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(reported + r));
      __m256i bad;
      if (pow2) {
        // h % g == val  <=>  (h & (g-1)) == val
        bad = _mm256_andnot_si256(
            _mm256_cmpeq_epi64(_mm256_and_si256(h, gmask), val), minus_one);
      } else {
        __m256i q = Mul64Const(_mm256_sub_epi64(h, val), inv, inv_hi);
        q = _mm256_or_si256(_mm256_srl_epi64(q, rsh),
                            _mm256_sll_epi64(q, lsh));
        // Unsigned comparisons via sign-bias: reject when rotated quotient
        // exceeds the divisibility limit or h < val (wrapped difference).
        bad = _mm256_or_si256(
            _mm256_cmpgt_epi64(_mm256_xor_si256(q, sign), limit_biased),
            _mm256_cmpgt_epi64(_mm256_xor_si256(val, sign),
                               _mm256_xor_si256(h, sign)));
      }
      acc = _mm256_sub_epi64(acc, _mm256_andnot_si256(bad, minus_one));
    }
    alignas(32) long long lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    counts[v] += lanes[0] + lanes[1] + lanes[2] + lanes[3] +
                 CountMatchesScalar(preseed + r, reported + r, count - r, mix,
                                    div);
  }
}

__attribute__((target("avx512f,avx512dq"))) void SweepValuesAvx512(
    const std::uint64_t* preseed, const std::uint64_t* reported, int count,
    const std::uint64_t* mixes, int k, std::uint64_t g,
    const bitslice::DivisibilityCheck& div, long long* counts) {
  const __m512i p1 = _mm512_set1_epi64(static_cast<long long>(kXxPrime1));
  const __m512i p2 = _mm512_set1_epi64(static_cast<long long>(kXxPrime2));
  const __m512i p3 = _mm512_set1_epi64(static_cast<long long>(kXxPrime3));
  const __m512i p4 = _mm512_set1_epi64(static_cast<long long>(kXxPrime4));
  const __m512i inv = _mm512_set1_epi64(static_cast<long long>(div.inverse));
  const __m512i limit = _mm512_set1_epi64(static_cast<long long>(div.limit));
  const __m512i shift = _mm512_set1_epi64(div.shift);
  const __m512i gmask = _mm512_set1_epi64(static_cast<long long>(g - 1));
  const __m512i one = _mm512_set1_epi64(1);
  const bool pow2 = IsPow2(g);
  for (int v = 0; v < k; ++v) {
    const std::uint64_t mix = mixes[v];
    const __m512i vmix = _mm512_set1_epi64(static_cast<long long>(mix));
    // Two independent accumulator chains: one iteration's ~30-cycle
    // multiply chain would otherwise cap throughput well below the port
    // limit.
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    int r = 0;
    for (; r + 16 <= count; r += 16) {
      __m512i h0 = _mm512_loadu_si512(preseed + r);
      __m512i h1 = _mm512_loadu_si512(preseed + r + 8);
      h0 = _mm512_xor_si512(h0, vmix);
      h1 = _mm512_xor_si512(h1, vmix);
      h0 = _mm512_rol_epi64(h0, 27);
      h1 = _mm512_rol_epi64(h1, 27);
      h0 = _mm512_add_epi64(_mm512_mullo_epi64(h0, p1), p4);
      h1 = _mm512_add_epi64(_mm512_mullo_epi64(h1, p1), p4);
      h0 = _mm512_xor_si512(h0, _mm512_srli_epi64(h0, 33));
      h1 = _mm512_xor_si512(h1, _mm512_srli_epi64(h1, 33));
      h0 = _mm512_mullo_epi64(h0, p2);
      h1 = _mm512_mullo_epi64(h1, p2);
      h0 = _mm512_xor_si512(h0, _mm512_srli_epi64(h0, 29));
      h1 = _mm512_xor_si512(h1, _mm512_srli_epi64(h1, 29));
      h0 = _mm512_mullo_epi64(h0, p3);
      h1 = _mm512_mullo_epi64(h1, p3);
      h0 = _mm512_xor_si512(h0, _mm512_srli_epi64(h0, 32));
      h1 = _mm512_xor_si512(h1, _mm512_srli_epi64(h1, 32));
      const __m512i val0 = _mm512_loadu_si512(reported + r);
      const __m512i val1 = _mm512_loadu_si512(reported + r + 8);
      __mmask8 ok0, ok1;
      if (pow2) {
        ok0 = _mm512_cmpeq_epu64_mask(_mm512_and_si512(h0, gmask), val0);
        ok1 = _mm512_cmpeq_epu64_mask(_mm512_and_si512(h1, gmask), val1);
      } else {
        __m512i q0 = _mm512_mullo_epi64(_mm512_sub_epi64(h0, val0), inv);
        __m512i q1 = _mm512_mullo_epi64(_mm512_sub_epi64(h1, val1), inv);
        q0 = _mm512_rorv_epi64(q0, shift);
        q1 = _mm512_rorv_epi64(q1, shift);
        ok0 = _mm512_cmple_epu64_mask(q0, limit) &
              _mm512_cmpge_epu64_mask(h0, val0);
        ok1 = _mm512_cmple_epu64_mask(q1, limit) &
              _mm512_cmpge_epu64_mask(h1, val1);
      }
      acc0 = _mm512_mask_add_epi64(acc0, ok0, acc0, one);
      acc1 = _mm512_mask_add_epi64(acc1, ok1, acc1, one);
    }
    for (; r + 8 <= count; r += 8) {
      __m512i h = _mm512_loadu_si512(preseed + r);
      h = _mm512_xor_si512(h, vmix);
      h = _mm512_rol_epi64(h, 27);
      h = _mm512_add_epi64(_mm512_mullo_epi64(h, p1), p4);
      h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 33));
      h = _mm512_mullo_epi64(h, p2);
      h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 29));
      h = _mm512_mullo_epi64(h, p3);
      h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 32));
      const __m512i val = _mm512_loadu_si512(reported + r);
      __m512i q = _mm512_mullo_epi64(_mm512_sub_epi64(h, val), inv);
      q = _mm512_rorv_epi64(q, shift);
      const __mmask8 ok = _mm512_cmple_epu64_mask(q, limit) &
                          _mm512_cmpge_epu64_mask(h, val);
      acc0 = _mm512_mask_add_epi64(acc0, ok, acc0, one);
    }
    counts[v] += _mm512_reduce_add_epi64(acc0) +
                 _mm512_reduce_add_epi64(acc1) +
                 CountMatchesScalar(preseed + r, reported + r, count - r, mix,
                                    div);
  }
}

#pragma GCC diagnostic pop

#endif  // LDPR_OLH_SIMD

enum class OlhKernel { kScalar, kAvx2, kAvx512 };

/// Picks the widest kernel the CPU supports, once per aggregator. The
/// LDPR_OLH_KERNEL env var ("scalar" | "avx2" | "avx512") forces a
/// supported tier — the differential tests use it to pin every
/// implementation, not just the auto-dispatched one.
OlhKernel DetectOlhKernel() {
#if LDPR_OLH_SIMD
  const bool has_avx512 = __builtin_cpu_supports("avx512dq") != 0;
  const bool has_avx2 = __builtin_cpu_supports("avx2") != 0;
  if (const char* force = std::getenv("LDPR_OLH_KERNEL")) {
    const std::string_view f(force);
    if (f == "scalar") return OlhKernel::kScalar;
    if (f == "avx2" && has_avx2) return OlhKernel::kAvx2;
    if (f == "avx512" && has_avx512) return OlhKernel::kAvx512;
  }
  if (has_avx512) return OlhKernel::kAvx512;
  if (has_avx2) return OlhKernel::kAvx2;
#endif
  return OlhKernel::kScalar;
}

void SweepValues(OlhKernel kernel, const std::uint64_t* preseed,
                 const std::uint64_t* reported, int count,
                 const std::uint64_t* mixes, int k, std::uint64_t g,
                 const bitslice::DivisibilityCheck& div, long long* counts) {
  switch (kernel) {
#if LDPR_OLH_SIMD
    case OlhKernel::kAvx512:
      SweepValuesAvx512(preseed, reported, count, mixes, k, g, div, counts);
      return;
    case OlhKernel::kAvx2:
      SweepValuesAvx2(preseed, reported, count, mixes, k, g, div, counts);
      return;
#endif
    default:
      SweepValuesScalar(preseed, reported, count, mixes, k, div, counts);
      return;
  }
}

class OlhAggregator : public Aggregator {
 public:
  explicit OlhAggregator(const Olh& oracle) : Aggregator(oracle) {}

  void Accumulate(const Report& report) override {
    // Stage the (seed, hashed value) pair as its SerializeReport image —
    // seed big-endian, value MSB-first with zero padding — so the k-hash
    // preimage walk runs through the batched SweepValues kernel at flush
    // instead of one UniversalHash evaluation per (report, value) here.
    const Olh& olh = static_cast<const Olh&>(oracle_);
    const int g = olh.g();
    LDPR_REQUIRE(report.value >= 0 && report.value < g,
                 "OLH hashed value out of range");
    const int width = CeilLog2(g);
    const std::size_t frame_bytes =
        static_cast<std::size_t>((64 + width + 7) / 8);
    std::uint8_t* row = StageRowSlot(bitslice::RowStride(frame_bytes));
    const std::uint64_t seed_be = __builtin_bswap64(report.hash_seed);
    std::memcpy(row, &seed_be, sizeof(seed_be));
    const int vbytes = (width + 7) / 8;
    const std::uint64_t v = static_cast<std::uint64_t>(report.value)
                            << (vbytes * 8 - width);
    for (int b = 0; b < vbytes; ++b) {
      row[8 + b] = static_cast<std::uint8_t>(v >> (8 * (vbytes - 1 - b)));
    }
    CommitStagedRow();
  }

  void AccumulateValue(int value, Rng& rng) override {
    const Olh& olh = static_cast<const Olh&>(oracle_);
    const int k = olh.k();
    const int g = olh.g();
    LDPR_REQUIRE(value >= 0 && value < k, "OLH value out of range");
    // Same draws as Olh::Randomize, with the server-side preimage walk
    // fused in.
    const std::uint64_t seed = rng();
    UniversalHash h(seed, g);
    const int hashed = h(value);
    int reported;
    if (rng.Bernoulli(olh.p_prime())) {
      reported = hashed;
    } else {
      int other = static_cast<int>(rng.UniformInt(g - 1));
      reported = other >= hashed ? other + 1 : other;
    }
    for (int v = 0; v < k; ++v) {
      if (h(v) == reported) ++counts_[v];
    }
    ++n_;
  }

  void AccumulateWireBlock(const std::uint8_t* frames, std::size_t stride,
                           int count) override {
    // Batched preimage walk. Per block: decode every frame's 64-bit seed
    // and hashed value once, then sweep candidate values in the outer loop
    // so the input-only half of the hash (XxHash64Len8Mix, one multiply and
    // rotate per candidate) is computed once per value instead of once per
    // (report, value); the value sweep runs inside the dispatched
    // SweepValues kernel with all constants hoisted out of the loops.
    // Identical support counts to the scalar UniversalHash walk
    // (the decomposition is pinned by core_hash_test, the kernels by
    // fo_bitslice_exact_test).
    const Olh& olh = static_cast<const Olh&>(oracle_);
    const int k = olh.k();
    if (value_mix_.empty()) {
      value_mix_.resize(k);
      for (int v = 0; v < k; ++v) {
        value_mix_[v] = XxHash64Len8Mix(static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(v)));
      }
      divisible_ = bitslice::DivisibilityCheck::For(
          static_cast<std::uint64_t>(olh.g()));
      value_width_ = CeilLog2(olh.g());
    }
    preseed_.resize(count);
    reported_.resize(count);
    const std::uint8_t* row = frames;
    for (int r = 0; r < count; ++r, row += stride) {
      preseed_[r] = XxHash64Len8Preseed(bitslice::Load64Be(row));
      reported_[r] = bitslice::ExtractBits(row, 64, value_width_);
    }
    SweepValues(kernel_, preseed_.data(), reported_.data(), count,
                value_mix_.data(), k, static_cast<std::uint64_t>(olh.g()),
                divisible_, counts_.data());
    n_ += count;
  }

 private:
  const OlhKernel kernel_ = DetectOlhKernel();
  std::vector<std::uint64_t> value_mix_;  ///< per-value input-only hash half
  std::vector<std::uint64_t> preseed_;    ///< block scratch: biased seeds
  std::vector<std::uint64_t> reported_;   ///< block scratch: hashed values
  bitslice::DivisibilityCheck divisible_;
  int value_width_ = 0;
};

}  // namespace

std::unique_ptr<Aggregator> Olh::MakeAggregator() const {
  return std::make_unique<OlhAggregator>(*this);
}

int Olh::RandomizeAndPredict(int value, Rng& rng) const {
  LDPR_REQUIRE(value >= 0 && value < k(), "OLH value out of range");
  // Same draws as Randomize then AttackPredict, the preimage gathered in
  // per-thread scratch.
  UniversalHash h(rng(), g_);
  const int hashed = h(value);
  int reported = hashed;
  if (!rng.Bernoulli(p_prime_)) {
    const int other = static_cast<int>(rng.UniformInt(g_ - 1));
    reported = other >= hashed ? other + 1 : other;
  }
  thread_local std::vector<int> preimage;
  preimage.clear();
  for (int v = 0; v < k(); ++v) {
    if (h(v) == reported) preimage.push_back(v);
  }
  if (preimage.empty()) return static_cast<int>(rng.UniformInt(k()));
  return preimage[rng.UniformInt(preimage.size())];
}

int Olh::AttackPredict(const Report& report, Rng& rng) const {
  // The most likely true values are those hashing to the reported cell;
  // pick one uniformly. An empty preimage carries no information, so fall
  // back to a uniform guess over the whole domain.
  UniversalHash h(report.hash_seed, g_);
  std::vector<int> preimage;
  for (int v = 0; v < k(); ++v) {
    if (h(v) == report.value) preimage.push_back(v);
  }
  if (preimage.empty()) return static_cast<int>(rng.UniformInt(k()));
  return preimage[rng.UniformInt(preimage.size())];
}

}  // namespace ldpr::fo
