#include "attack/reident.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "attack/reident_kernel.h"
#include "core/check.h"
#include "core/parallel.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define LDPR_REIDENT_SIMD 1
#include <immintrin.h>
#endif

namespace ldpr::attack {

using reident_internal::ByteKernel;
using reident_internal::MatchCounts;

namespace {

// Records per counting block: a block's tallies fit 16 bits.
constexpr int kCountBlock = 65535;

// The most checks a byte distance can count without wrapping.
constexpr std::size_t kMaxByteChecks = 255;

// The matcher's kernel: `checks` are the target's (attribute, value) pairs
// with every value inside [0, k_attr); `columns[attr]` is the background
// column of `attr` as Value. Dist must hold checks.size() without wrapping.
//
// dist[r] += (column[r] != value) per check, then one pass counts
// dist < true_dist and dist == true_dist. No branch depends on the data,
// so both loops vectorize; with Value = Dist = uint8_t one SSE2 vector (the
// default flags) handles 16 records per instruction. This is the matcher's
// int-column kernel and its baseline byte tier; the wider byte tiers below
// fuse its passes.
template <typename Value, typename Dist>
MatchCounts CountCloserAndTies(
    const std::vector<std::pair<int, int>>& checks,
    const std::vector<const Value*>& columns, int user, int n,
    std::vector<Dist>& scratch) {
  // n arrives by value on purpose: the loops store through Dist*, which for
  // Dist = uint8_t may alias anything, so a trip count read through a
  // reference (say, a lambda capture) would have to be reloaded and the
  // loops would not vectorize.
  scratch.assign(static_cast<std::size_t>(n), Dist{0});
  Dist* dist = scratch.data();
  Dist true_dist = 0;
  for (const auto& [attr, v] : checks) {
    const Value* column = columns[static_cast<std::size_t>(attr)];
    const Value value = static_cast<Value>(v);
    true_dist = static_cast<Dist>(true_dist + (column[user] != value));
    for (int r = 0; r < n; ++r) {
      dist[r] = static_cast<Dist>(dist[r] + (column[r] != value));
    }
  }

  // Tallies in 16-bit blocks: the compare results widen one step (8 to 16
  // bits) instead of three, and only the block sums widen to long long.
  MatchCounts counts;
  for (int lo = 0, hi = 0; lo < n; lo = hi) {
    hi = lo + std::min(n - lo, kCountBlock);  // never past INT_MAX
    std::uint16_t closer = 0;
    std::uint16_t ties = 0;
    for (int r = lo; r < hi; ++r) {
      closer = static_cast<std::uint16_t>(closer + (dist[r] < true_dist));
      ties = static_cast<std::uint16_t>(ties + (dist[r] == true_dist));
    }
    counts.closer += closer;
    counts.ties += ties;
  }
  return counts;
}

#if LDPR_REIDENT_SIMD

// The wide tiers fuse the template's passes. Per block of 4 vectors of
// records they keep the block's distances (AVX-512) or match counts (AVX2)
// in registers across every check, then tally the block with mask
// popcounts: one column load per check and vector, no distance scratch and
// no store. Both compare bytes without wrapping, since a target has at most
// kMaxByteChecks checks.

// closer += #(dist < true_dist) and ties += #(dist == true_dist) over the
// lanes of `live`.
__attribute__((target("avx512bw,avx512vl,popcnt"), always_inline)) inline void
TallyAvx512(__m512i dist, __m512i true_dist, __mmask64 live,
            MatchCounts& counts) {
  counts.closer +=
      __builtin_popcountll(_mm512_mask_cmplt_epu8_mask(live, dist, true_dist));
  counts.ties +=
      __builtin_popcountll(_mm512_mask_cmpeq_epu8_mask(live, dist, true_dist));
}

__attribute__((target("avx512bw,avx512vl,popcnt"))) MatchCounts
CountBytesAvx512(const std::vector<std::pair<int, int>>& checks,
                 const std::vector<const std::uint8_t*>& columns, int user,
                 int n) {
  unsigned true_dist = 0;
  for (const auto& [attr, v] : checks) {
    true_dist += columns[static_cast<std::size_t>(attr)][user] !=
                 static_cast<std::uint8_t>(v);
  }
  const __m512i target = _mm512_set1_epi8(static_cast<char>(true_dist));
  const __m512i one = _mm512_set1_epi8(1);
  const __mmask64 all = ~__mmask64{0};
  MatchCounts counts;
  int r = 0;
  for (; n - r >= 4 * 64; r += 4 * 64) {
    __m512i d0 = _mm512_setzero_si512();
    __m512i d1 = d0;
    __m512i d2 = d0;
    __m512i d3 = d0;
    for (const auto& [attr, v] : checks) {
      const std::uint8_t* column = columns[static_cast<std::size_t>(attr)] + r;
      const __m512i value = _mm512_set1_epi8(static_cast<char>(v));
      d0 = _mm512_mask_add_epi8(
          d0, _mm512_cmpneq_epi8_mask(_mm512_loadu_si512(column), value), d0,
          one);
      d1 = _mm512_mask_add_epi8(
          d1, _mm512_cmpneq_epi8_mask(_mm512_loadu_si512(column + 64), value),
          d1, one);
      d2 = _mm512_mask_add_epi8(
          d2, _mm512_cmpneq_epi8_mask(_mm512_loadu_si512(column + 128), value),
          d2, one);
      d3 = _mm512_mask_add_epi8(
          d3, _mm512_cmpneq_epi8_mask(_mm512_loadu_si512(column + 192), value),
          d3, one);
    }
    TallyAvx512(d0, target, all, counts);
    TallyAvx512(d1, target, all, counts);
    TallyAvx512(d2, target, all, counts);
    TallyAvx512(d3, target, all, counts);
  }
  // The rest one vector at a time; the last one loads and counts only its
  // live lanes (masked loads never touch the bytes past n). Every loop
  // bound compares n - r, so r never steps past n, even near INT_MAX.
  for (; r < n; r += std::min(n - r, 64)) {
    const __mmask64 live =
        n - r >= 64 ? all : (__mmask64{1} << (n - r)) - 1;
    __m512i dist = _mm512_setzero_si512();
    for (const auto& [attr, v] : checks) {
      const __m512i column = _mm512_maskz_loadu_epi8(
          live, columns[static_cast<std::size_t>(attr)] + r);
      dist = _mm512_mask_add_epi8(
          dist,
          _mm512_cmpneq_epi8_mask(column,
                                  _mm512_set1_epi8(static_cast<char>(v))),
          dist, one);
    }
    TallyAvx512(dist, target, live, counts);
  }
  return counts;
}

// AVX2 has no unsigned byte compare and no mask registers, so this tier
// counts matches m instead of mismatches: dist < true_dist is
// m > true_matches, and dist == true_dist is m == true_matches. Both sides
// are biased by 0x80 so the signed compare orders them as unsigned bytes.
__attribute__((target("avx2,popcnt"), always_inline)) inline void TallyAvx2(
    __m256i matches, __m256i true_matches_biased, MatchCounts& counts) {
  const __m256i biased =
      _mm256_xor_si256(matches, _mm256_set1_epi8(static_cast<char>(0x80)));
  counts.closer += __builtin_popcount(static_cast<unsigned>(
      _mm256_movemask_epi8(_mm256_cmpgt_epi8(biased, true_matches_biased))));
  counts.ties += __builtin_popcount(static_cast<unsigned>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(biased, true_matches_biased))));
}

// One vector of 32 records: matches += (column == value) per check, as
// the compare's all-ones lanes subtracted.
__attribute__((target("avx2"), always_inline)) inline __m256i MatchAvx2(
    __m256i matches, const std::uint8_t* column, __m256i value) {
  return _mm256_sub_epi8(
      matches,
      _mm256_cmpeq_epi8(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(column)),
          value));
}

__attribute__((target("avx2,popcnt"))) MatchCounts CountBytesAvx2(
    const std::vector<std::pair<int, int>>& checks,
    const std::vector<const std::uint8_t*>& columns, int user, int n) {
  unsigned true_matches = 0;
  for (const auto& [attr, v] : checks) {
    true_matches += columns[static_cast<std::size_t>(attr)][user] ==
                    static_cast<std::uint8_t>(v);
  }
  const __m256i target =
      _mm256_set1_epi8(static_cast<char>(true_matches ^ 0x80));
  MatchCounts counts;
  int r = 0;
  for (; n - r >= 4 * 32; r += 4 * 32) {
    __m256i m0 = _mm256_setzero_si256();
    __m256i m1 = m0;
    __m256i m2 = m0;
    __m256i m3 = m0;
    for (const auto& [attr, v] : checks) {
      const std::uint8_t* column = columns[static_cast<std::size_t>(attr)] + r;
      const __m256i value = _mm256_set1_epi8(static_cast<char>(v));
      m0 = MatchAvx2(m0, column, value);
      m1 = MatchAvx2(m1, column + 32, value);
      m2 = MatchAvx2(m2, column + 64, value);
      m3 = MatchAvx2(m3, column + 96, value);
    }
    TallyAvx2(m0, target, counts);
    TallyAvx2(m1, target, counts);
    TallyAvx2(m2, target, counts);
    TallyAvx2(m3, target, counts);
  }
  for (; n - r >= 32; r += 32) {
    __m256i matches = _mm256_setzero_si256();
    for (const auto& [attr, v] : checks) {
      matches = MatchAvx2(matches, columns[static_cast<std::size_t>(attr)] + r,
                          _mm256_set1_epi8(static_cast<char>(v)));
    }
    TallyAvx2(matches, target, counts);
  }
  // Fewer than 32 records left: no byte-masked load on AVX2.
  for (; r < n; ++r) {
    unsigned matches = 0;
    for (const auto& [attr, v] : checks) {
      matches += columns[static_cast<std::size_t>(attr)][r] ==
                 static_cast<std::uint8_t>(v);
    }
    counts.closer += matches > true_matches;
    counts.ties += matches == true_matches;
  }
  return counts;
}

#endif  // LDPR_REIDENT_SIMD

}  // namespace

namespace reident_internal {

std::vector<ByteKernel> SupportedByteKernels() {
  std::vector<ByteKernel> kernels = {ByteKernel::kBaseline};
#if LDPR_REIDENT_SIMD
  const bool popcnt = __builtin_cpu_supports("popcnt") != 0;
  if (popcnt && __builtin_cpu_supports("avx2")) {
    kernels.push_back(ByteKernel::kAvx2);
  }
  if (popcnt && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    kernels.push_back(ByteKernel::kAvx512);
  }
#endif
  return kernels;
}

ByteKernel DetectByteKernel() { return SupportedByteKernels().back(); }

const char* ByteKernelName(ByteKernel kernel) {
  switch (kernel) {
    case ByteKernel::kBaseline:
      return "baseline";
    case ByteKernel::kAvx2:
      return "avx2";
    case ByteKernel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

MatchCounts CountCloserAndTiesBytes(
    ByteKernel kernel, const std::vector<std::pair<int, int>>& checks,
    const std::vector<const std::uint8_t*>& columns, int user, int n,
    std::vector<std::uint8_t>& scratch) {
  switch (kernel) {
#if LDPR_REIDENT_SIMD
    case ByteKernel::kAvx512:
      return CountBytesAvx512(checks, columns, user, n);
    case ByteKernel::kAvx2:
      return CountBytesAvx2(checks, columns, user, n);
#endif
    default:
      return CountCloserAndTies(checks, columns, user, n, scratch);
  }
}

}  // namespace reident_internal

std::vector<bool> MakeBackgroundAttributes(int d, ReidentModel model,
                                           Rng& rng) {
  LDPR_REQUIRE(d >= 2, "requires d >= 2");
  std::vector<bool> out(d, false);
  if (model == ReidentModel::kFullKnowledge) {
    std::fill(out.begin(), out.end(), true);
    return out;
  }
  const int min_attrs = std::max(1, (d + 1) / 2);
  const int m = static_cast<int>(rng.UniformRange(min_attrs, d));
  for (int a : rng.SampleWithoutReplacement(d, m)) out[a] = true;
  return out;
}

double BaselineRidAcc(int top_k, int n) {
  LDPR_REQUIRE(top_k >= 1 && n >= 1, "requires top_k >= 1 and n >= 1");
  return 100.0 * std::min(1.0, static_cast<double>(top_k) / n);
}

namespace {

// The matcher behind every entry point. `entries_of(user, visit)` calls
// visit(attribute, value) for each profile entry of `user`, in any order:
// a distance is a sum of per-check mismatches, so the order of the checks
// changes no count.
template <typename EntriesOf>
ReidentResult MatchTargets(ByteKernel kernel, const EntriesOf& entries_of,
                           const data::Dataset& background,
                           const std::vector<bool>& bk_attributes,
                           const ReidentConfig& config, Rng& rng) {
  const int n = background.n();
  const int d = background.d();
  const std::vector<int>& domain_sizes = background.domain_sizes();
  LDPR_REQUIRE(static_cast<int>(bk_attributes.size()) == background.d(),
               "bk_attributes must have one flag per attribute");
  LDPR_REQUIRE(!config.top_k.empty(), "config.top_k must be non-empty");
  for (int k : config.top_k) LDPR_REQUIRE(k >= 1, "top_k entries must be >= 1");
  LDPR_REQUIRE(config.bk_noise >= 0.0 && config.bk_noise <= 1.0,
               "bk_noise must lie in [0, 1], got " << config.bk_noise);

  // Noisy background knowledge: corrupt a bk_noise fraction of cells before
  // matching. The attacker still matches against this corrupted copy (they
  // do not know which cells are wrong).
  const data::Dataset* matching_background = &background;
  data::Dataset corrupted({2, 2});
  if (config.bk_noise > 0.0) {
    corrupted = data::Dataset(background.domain_sizes());
    corrupted.Reserve(n);
    std::vector<int> record(background.d());
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < background.d(); ++j) {
        record[j] = background.value(i, j);
        if (rng.Bernoulli(config.bk_noise)) {
          const int kj = background.domain_size(j);
          int other = static_cast<int>(rng.UniformInt(kj - 1));
          record[j] = other >= record[j] ? other + 1 : other;
        }
      }
      corrupted.AddRecord(record);
    }
    matching_background = &corrupted;
  }

  // Target subsample (unbiased estimator of the per-user mean RID-ACC).
  std::vector<int> targets;
  if (config.max_targets > 0 && config.max_targets < n) {
    targets = rng.SampleWithoutReplacement(n, config.max_targets);
  } else {
    targets.resize(n);
    for (int i = 0; i < n; ++i) targets[i] = i;
  }

  // The background-knowledge columns, once per call: as the dataset's int
  // columns, and packed to one byte per cell when every known attribute
  // has k_j <= 256 (the packed copy is what the kernel reads).
  std::vector<const int*> wide_columns(d, nullptr);
  bool packable = true;
  for (int j = 0; j < d; ++j) {
    if (!bk_attributes[j]) continue;
    wide_columns[j] = matching_background->Column(j).data();
    packable = packable && domain_sizes[j] <= 256;
  }
  std::vector<std::vector<std::uint8_t>> packed(packable ? d : 0);
  std::vector<const std::uint8_t*> narrow_columns(d, nullptr);
  for (int j = 0; packable && j < d; ++j) {
    if (!bk_attributes[j]) continue;
    packed[j].assign(wide_columns[j], wide_columns[j] + n);
    narrow_columns[j] = packed[j].data();
  }

  const std::size_t num_k = config.top_k.size();
  std::vector<double> hit_sums(num_k * targets.size(), 0.0);

  // One shard per worker, so each worker owns its distance scratch.
  ParallelForShards(
      static_cast<long long>(targets.size()), DefaultThreadCount(),
      [&](int, long long begin, long long end) {
        std::vector<std::pair<int, int>> checks;
        std::vector<std::uint8_t> narrow_dist;
        std::vector<int> wide_dist;
        for (long long ti = begin; ti < end; ++ti) {
          const auto t = static_cast<std::size_t>(ti);
          const int user = targets[t];
          // Matching attributes: profile entries the adversary can check in
          // D_BK. A value outside [0, k_j) mismatches every record, the
          // target's own included, so it shifts every distance by one and
          // changes no count: it is dropped.
          checks.clear();
          entries_of(user, [&](int attr, int value) {
            LDPR_REQUIRE(attr >= 0 && attr < d,
                         "profile attribute " << attr << " out of range");
            if (bk_attributes[attr] && value >= 0 &&
                value < domain_sizes[attr]) {
              checks.emplace_back(attr, value);
            }
          });

          if (checks.empty()) {
            // No usable evidence: the adversary can only guess uniformly.
            for (std::size_t ki = 0; ki < num_k; ++ki) {
              hit_sums[ki * targets.size() + t] =
                  std::min(1.0, static_cast<double>(config.top_k[ki]) / n);
            }
            continue;
          }

          const MatchCounts counts =
              packable && checks.size() <= kMaxByteChecks
                  ? reident_internal::CountCloserAndTiesBytes(
                        kernel, checks, narrow_columns, user, n, narrow_dist)
                  : CountCloserAndTies(checks, wide_columns, user, n,
                                       wide_dist);
          LDPR_CHECK(counts.ties >= 1,
                     "the target's own record must be among the ties");
          for (std::size_t ki = 0; ki < num_k; ++ki) {
            const double k = config.top_k[ki];
            const double prob = std::clamp(
                (k - static_cast<double>(counts.closer)) / counts.ties, 0.0,
                1.0);
            hit_sums[ki * targets.size() + t] = prob;
          }
        }
      });

  ReidentResult out;
  out.rid_acc_percent.resize(num_k);
  for (std::size_t ki = 0; ki < num_k; ++ki) {
    double sum = 0.0;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      sum += hit_sums[ki * targets.size() + t];
    }
    out.rid_acc_percent[ki] = 100.0 * sum / targets.size();
  }
  return out;
}

// The Profile-vector entry point's checks source.
auto ProfileEntries(const std::vector<Profile>& profiles,
                    const data::Dataset& background) {
  LDPR_REQUIRE(static_cast<int>(profiles.size()) == background.n(),
               "profiles must align 1:1 with background records");
  return [&profiles](int user, const auto& visit) {
    for (const auto& [attr, value] : profiles[user]) visit(attr, value);
  };
}

}  // namespace

ReidentResult ReidentAccuracy(const std::vector<Profile>& profiles,
                              const data::Dataset& background,
                              const std::vector<bool>& bk_attributes,
                              const ReidentConfig& config, Rng& rng) {
  return MatchTargets(reident_internal::DetectByteKernel(),
                      ProfileEntries(profiles, background), background,
                      bk_attributes, config, rng);
}

ReidentResult ReidentAccuracy(const ProfileLog& log, int surveys_seen,
                              const data::Dataset& background,
                              const std::vector<bool>& bk_attributes,
                              const ReidentConfig& config, Rng& rng) {
  LDPR_REQUIRE(log.n() == background.n(),
               "the log must align 1:1 with background records");
  LDPR_REQUIRE(surveys_seen >= 0 && surveys_seen <= log.num_surveys(),
               "surveys_seen " << surveys_seen << " outside [0, "
                               << log.num_surveys() << "]");
  const auto entries_of = [&log, surveys_seen](int user, const auto& visit) {
    const ProfileLog::Entry* entries = log.row(user);
    for (int s = 0; s < surveys_seen; ++s) {
      if (entries[s].attribute >= 0) {
        visit(entries[s].attribute, entries[s].value);
      }
    }
  };
  return MatchTargets(reident_internal::DetectByteKernel(), entries_of,
                      background, bk_attributes, config, rng);
}

ReidentResult reident_internal::ReidentAccuracyWithKernel(
    ByteKernel kernel, const std::vector<Profile>& profiles,
    const data::Dataset& background, const std::vector<bool>& bk_attributes,
    const ReidentConfig& config, Rng& rng) {
  const std::vector<ByteKernel> supported = SupportedByteKernels();
  LDPR_REQUIRE(
      std::find(supported.begin(), supported.end(), kernel) != supported.end(),
      "byte kernel " << ByteKernelName(kernel) << " is not supported here");
  return MatchTargets(kernel, ProfileEntries(profiles, background),
                      background, bk_attributes, config, rng);
}

}  // namespace ldpr::attack
