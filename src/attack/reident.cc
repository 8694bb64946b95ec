#include "attack/reident.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/check.h"
#include "core/parallel.h"

namespace ldpr::attack {

namespace {

// Records strictly closer to a profile than the target's own record, and
// records at the target's own distance (the target included).
struct MatchCounts {
  long long closer = 0;
  long long ties = 0;
};

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
// so both loops vectorize; with Value = Dist = uint8_t one SSE2 vector
// (the default flags) handles 16 records per instruction.
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

}  // namespace

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

ReidentResult ReidentAccuracy(const std::vector<Profile>& profiles,
                              const data::Dataset& background,
                              const std::vector<bool>& bk_attributes,
                              const ReidentConfig& config, Rng& rng) {
  const int n = background.n();
  const int d = background.d();
  const std::vector<int>& domain_sizes = background.domain_sizes();
  LDPR_REQUIRE(static_cast<int>(profiles.size()) == n,
               "profiles must align 1:1 with background records");
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
          for (const auto& [attr, value] : profiles[user]) {
            LDPR_REQUIRE(attr >= 0 && attr < d,
                         "profile attribute " << attr << " out of range");
            if (bk_attributes[attr] && value >= 0 &&
                value < domain_sizes[attr]) {
              checks.emplace_back(attr, value);
            }
          }

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
                  ? CountCloserAndTies(checks, narrow_columns, user, n,
                                       narrow_dist)
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

}  // namespace ldpr::attack
