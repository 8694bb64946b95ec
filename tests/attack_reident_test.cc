#include "attack/reident.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "attack/reident_kernel.h"
#include "core/check.h"
#include "data/synthetic.h"

namespace ldpr::attack {
namespace {

/// A tiny background of n records over 2 attributes where record i is
/// (i mod ka, i mod kb) — easy to reason about uniqueness.
data::Dataset GridBackground(int n, int ka, int kb) {
  data::Dataset ds({ka, kb});
  for (int i = 0; i < n; ++i) ds.AddRecord({i % ka, i % kb});
  return ds;
}

/// The reference matcher: a scalar loop over int columns that stops a
/// record's distance once it exceeds the target's own. The vectorized
/// kernel must reproduce it bit for bit, RNG draws included.
ReidentResult BruteForceReident(const std::vector<Profile>& profiles,
                                const data::Dataset& background,
                                const std::vector<bool>& bk_attributes,
                                const ReidentConfig& config, Rng& rng) {
  const int n = background.n();
  data::Dataset matching = background;
  if (config.bk_noise > 0.0) {
    matching = data::Dataset(background.domain_sizes());
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
      matching.AddRecord(record);
    }
  }
  std::vector<int> targets;
  if (config.max_targets > 0 && config.max_targets < n) {
    targets = rng.SampleWithoutReplacement(n, config.max_targets);
  } else {
    for (int i = 0; i < n; ++i) targets.push_back(i);
  }
  const std::size_t num_k = config.top_k.size();
  std::vector<double> hit_sums(num_k * targets.size(), 0.0);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const int user = targets[t];
    std::vector<std::pair<const int*, int>> checks;
    for (const auto& [attr, value] : profiles[user]) {
      if (bk_attributes[attr]) {
        checks.emplace_back(matching.Column(attr).data(), value);
      }
    }
    if (checks.empty()) {
      for (std::size_t ki = 0; ki < num_k; ++ki) {
        hit_sums[ki * targets.size() + t] =
            std::min(1.0, static_cast<double>(config.top_k[ki]) / n);
      }
      continue;
    }
    int true_dist = 0;
    for (const auto& [col, value] : checks) {
      if (col[user] != value) ++true_dist;
    }
    long long closer = 0;
    long long ties = 0;
    for (int r = 0; r < n; ++r) {
      int dist = 0;
      for (const auto& [col, value] : checks) {
        if (col[r] != value && ++dist > true_dist) break;
      }
      if (dist < true_dist) {
        ++closer;
      } else if (dist == true_dist) {
        ++ties;
      }
    }
    for (std::size_t ki = 0; ki < num_k; ++ki) {
      const double k = config.top_k[ki];
      hit_sums[ki * targets.size() + t] =
          std::clamp((k - static_cast<double>(closer)) / ties, 0.0, 1.0);
    }
  }
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

ReidentConfig AllTargets(std::vector<int> top_k = {1, 10}) {
  ReidentConfig config;
  config.top_k = std::move(top_k);
  config.max_targets = 0;
  return config;
}

TEST(ReidentTest, PerfectProfilesOnUniqueRecordsGiveFullAccuracy) {
  // 12 records, (i mod 4, i mod 3): unique combination per record (lcm = 12).
  data::Dataset ds = GridBackground(12, 4, 3);
  std::vector<Profile> profiles(12);
  for (int i = 0; i < 12; ++i) {
    profiles[i] = {{0, i % 4}, {1, i % 3}};
  }
  Rng rng(1);
  auto result = ReidentAccuracy(profiles, ds, {true, true},
                                AllTargets({1}), rng);
  EXPECT_DOUBLE_EQ(result.rid_acc_percent[0], 100.0);
}

TEST(ReidentTest, AnonymitySetSplitsProbability) {
  // 10 identical records: a perfect profile still ties with all 10.
  data::Dataset ds({2, 2});
  for (int i = 0; i < 10; ++i) ds.AddRecord({1, 0});
  std::vector<Profile> profiles(10, Profile{{0, 1}, {1, 0}});
  Rng rng(2);
  auto result =
      ReidentAccuracy(profiles, ds, {true, true}, AllTargets({1, 5, 10}),
                      rng);
  EXPECT_NEAR(result.rid_acc_percent[0], 10.0, 1e-9);   // top-1: 1/10
  EXPECT_NEAR(result.rid_acc_percent[1], 50.0, 1e-9);   // top-5: 5/10
  EXPECT_NEAR(result.rid_acc_percent[2], 100.0, 1e-9);  // top-10
}

TEST(ReidentTest, WrongProfileValuesKillAccuracy) {
  data::Dataset ds = GridBackground(12, 4, 3);
  std::vector<Profile> profiles(12);
  for (int i = 0; i < 12; ++i) {
    // Predictions are deterministically wrong on attribute 0.
    profiles[i] = {{0, (i + 1) % 4}, {1, i % 3}};
  }
  Rng rng(3);
  auto result = ReidentAccuracy(profiles, ds, {true, true}, AllTargets({1}),
                                rng);
  // The target's own record is at distance 1 while some other record matches
  // both attributes exactly, so top-1 misses.
  EXPECT_LT(result.rid_acc_percent[0], 10.0);
}

TEST(ReidentTest, EmptyProfileFallsBackToBaseline) {
  data::Dataset ds = GridBackground(20, 4, 5);
  std::vector<Profile> profiles(20);  // all empty
  Rng rng(4);
  auto result = ReidentAccuracy(profiles, ds, {true, true}, AllTargets({1}),
                                rng);
  EXPECT_NEAR(result.rid_acc_percent[0], BaselineRidAcc(1, 20), 1e-9);
}

TEST(ReidentTest, PartialKnowledgeIgnoresUnknownAttributes) {
  data::Dataset ds = GridBackground(12, 4, 3);
  std::vector<Profile> profiles(12);
  for (int i = 0; i < 12; ++i) {
    profiles[i] = {{0, i % 4}, {1, i % 3}};
  }
  Rng rng(5);
  // Background knows only attribute 0: each profile now ties with the 3
  // records sharing i mod 4.
  auto result = ReidentAccuracy(profiles, ds, {true, false}, AllTargets({1}),
                                rng);
  EXPECT_NEAR(result.rid_acc_percent[0], 100.0 / 3.0, 1e-9);
}

TEST(ReidentTest, TargetSubsampleApproximatesFullEvaluation) {
  data::Dataset ds = data::AdultLike(6, 0.05);
  const int n = ds.n();
  Rng prof_rng(6);
  std::vector<Profile> profiles(n);
  for (int i = 0; i < n; ++i) {
    // True values on three attributes, 30% chance of a wrong value each.
    for (int a : {0, 2, 8}) {
      int v = ds.value(i, a);
      if (prof_rng.Bernoulli(0.3)) {
        v = static_cast<int>(prof_rng.UniformInt(ds.domain_size(a)));
      }
      profiles[i].emplace_back(a, v);
    }
  }
  std::vector<bool> bk(ds.d(), true);
  Rng rng_full(7), rng_sub(8);
  auto full = ReidentAccuracy(profiles, ds, bk, AllTargets({10}), rng_full);
  ReidentConfig sub_config;
  sub_config.top_k = {10};
  sub_config.max_targets = 1500;
  auto sub = ReidentAccuracy(profiles, ds, bk, sub_config, rng_sub);
  EXPECT_NEAR(sub.rid_acc_percent[0], full.rid_acc_percent[0], 5.0);
}

TEST(ReidentTest, MoreProfiledAttributesHelpTheAttacker) {
  data::Dataset ds = data::AdultLike(9, 0.05);
  const int n = ds.n();
  std::vector<Profile> small(n), large(n);
  for (int i = 0; i < n; ++i) {
    small[i] = {{0, ds.value(i, 0)}};
    for (int a = 0; a < 5; ++a) large[i].emplace_back(a, ds.value(i, a));
  }
  std::vector<bool> bk(ds.d(), true);
  Rng rng(9);
  ReidentConfig config;
  config.top_k = {1};
  config.max_targets = 1000;
  auto acc_small = ReidentAccuracy(small, ds, bk, config, rng);
  auto acc_large = ReidentAccuracy(large, ds, bk, config, rng);
  EXPECT_GT(acc_large.rid_acc_percent[0], acc_small.rid_acc_percent[0]);
}

TEST(ReidentTest, MakeBackgroundAttributes) {
  Rng rng(10);
  auto fk = MakeBackgroundAttributes(10, ReidentModel::kFullKnowledge, rng);
  EXPECT_EQ(std::count(fk.begin(), fk.end(), true), 10);
  for (int t = 0; t < 20; ++t) {
    auto pk =
        MakeBackgroundAttributes(10, ReidentModel::kPartialKnowledge, rng);
    auto m = std::count(pk.begin(), pk.end(), true);
    EXPECT_GE(m, 5);
    EXPECT_LE(m, 10);
  }
  EXPECT_THROW(MakeBackgroundAttributes(1, ReidentModel::kFullKnowledge, rng),
               InvalidArgumentError);
}

TEST(ReidentTest, BaselineFormula) {
  EXPECT_DOUBLE_EQ(BaselineRidAcc(1, 100), 1.0);
  EXPECT_DOUBLE_EQ(BaselineRidAcc(10, 100), 10.0);
  EXPECT_DOUBLE_EQ(BaselineRidAcc(200, 100), 100.0);  // capped
  EXPECT_THROW(BaselineRidAcc(0, 100), InvalidArgumentError);
}

TEST(ReidentTest, Validation) {
  data::Dataset ds = GridBackground(5, 2, 3);
  std::vector<Profile> profiles(4);  // wrong size
  Rng rng(11);
  EXPECT_THROW(
      ReidentAccuracy(profiles, ds, {true, true}, AllTargets(), rng),
      InvalidArgumentError);
  profiles.resize(5);
  EXPECT_THROW(ReidentAccuracy(profiles, ds, {true}, AllTargets(), rng),
               InvalidArgumentError);
  ReidentConfig bad;
  bad.top_k = {};
  EXPECT_THROW(ReidentAccuracy(profiles, ds, {true, true}, bad, rng),
               InvalidArgumentError);
  // A profile naming an attribute the background does not have.
  profiles[2] = {{2, 0}};
  EXPECT_THROW(
      ReidentAccuracy(profiles, ds, {true, true}, AllTargets(), rng),
      InvalidArgumentError);
}

TEST(ReidentTest, BkNoiseValidatedAndZeroNoiseIdentical) {
  data::Dataset ds = data::AdultLike(3, 0.02);
  Rng rng(4);
  std::vector<Profile> profiles(ds.n());
  for (int i = 0; i < ds.n(); ++i) {
    for (int j = 0; j < 4; ++j) profiles[i].emplace_back(j, ds.value(i, j));
  }
  std::vector<bool> bk(ds.d(), true);
  ReidentConfig config;
  config.max_targets = 500;
  config.bk_noise = -0.1;
  EXPECT_THROW(ReidentAccuracy(profiles, ds, bk, config, rng),
               InvalidArgumentError);
  config.bk_noise = 1.5;
  EXPECT_THROW(ReidentAccuracy(profiles, ds, bk, config, rng),
               InvalidArgumentError);

  // bk_noise = 0 must take the exact-background path (same result as the
  // default config given the same rng stream).
  config.bk_noise = 0.0;
  Rng rng_a(7), rng_b(7);
  ReidentConfig default_config;
  default_config.max_targets = 500;
  auto with_flag = ReidentAccuracy(profiles, ds, bk, config, rng_a);
  auto without = ReidentAccuracy(profiles, ds, bk, default_config, rng_b);
  EXPECT_EQ(with_flag.rid_acc_percent, without.rid_acc_percent);
}

TEST(ReidentTest, BkNoiseDegradesTheAttackMonotonically) {
  // Perfect profiles against increasingly corrupted background knowledge:
  // RID-ACC must fall from its exact-copy level toward the baseline.
  data::Dataset ds = data::AdultLike(5, 0.03);
  Rng rng(11);
  std::vector<Profile> profiles(ds.n());
  for (int i = 0; i < ds.n(); ++i) {
    for (int j = 0; j < 5; ++j) profiles[i].emplace_back(j, ds.value(i, j));
  }
  std::vector<bool> bk(ds.d(), true);
  double prev = 101.0;
  for (double noise : {0.0, 0.2, 0.5, 0.9}) {
    ReidentConfig config;
    config.top_k = {10};
    config.max_targets = 800;
    config.bk_noise = noise;
    auto result = ReidentAccuracy(profiles, ds, bk, config, rng);
    EXPECT_LT(result.rid_acc_percent[0], prev + 2.0) << "noise=" << noise;
    prev = result.rid_acc_percent[0];
  }
  // At 90% corruption the background is nearly useless.
  EXPECT_LT(prev, 25.0);
}

TEST(ReidentTest, KernelMatchesBruteForce) {
  // Domains 2 and 74 pack to bytes; 300 forces the int columns.
  const std::vector<std::vector<int>> domain_sets = {
      {2, 74, 5, 2}, {2, 300, 74, 7}};
  // n = 1, and sizes that are not multiples of 16 or 64.
  for (int n : {1, 17, 100, 523}) {
    for (const auto& domains : domain_sets) {
      const int d = static_cast<int>(domains.size());
      Rng data_rng(1000 + n + domains[1]);
      data::Dataset ds(domains);
      std::vector<int> record(d);
      for (int i = 0; i < n; ++i) {
        // Skewed values so that distances tie often.
        for (int j = 0; j < d; ++j) {
          record[j] = static_cast<int>(
              data_rng.UniformInt(std::min(domains[j], 4 + i % 3)));
        }
        ds.AddRecord(record);
      }

      for (ReidentModel model :
           {ReidentModel::kFullKnowledge, ReidentModel::kPartialKnowledge}) {
        Rng bk_rng(n + 7);
        const std::vector<bool> bk = MakeBackgroundAttributes(d, model, bk_rng);

        std::vector<Profile> profiles(n);
        for (int i = 0; i < n; ++i) {
          Profile& p = profiles[i];
          switch (i % 6) {
            case 0:  // empty
              break;
            case 1:  // only attributes outside the background knowledge
              for (int j = 0; j < d; ++j) {
                if (!bk[j]) p.emplace_back(j, ds.value(i, j));
              }
              break;
            case 2:  // only values no record can hold
              p = {{0, -1}, {1, domains[1]}, {2, 256}, {3, 300}};
              break;
            case 3:  // repeated attributes, true and wrong values
              p = {{1, ds.value(i, 1)},
                   {1, ds.value(i, 1)},
                   {2, (ds.value(i, 2) + 1) % domains[2]},
                   {1, 0}};
              break;
            case 4:  // more checks than a byte can count
              for (int c = 0; c < 300; ++c) {
                p.emplace_back(c % d, c % 7 == 0 ? ds.value(i, c % d) : 0);
              }
              break;
            default:  // random values, out-of-range ones mixed in
              for (int j = 0; j < d; ++j) {
                const int pick = static_cast<int>(data_rng.UniformInt(8));
                if (pick == 0) continue;
                int v = ds.value(i, j);
                if (pick == 1) v = -3;
                if (pick == 2) v = domains[j] + pick;
                if (pick == 3) v = 256 + v;  // aliases v when truncated to a byte
                if (pick == 4) {
                  v = static_cast<int>(data_rng.UniformInt(domains[j]));
                }
                p.emplace_back(j, v);
              }
          }
        }

        for (double noise : {0.0, 0.3}) {
          for (int max_targets : {0, n / 2}) {
            ReidentConfig config;
            config.top_k = {1, 5, 10};
            config.max_targets = max_targets;
            config.bk_noise = noise;
            Rng rng_ref(n * 31 + max_targets);
            const ReidentResult want =
                BruteForceReident(profiles, ds, bk, config, rng_ref);
            const auto next_ref = rng_ref.UniformInt(1u << 30);
            // The dispatched matcher, then every byte-kernel tier this host
            // runs.
            Rng rng_kernel(n * 31 + max_targets);
            const ReidentResult got =
                ReidentAccuracy(profiles, ds, bk, config, rng_kernel);
            EXPECT_EQ(got.rid_acc_percent, want.rid_acc_percent)
                << "n=" << n << " k1=" << domains[1]
                << " pk=" << (model == ReidentModel::kPartialKnowledge)
                << " noise=" << noise << " max_targets=" << max_targets;
            // Both consumed the same RNG draws.
            EXPECT_EQ(rng_kernel.UniformInt(1u << 30), next_ref);
            for (reident_internal::ByteKernel kernel :
                 reident_internal::SupportedByteKernels()) {
              Rng rng_tier(n * 31 + max_targets);
              const ReidentResult tier =
                  reident_internal::ReidentAccuracyWithKernel(
                      kernel, profiles, ds, bk, config, rng_tier);
              EXPECT_EQ(tier.rid_acc_percent, want.rid_acc_percent)
                  << reident_internal::ByteKernelName(kernel) << " n=" << n
                  << " k1=" << domains[1] << " noise=" << noise
                  << " max_targets=" << max_targets;
              EXPECT_EQ(rng_tier.UniformInt(1u << 30), next_ref);
            }
          }
        }
      }
    }
  }
}

TEST(ReidentTest, ByteKernelTiersAgreeAtEveryLength) {
  // Every length from 1 to 3 AVX-512 vectors and then some, so each tier's
  // full vectors, its partial last vector and its scalar tail all count.
  const std::vector<reident_internal::ByteKernel> tiers =
      reident_internal::SupportedByteKernels();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), reident_internal::ByteKernel::kBaseline);
  EXPECT_EQ(tiers.back(), reident_internal::DetectByteKernel());
  Rng rng(17);
  const int d = 6;
  for (int n = 1; n <= 200; ++n) {
    std::vector<std::vector<std::uint8_t>> packed(d);
    std::vector<const std::uint8_t*> columns(d);
    for (int j = 0; j < d; ++j) {
      const int k = j == d - 1 ? 256 : 2 + j;  // the last spans every byte
      packed[j].resize(n);
      for (auto& cell : packed[j]) {
        cell = static_cast<std::uint8_t>(rng.UniformInt(k));
      }
      columns[j] = packed[j].data();
    }
    const int user = static_cast<int>(rng.UniformInt(n));
    std::vector<std::pair<int, int>> checks;
    const int num_checks = 1 + static_cast<int>(rng.UniformInt(3 * d));
    for (int c = 0; c < num_checks; ++c) {
      const int attr = static_cast<int>(rng.UniformInt(d));
      checks.emplace_back(attr, c % 2 == 0 ? packed[attr][user]
                                           : packed[attr][rng.UniformInt(n)]);
    }
    // Scalar reference.
    auto distance = [&](int r) {
      int dist = 0;
      for (const auto& [attr, v] : checks) dist += packed[attr][r] != v;
      return dist;
    };
    const int true_dist = distance(user);
    reident_internal::MatchCounts want;
    for (int r = 0; r < n; ++r) {
      want.closer += distance(r) < true_dist;
      want.ties += distance(r) == true_dist;
    }
    std::vector<std::uint8_t> scratch;
    for (reident_internal::ByteKernel kernel : tiers) {
      const reident_internal::MatchCounts got =
          reident_internal::CountCloserAndTiesBytes(kernel, checks, columns,
                                                    user, n, scratch);
      EXPECT_EQ(got.closer, want.closer)
          << reident_internal::ByteKernelName(kernel) << " n=" << n;
      EXPECT_EQ(got.ties, want.ties)
          << reident_internal::ByteKernelName(kernel) << " n=" << n;
    }
  }
}

TEST(ReidentTest, LogOverloadMatchesProfileOverload) {
  const data::Dataset ds = data::AdultLike(19, 0.05);
  Rng rng(19);
  const SurveyPlan plan = MakeSurveyPlan(ds.d(), 6, rng);
  for (fo::Protocol protocol : {fo::Protocol::kGrr, fo::Protocol::kOue}) {
    for (PrivacyMetricMode mode :
         {PrivacyMetricMode::kUniform, PrivacyMetricMode::kNonUniform}) {
      auto channel = MakeLdpChannel(protocol, ds.domain_sizes(), 3.0);
      const ProfileLog log =
          SimulateSmpProfileLog(ds, *channel, plan, mode, rng);
      for (ReidentModel model :
           {ReidentModel::kFullKnowledge, ReidentModel::kPartialKnowledge}) {
        const std::vector<bool> bk =
            MakeBackgroundAttributes(ds.d(), model, rng);
        for (double noise : {0.0, 0.2}) {
          ReidentConfig config;
          config.top_k = {1, 10};
          config.max_targets = 400;
          config.bk_noise = noise;
          for (int s = 0; s <= log.num_surveys(); ++s) {
            Rng rng_log(s + 100), rng_profiles(s + 100);
            const ReidentResult got =
                ReidentAccuracy(log, s, ds, bk, config, rng_log);
            const ReidentResult want = ReidentAccuracy(
                log.Snapshots(s), ds, bk, config, rng_profiles);
            EXPECT_EQ(got.rid_acc_percent, want.rid_acc_percent)
                << fo::ProtocolName(protocol) << " s=" << s
                << " noise=" << noise;
            EXPECT_EQ(rng_log(), rng_profiles());
          }
        }
      }
    }
  }
  // The log must align with the background, and the prefix must exist.
  const auto channel = MakeLdpChannel(fo::Protocol::kGrr, ds.domain_sizes(),
                                      1.0);
  const ProfileLog log = SimulateSmpProfileLog(
      ds, *channel, plan, PrivacyMetricMode::kUniform, rng);
  const std::vector<bool> bk(ds.d(), true);
  EXPECT_THROW(ReidentAccuracy(log, 7, ds, bk, AllTargets(), rng),
               InvalidArgumentError);
  EXPECT_THROW(ReidentAccuracy(log, -1, ds, bk, AllTargets(), rng),
               InvalidArgumentError);
  const data::Dataset other = GridBackground(10, 2, 3);
  EXPECT_THROW(ReidentAccuracy(ProfileLog(9, 2), 1, other, {true, true},
                               AllTargets(), rng),
               InvalidArgumentError);
}

}  // namespace
}  // namespace ldpr::attack
