#include "attack/profiling.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/check.h"
#include "data/synthetic.h"
#include "fo/factory.h"
#include "privacy/pie.h"
#include "sim/engine.h"

namespace ldpr::attack {
namespace {

TEST(SurveyPlanTest, SizesWithinPaperBounds) {
  Rng rng(1);
  const int d = 10;
  SurveyPlan plan = MakeSurveyPlan(d, 5, rng);
  EXPECT_EQ(plan.num_surveys(), 5);
  for (const auto& attrs : plan.surveys) {
    EXPECT_GE(static_cast<int>(attrs.size()), d / 2);
    EXPECT_LE(static_cast<int>(attrs.size()), d);
    std::set<int> uniq(attrs.begin(), attrs.end());
    EXPECT_EQ(uniq.size(), attrs.size());
    for (int a : attrs) {
      EXPECT_GE(a, 0);
      EXPECT_LT(a, d);
    }
  }
}

TEST(SurveyPlanTest, Validation) {
  Rng rng(2);
  EXPECT_THROW(MakeSurveyPlan(1, 5, rng), InvalidArgumentError);
  EXPECT_THROW(MakeSurveyPlan(10, 0, rng), InvalidArgumentError);
}

TEST(LdpChannelTest, HighEpsilonRecoversGrrValue) {
  auto channel = MakeLdpChannel(fo::Protocol::kGrr, {5, 9}, 20.0);
  Rng rng(3);
  for (int t = 0; t < 50; ++t) {
    EXPECT_EQ(channel->ReportAndPredict(3, 0, rng), 3);
    EXPECT_EQ(channel->ReportAndPredict(7, 1, rng), 7);
  }
}

TEST(LdpChannelTest, LowEpsilonIsNoisy) {
  auto channel = MakeLdpChannel(fo::Protocol::kGrr, {50}, 0.1);
  Rng rng(4);
  int correct = 0;
  for (int t = 0; t < 2000; ++t) {
    correct += (channel->ReportAndPredict(7, 0, rng) == 7);
  }
  EXPECT_LT(correct / 2000.0, 0.2);
}

TEST(PieChannelTest, SmallDomainsAreClearText) {
  // At beta = 0.5 over ~45k users, k <= ~100 attributes skip the randomizer
  // ([35, Prop. 9]) — predictions become exact.
  auto channel = MakePieChannel(fo::Protocol::kOue, {16, 2}, 0.5, 45222);
  Rng rng(5);
  for (int t = 0; t < 100; ++t) {
    EXPECT_EQ(channel->ReportAndPredict(7, 0, rng), 7);
    EXPECT_EQ(channel->ReportAndPredict(1, 1, rng), 1);
  }
}

TEST(PieChannelTest, TighterBetaKeepsRandomizer) {
  // beta = 0.95 gives a tiny alpha; a large-domain attribute must stay
  // randomized and predictions become unreliable.
  auto channel =
      MakePieChannel(fo::Protocol::kGrr, {20000}, 0.95, 45222);
  Rng rng(6);
  int correct = 0;
  for (int t = 0; t < 500; ++t) {
    correct += (channel->ReportAndPredict(7, 0, rng) == 7);
  }
  EXPECT_LT(correct / 500.0, 0.2);
}

TEST(SmpProfilingTest, UniformModeGrowsFreshAttributes) {
  data::Dataset ds = data::NurseryLike(7, 0.05);
  Rng rng(7);
  SurveyPlan plan = MakeSurveyPlan(ds.d(), 4, rng);
  auto channel = MakeLdpChannel(fo::Protocol::kGrr, ds.domain_sizes(), 5.0);
  auto snapshots = SimulateSmpProfiling(ds, *channel, plan,
                                        PrivacyMetricMode::kUniform, rng);
  ASSERT_EQ(static_cast<int>(snapshots.size()), 4);
  for (int s = 0; s < 4; ++s) {
    ASSERT_EQ(static_cast<int>(snapshots[s].size()), ds.n());
  }
  // Under the uniform metric each user reports exactly one fresh attribute
  // per survey (surveys cover >= d/2 of d attributes, so no exhaustion in 4
  // surveys when d = 9).
  for (int u = 0; u < ds.n(); ++u) {
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(static_cast<int>(snapshots[s][u].size()), s + 1);
      // Profiles contain distinct attributes with valid values.
      std::set<int> attrs;
      for (const auto& [a, v] : snapshots[s][u]) {
        attrs.insert(a);
        EXPECT_GE(v, 0);
        EXPECT_LT(v, ds.domain_size(a));
      }
      EXPECT_EQ(static_cast<int>(attrs.size()), s + 1);
    }
  }
}

TEST(SmpProfilingTest, NonUniformModeGrowsSlower) {
  data::Dataset ds = data::NurseryLike(8, 0.05);
  Rng rng(8);
  SurveyPlan plan = MakeSurveyPlan(ds.d(), 5, rng);
  auto channel = MakeLdpChannel(fo::Protocol::kGrr, ds.domain_sizes(), 5.0);

  Rng rng_u(9), rng_nu(9);
  auto uni = SimulateSmpProfiling(ds, *channel, plan,
                                  PrivacyMetricMode::kUniform, rng_u);
  auto nonuni = SimulateSmpProfiling(ds, *channel, plan,
                                     PrivacyMetricMode::kNonUniform, rng_nu);
  // With replacement, repeated attributes are memoized, so the average
  // profile is strictly smaller than under the uniform metric.
  double uni_size = 0.0, nonuni_size = 0.0;
  for (int u = 0; u < ds.n(); ++u) {
    uni_size += uni.back()[u].size();
    nonuni_size += nonuni.back()[u].size();
  }
  EXPECT_LT(nonuni_size, uni_size);
  // And each profile is still within [1, num_surveys].
  for (int u = 0; u < ds.n(); ++u) {
    EXPECT_GE(static_cast<int>(nonuni.back()[u].size()), 1);
    EXPECT_LE(static_cast<int>(nonuni.back()[u].size()), 5);
  }
}

TEST(SmpProfilingTest, HighEpsilonProfilesMatchTruth) {
  data::Dataset ds = data::NurseryLike(10, 0.05);
  Rng rng(10);
  SurveyPlan plan = MakeSurveyPlan(ds.d(), 3, rng);
  auto channel = MakeLdpChannel(fo::Protocol::kGrr, ds.domain_sizes(), 20.0);
  auto snapshots = SimulateSmpProfiling(ds, *channel, plan,
                                        PrivacyMetricMode::kUniform, rng);
  for (int u = 0; u < ds.n(); ++u) {
    for (const auto& [a, v] : snapshots.back()[u]) {
      EXPECT_EQ(v, ds.value(u, a));
    }
  }
}

TEST(RsFdProfilingTest, ProducesProfilesWithChainedPredictions) {
  data::Dataset ds = data::AcsEmploymentLike(11, 0.08);
  Rng rng(11);
  SurveyPlan plan = MakeSurveyPlan(ds.d(), 2, rng);
  ml::GbdtConfig gbdt;
  gbdt.num_rounds = 5;
  gbdt.max_depth = 3;
  auto snapshots = SimulateRsFdProfiling(ds, multidim::RsFdVariant::kGrr, 4.0,
                                         plan, /*synthetic_multiplier=*/1.0,
                                         gbdt, rng);
  ASSERT_EQ(snapshots.size(), 2u);
  for (int u = 0; u < ds.n(); ++u) {
    // One predicted (attribute, value) per survey, possibly overlapping.
    EXPECT_GE(static_cast<int>(snapshots[1][u].size()), 1);
    EXPECT_LE(static_cast<int>(snapshots[1][u].size()), 2);
    for (const auto& [a, v] : snapshots[1][u]) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, ds.domain_size(a));
    }
  }
}

/// eps-LDP or alpha-PIE through the two-step oracle path, Randomize then
/// AttackPredict: the reference for the channels' fused path.
class TwoStepChannel : public AttackChannel {
 public:
  TwoStepChannel(fo::Protocol protocol, const std::vector<int>& domain_sizes,
                 double epsilon) {
    for (int k : domain_sizes) {
      oracles_.push_back(fo::MakeOracle(protocol, k, epsilon));
    }
  }
  TwoStepChannel(fo::Protocol protocol, const std::vector<int>& domain_sizes,
                 double beta, long long n) {
    for (int k : domain_sizes) {
      const privacy::PieCalibration cal =
          privacy::CalibrateForBayesError(beta, n, k);
      oracles_.push_back(cal.use_randomizer
                             ? fo::MakeOracle(protocol, k, cal.epsilon)
                             : nullptr);
    }
  }

  int ReportAndPredict(int true_value, int attribute,
                       Rng& rng) const override {
    const fo::FrequencyOracle* oracle = oracles_[attribute].get();
    if (oracle == nullptr) return true_value;  // PIE clear text
    return oracle->AttackPredict(oracle->Randomize(true_value, rng), rng);
  }

 private:
  std::vector<std::unique_ptr<fo::FrequencyOracle>> oracles_;
};

/// The per-user snapshot loop SMP profiling ran before the log: every user
/// keeps a predicted-value array and re-derives its attribute-sorted profile
/// after each survey.
std::vector<std::vector<Profile>> ReferenceSnapshots(
    const data::Dataset& dataset, const AttackChannel& channel,
    const SurveyPlan& plan, PrivacyMetricMode mode, Rng& rng) {
  const int n = dataset.n();
  const int num_surveys = plan.num_surveys();
  std::vector<std::vector<Profile>> snapshots(num_surveys,
                                              std::vector<Profile>(n));
  sim::ShardedRun(
      n, rng, sim::Options{},
      [&](int /*shard*/, long long lo, long long hi, Rng& r) {
        std::vector<int> predicted(dataset.d(), -1);
        std::vector<bool> reported(dataset.d(), false);
        std::vector<int> candidates;
        for (long long user = lo; user < hi; ++user) {
          std::fill(predicted.begin(), predicted.end(), -1);
          std::fill(reported.begin(), reported.end(), false);
          for (int s = 0; s < num_surveys; ++s) {
            const std::vector<int>& attrs = plan.surveys[s];
            int chosen = -1;
            if (mode == PrivacyMetricMode::kUniform) {
              candidates.clear();
              for (int a : attrs) {
                if (!reported[a]) candidates.push_back(a);
              }
              if (!candidates.empty()) {
                chosen = candidates[r.UniformInt(candidates.size())];
              }
            } else {
              int a = attrs[r.UniformInt(attrs.size())];
              if (!reported[a]) chosen = a;
            }
            if (chosen >= 0) {
              predicted[chosen] = channel.ReportAndPredict(
                  dataset.value(static_cast<int>(user), chosen), chosen, r);
              reported[chosen] = true;
            }
            Profile& snap = snapshots[s][user];
            for (int a = 0; a < dataset.d(); ++a) {
              if (predicted[a] != -1) snap.emplace_back(a, predicted[a]);
            }
          }
        }
      });
  return snapshots;
}

TEST(SmpProfilingTest, LogMatchesReferenceSnapshots) {
  const data::Dataset ds = data::AdultLike(12, 0.03);
  Rng plan_rng(12);
  // 7 surveys over d attributes: the uniform metric runs out of fresh
  // attributes in some surveys, so the log holds "nothing new" entries.
  const SurveyPlan plan = MakeSurveyPlan(ds.d(), 7, plan_rng);

  struct Case {
    std::string name;
    std::unique_ptr<AttackChannel> channel;    // the fused path under test
    std::unique_ptr<AttackChannel> reference;  // two-step (or itself)
  };
  std::vector<Case> cases;
  for (fo::Protocol protocol : fo::AllProtocols()) {
    cases.push_back({std::string("ldp/") + fo::ProtocolName(protocol),
                     MakeLdpChannel(protocol, ds.domain_sizes(), 2.0),
                     std::make_unique<TwoStepChannel>(
                         protocol, ds.domain_sizes(), 2.0)});
    cases.push_back({std::string("pie/") + fo::ProtocolName(protocol),
                     MakePieChannel(protocol, ds.domain_sizes(), 0.8, ds.n()),
                     std::make_unique<TwoStepChannel>(
                         protocol, ds.domain_sizes(), 0.8,
                         static_cast<long long>(ds.n()))});
  }
  cases.push_back({"metric-ldp", MakeMetricLdpChannel(ds.domain_sizes(), 1.0),
                   nullptr});

  for (const Case& c : cases) {
    const AttackChannel& reference =
        c.reference != nullptr ? *c.reference : *c.channel;
    for (PrivacyMetricMode mode :
         {PrivacyMetricMode::kUniform, PrivacyMetricMode::kNonUniform}) {
      const bool uniform = mode == PrivacyMetricMode::kUniform;
      Rng rng_log(21), rng_wrapper(21), rng_ref(21);
      const ProfileLog log =
          SimulateSmpProfileLog(ds, *c.channel, plan, mode, rng_log);
      const auto snapshots =
          SimulateSmpProfiling(ds, *c.channel, plan, mode, rng_wrapper);
      const auto want = ReferenceSnapshots(ds, reference, plan, mode, rng_ref);
      ASSERT_EQ(log.n(), ds.n());
      ASSERT_EQ(log.num_surveys(), plan.num_surveys());
      EXPECT_TRUE(log.Snapshots(0) == std::vector<Profile>(ds.n()));
      for (int s = 1; s <= plan.num_surveys(); ++s) {
        EXPECT_TRUE(log.Snapshots(s) == want[s - 1])
            << c.name << " uniform=" << uniform << " s=" << s;
        EXPECT_TRUE(snapshots[s - 1] == want[s - 1])
            << c.name << " uniform=" << uniform << " s=" << s;
      }
      // Exact-size snapshots: no slack capacity left behind.
      const Profile last = log.Snapshot(ds.n() - 1, plan.num_surveys());
      EXPECT_EQ(last.capacity(), last.size());
      // All three consumed the same draws.
      const auto next = rng_ref();
      EXPECT_EQ(rng_log(), next) << c.name << " uniform=" << uniform;
      EXPECT_EQ(rng_wrapper(), next) << c.name << " uniform=" << uniform;
    }
  }
}

TEST(SmpProfilingTest, RejectsOutOfRangePlan) {
  data::Dataset ds = data::NurseryLike(13, 0.01);
  const int d = ds.d();
  auto channel = MakeLdpChannel(fo::Protocol::kGrr, ds.domain_sizes(), 1.0);
  ml::GbdtConfig gbdt;
  gbdt.num_rounds = 1;
  gbdt.max_depth = 1;
  const std::vector<SurveyPlan> bad_plans = {
      SurveyPlan{{{0, 1}, {2, d}}},  // attribute d
      SurveyPlan{{{-1, 0}}},         // negative attribute
      SurveyPlan{{{0, 1}, {}}},      // empty survey
      SurveyPlan{},                  // no survey
  };
  for (const SurveyPlan& plan : bad_plans) {
    for (PrivacyMetricMode mode :
         {PrivacyMetricMode::kUniform, PrivacyMetricMode::kNonUniform}) {
      Rng rng(13);
      EXPECT_THROW(SimulateSmpProfiling(ds, *channel, plan, mode, rng),
                   InvalidArgumentError);
      EXPECT_THROW(SimulateSmpProfileLog(ds, *channel, plan, mode, rng),
                   InvalidArgumentError);
    }
    Rng rng(14);
    EXPECT_THROW(SimulateRsFdProfiling(ds, multidim::RsFdVariant::kGrr, 1.0,
                                       plan, 1.0, gbdt, rng),
                 InvalidArgumentError);
  }
}

TEST(ProfileLogTest, SnapshotValidatesItsArguments) {
  const ProfileLog log(3, 2);
  EXPECT_TRUE(log.Snapshot(2, 2).empty());
  EXPECT_THROW(log.Snapshot(3, 1), InvalidArgumentError);
  EXPECT_THROW(log.Snapshot(-1, 1), InvalidArgumentError);
  EXPECT_THROW(log.Snapshot(0, 3), InvalidArgumentError);
  EXPECT_THROW(log.Snapshot(0, -1), InvalidArgumentError);
}

}  // namespace
}  // namespace ldpr::attack
