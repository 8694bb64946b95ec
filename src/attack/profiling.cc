#include "attack/profiling.h"

#include <algorithm>

#include "attack/aif.h"
#include "core/check.h"
#include "core/parallel.h"
#include "fo/factory.h"
#include "fo/metric_ldp.h"
#include "privacy/pie.h"
#include "sim/engine.h"

namespace ldpr::attack {

SurveyPlan MakeSurveyPlan(int d, int num_surveys, Rng& rng) {
  LDPR_REQUIRE(d >= 2 && num_surveys >= 1,
               "MakeSurveyPlan requires d >= 2 and num_surveys >= 1");
  SurveyPlan plan;
  plan.surveys.reserve(num_surveys);
  const int min_attrs = std::max(2, (d + 1) / 2);
  for (int s = 0; s < num_surveys; ++s) {
    const int d_sv = static_cast<int>(rng.UniformRange(min_attrs, d));
    plan.surveys.push_back(rng.SampleWithoutReplacement(d, d_sv));
  }
  return plan;
}

namespace {

class LdpChannel : public AttackChannel {
 public:
  LdpChannel(fo::Protocol protocol, const std::vector<int>& domain_sizes,
             double epsilon) {
    oracles_.reserve(domain_sizes.size());
    for (int k : domain_sizes) {
      oracles_.push_back(fo::MakeOracle(protocol, k, epsilon));
    }
  }

  int ReportAndPredict(int true_value, int attribute, Rng& rng) const override {
    LDPR_REQUIRE(attribute >= 0 &&
                     attribute < static_cast<int>(oracles_.size()),
                 "attribute out of range");
    return oracles_[attribute]->RandomizeAndPredict(true_value, rng);
  }

 private:
  std::vector<std::unique_ptr<fo::FrequencyOracle>> oracles_;
};

class PieChannel : public AttackChannel {
 public:
  PieChannel(fo::Protocol protocol, const std::vector<int>& domain_sizes,
             double beta, long long n) {
    oracles_.resize(domain_sizes.size());
    clear_text_.resize(domain_sizes.size(), false);
    for (std::size_t j = 0; j < domain_sizes.size(); ++j) {
      privacy::PieCalibration cal =
          privacy::CalibrateForBayesError(beta, n, domain_sizes[j]);
      if (cal.use_randomizer) {
        oracles_[j] = fo::MakeOracle(protocol, domain_sizes[j], cal.epsilon);
      } else {
        clear_text_[j] = true;  // [35, Prop. 9]: small domain, send y = v
      }
    }
  }

  int ReportAndPredict(int true_value, int attribute, Rng& rng) const override {
    LDPR_REQUIRE(attribute >= 0 &&
                     attribute < static_cast<int>(oracles_.size()),
                 "attribute out of range");
    if (clear_text_[attribute]) return true_value;
    return oracles_[attribute]->RandomizeAndPredict(true_value, rng);
  }

 private:
  std::vector<std::unique_ptr<fo::FrequencyOracle>> oracles_;
  std::vector<bool> clear_text_;
};

class MetricLdpChannel : public AttackChannel {
 public:
  MetricLdpChannel(const std::vector<int>& domain_sizes, double epsilon) {
    mechanisms_.reserve(domain_sizes.size());
    for (int k : domain_sizes) {
      mechanisms_.push_back(std::make_unique<fo::MetricLdp>(k, epsilon));
    }
  }

  int ReportAndPredict(int true_value, int attribute, Rng& rng) const override {
    LDPR_REQUIRE(attribute >= 0 &&
                     attribute < static_cast<int>(mechanisms_.size()),
                 "attribute out of range");
    const fo::MetricLdp& m = *mechanisms_[attribute];
    return m.AttackPredict(m.Randomize(true_value, rng));
  }

 private:
  std::vector<std::unique_ptr<fo::MetricLdp>> mechanisms_;
};

/// Predicts a value from one RS+FD payload column, mirroring the
/// single-report adversary of Section 3.2.1 for the payload's encoding.
int PredictValueFromPayload(const multidim::MultidimReport& report,
                            int attribute, int k, Rng& rng) {
  if (!report.values.empty()) return report.values[attribute];
  const auto& bits = report.bits[attribute];
  std::vector<int> set_bits;
  for (int v = 0; v < k; ++v) {
    if (bits[v]) set_bits.push_back(v);
  }
  if (set_bits.empty()) return static_cast<int>(rng.UniformInt(k));
  return set_bits[rng.UniformInt(set_bits.size())];
}

void ValidatePlan(const SurveyPlan& plan, int d) {
  LDPR_REQUIRE(plan.num_surveys() >= 1,
               "plan must contain at least one survey");
  for (int s = 0; s < plan.num_surveys(); ++s) {
    LDPR_REQUIRE(!plan.surveys[s].empty(),
                 "survey " << s << " collects no attribute");
    for (int a : plan.surveys[s]) {
      LDPR_REQUIRE(a >= 0 && a < d, "survey " << s << " collects attribute "
                                              << a << ", outside [0, " << d
                                              << ")");
    }
  }
}

}  // namespace

ProfileLog::ProfileLog(int n, int num_surveys)
    : n_(n),
      num_surveys_(num_surveys),
      entries_(static_cast<std::size_t>(n) * num_surveys) {
  LDPR_REQUIRE(n >= 0 && num_surveys >= 0,
               "ProfileLog requires n >= 0 and num_surveys >= 0");
}

Profile ProfileLog::Snapshot(int user, int surveys_seen) const {
  LDPR_REQUIRE(user >= 0 && user < n_,
               "user " << user << " outside [0, " << n_ << ")");
  LDPR_REQUIRE(surveys_seen >= 0 && surveys_seen <= num_surveys_,
               "surveys_seen " << surveys_seen << " outside [0, "
                               << num_surveys_ << "]");
  const Entry* entries = row(user);
  std::size_t size = 0;
  for (int s = 0; s < surveys_seen; ++s) size += entries[s].attribute >= 0;
  Profile profile;
  profile.reserve(size);
  for (int s = 0; s < surveys_seen; ++s) {
    if (entries[s].attribute >= 0) {
      profile.emplace_back(entries[s].attribute, entries[s].value);
    }
  }
  std::sort(profile.begin(), profile.end());  // attributes are distinct
  return profile;
}

std::vector<Profile> ProfileLog::Snapshots(int surveys_seen) const {
  LDPR_REQUIRE(surveys_seen >= 0 && surveys_seen <= num_surveys_,
               "surveys_seen " << surveys_seen << " outside [0, "
                               << num_surveys_ << "]");
  // One heap block per profile: allocate them across the workers, as the
  // sweep that fills the log does.
  std::vector<Profile> profiles(static_cast<std::size_t>(n_));
  ParallelForShards(n_, DefaultThreadCount(),
                    [&](int /*shard*/, long long begin, long long end) {
                      for (long long user = begin; user < end; ++user) {
                        profiles[user] =
                            Snapshot(static_cast<int>(user), surveys_seen);
                      }
                    });
  return profiles;
}

std::unique_ptr<AttackChannel> MakeLdpChannel(
    fo::Protocol protocol, const std::vector<int>& domain_sizes,
    double epsilon) {
  return std::make_unique<LdpChannel>(protocol, domain_sizes, epsilon);
}

std::unique_ptr<AttackChannel> MakePieChannel(
    fo::Protocol protocol, const std::vector<int>& domain_sizes, double beta,
    long long n) {
  return std::make_unique<PieChannel>(protocol, domain_sizes, beta, n);
}

std::unique_ptr<AttackChannel> MakeMetricLdpChannel(
    const std::vector<int>& domain_sizes, double epsilon) {
  return std::make_unique<MetricLdpChannel>(domain_sizes, epsilon);
}

ProfileLog SimulateSmpProfileLog(const data::Dataset& dataset,
                                 const AttackChannel& channel,
                                 const SurveyPlan& plan,
                                 PrivacyMetricMode mode, Rng& rng) {
  const int n = dataset.n();
  const int d = dataset.d();
  ValidatePlan(plan, d);
  const int num_surveys = plan.num_surveys();
  ProfileLog log(n, num_surveys);

  // Sharded per-user sweep on independent per-shard RNG streams: results are
  // reproducible from one root seed under any LDPR_THREADS setting, and the
  // engine keeps O(shards) generator state instead of one Rng per user.
  // Shards write disjoint user rows of the log.
  sim::ShardedRun(
      n, rng, sim::Options{},
      [&](int /*shard*/, long long lo, long long hi, Rng& r) {
        std::vector<char> reported(d);
        std::vector<int> candidates;
        for (long long user = lo; user < hi; ++user) {
          std::fill(reported.begin(), reported.end(), false);
          ProfileLog::Entry* entries = log.row(static_cast<int>(user));
          for (int s = 0; s < num_surveys; ++s) {
            const std::vector<int>& attrs = plan.surveys[s];
            int chosen = -1;
            if (mode == PrivacyMetricMode::kUniform) {
              // Without replacement across surveys: only fresh attributes.
              candidates.clear();
              for (int a : attrs) {
                if (!reported[a]) candidates.push_back(a);
              }
              if (!candidates.empty()) {
                chosen = candidates[r.UniformInt(candidates.size())];
              }
              // All of this survey's attributes already reported: nothing
              // new.
            } else {
              // With replacement; a repeated attribute is memoized (the user
              // re-sends the prior report, so the adversary learns nothing
              // new).
              int a = attrs[r.UniformInt(attrs.size())];
              if (!reported[a]) chosen = a;
            }
            if (chosen < 0) continue;
            const int predicted = channel.ReportAndPredict(
                dataset.value(static_cast<int>(user), chosen), chosen, r);
            reported[chosen] = true;
            // A prediction of -1 names no value, so it stays out of the
            // profile.
            if (predicted != -1) entries[s] = {chosen, predicted};
          }
        }
      });
  return log;
}

std::vector<std::vector<Profile>> SimulateSmpProfiling(
    const data::Dataset& dataset, const AttackChannel& channel,
    const SurveyPlan& plan, PrivacyMetricMode mode, Rng& rng) {
  const ProfileLog log =
      SimulateSmpProfileLog(dataset, channel, plan, mode, rng);
  std::vector<std::vector<Profile>> snapshots;
  snapshots.reserve(static_cast<std::size_t>(log.num_surveys()));
  for (int s = 1; s <= log.num_surveys(); ++s) {
    snapshots.push_back(log.Snapshots(s));
  }
  return snapshots;
}

std::vector<std::vector<Profile>> SimulateRsFdProfiling(
    const data::Dataset& dataset, multidim::RsFdVariant variant,
    double epsilon, const SurveyPlan& plan, double synthetic_multiplier,
    const ml::GbdtConfig& gbdt_config, Rng& rng) {
  ValidatePlan(plan, dataset.d());
  const int n = dataset.n();
  const int num_surveys = plan.num_surveys();

  std::vector<std::vector<Profile>> snapshots(
      num_surveys, std::vector<Profile>(n));
  std::vector<std::vector<int>> predicted(n,
                                          std::vector<int>(dataset.d(), -1));
  std::vector<std::vector<bool>> truly_sampled(
      n, std::vector<bool>(dataset.d(), false));

  for (int s = 0; s < num_surveys; ++s) {
    const std::vector<int>& attrs = plan.surveys[s];
    const int d_sv = static_cast<int>(attrs.size());
    std::vector<int> local_sizes(d_sv);
    for (int j = 0; j < d_sv; ++j) {
      local_sizes[j] = dataset.domain_size(attrs[j]);
    }
    multidim::RsFd rsfd(variant, local_sizes, epsilon);

    // Client phase: every user reports an RS+FD tuple over this survey's
    // attributes, sampling without replacement across surveys (uniform
    // privacy metric, the paper's higher-risk setting). The reports must be
    // materialized here — they are the NK adversary's classifier input — but
    // the sweep runs sharded on deterministic per-shard streams.
    std::vector<multidim::MultidimReport> reports(n);
    sim::ShardedRun(
        n, rng, sim::Options{},
        [&](int /*shard*/, long long lo, long long hi, Rng& r) {
          std::vector<int> record(d_sv), fresh;
          for (long long user = lo; user < hi; ++user) {
            for (int j = 0; j < d_sv; ++j) {
              record[j] = dataset.value(static_cast<int>(user), attrs[j]);
            }
            fresh.clear();
            for (int j = 0; j < d_sv; ++j) {
              if (!truly_sampled[user][attrs[j]]) fresh.push_back(j);
            }
            int local = fresh.empty()
                            ? static_cast<int>(r.UniformInt(d_sv))
                            : fresh[r.UniformInt(fresh.size())];
            truly_sampled[user][attrs[local]] = true;
            reports[user] = rsfd.RandomizeUserWithAttribute(record, local, r);
          }
        });

    // Attack phase: NK sampled-attribute inference, then value prediction on
    // the predicted attribute. Wrong attribute predictions poison the
    // profile — the chained-error effect of Section 4.4.
    MultidimClient client = [&rsfd](const std::vector<int>& rec, Rng& r) {
      return rsfd.RandomizeUser(rec, r);
    };
    MultidimEstimator estimator =
        [&rsfd](const std::vector<multidim::MultidimReport>& reps) {
          return rsfd.Estimate(reps);
        };
    std::vector<int> predicted_attr = NkPredictSampledAttributes(
        reports, client, estimator, local_sizes, synthetic_multiplier,
        gbdt_config, rng);

    for (int user = 0; user < n; ++user) {
      const int local = predicted_attr[user];
      const int global = attrs[local];
      predicted[user][global] = PredictValueFromPayload(
          reports[user], local, local_sizes[local], rng);
      Profile& snap = snapshots[s][user];
      for (int a = 0; a < dataset.d(); ++a) {
        if (predicted[user][a] != -1) snap.emplace_back(a, predicted[user][a]);
      }
    }
  }
  return snapshots;
}

}  // namespace ldpr::attack
