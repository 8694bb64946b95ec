#ifndef LDPR_ATTACK_PROFILING_H_
#define LDPR_ATTACK_PROFILING_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "data/dataset.h"
#include "fo/frequency_oracle.h"
#include "ml/gbdt.h"
#include "multidim/rsfd.h"

namespace ldpr::attack {

/// The attribute subsets collected by each survey (Section 4.2): survey sv
/// collects d_sv = Uniform(d/2, ..., d) attributes, chosen at random.
struct SurveyPlan {
  std::vector<std::vector<int>> surveys;  ///< per survey: global attribute ids

  int num_surveys() const { return static_cast<int>(surveys.size()); }
};

SurveyPlan MakeSurveyPlan(int d, int num_surveys, Rng& rng);

/// How users sample attributes across surveys (Sections 3.2.2 / 3.2.3).
enum class PrivacyMetricMode {
  kUniform,     ///< without replacement: a fresh attribute every survey
  kNonUniform,  ///< with replacement + memoization of repeated attributes
};

/// One user's inferred profile: (attribute, predicted value) pairs; each
/// attribute appears at most once.
using Profile = std::vector<std::pair<int, int>>;

/// How a single attribute report is produced and attacked — abstracts over
/// the privacy model (plain eps-LDP versus the alpha-PIE calibration of
/// Appendix C, which sends small-domain attributes in the clear).
class AttackChannel {
 public:
  virtual ~AttackChannel() = default;
  /// Sanitizes `true_value` of `attribute` and returns the adversary's
  /// prediction of the true value from the sanitized report.
  virtual int ReportAndPredict(int true_value, int attribute,
                               Rng& rng) const = 0;
};

/// eps-LDP channel: protocol randomizer + Section 3.2.1 adversary, fused
/// through fo::FrequencyOracle::RandomizeAndPredict (the PIE channel's
/// randomized attributes go the same way).
std::unique_ptr<AttackChannel> MakeLdpChannel(
    fo::Protocol protocol, const std::vector<int>& domain_sizes,
    double epsilon);

/// alpha-PIE channel (Appendix C): per attribute, CalibrateForBayesError
/// decides between clear-text release and an eps(alpha)-LDP randomizer.
std::unique_ptr<AttackChannel> MakePieChannel(
    fo::Protocol protocol, const std::vector<int>& domain_sizes, double beta,
    long long n);

/// Metric-LDP (d-privacy) channel — the paper's future-work direction
/// (Section 8): every attribute is treated as ordinal and sanitized with the
/// truncated geometric mechanism at per-unit budget epsilon; the adversary's
/// best guess is the reported value.
std::unique_ptr<AttackChannel> MakeMetricLdpChannel(
    const std::vector<int>& domain_sizes, double epsilon);

/// What the profiling adversary learned, survey by survey, in one flat
/// array: row(user)[s] is the (attribute, predicted value) pair that
/// `user`'s report in survey s revealed, or attribute -1 when that survey
/// revealed nothing new (every attribute of the survey already reported
/// under the uniform metric, or a memoized repeat under the non-uniform
/// one). An attribute appears at most once per user, so the profile after
/// s surveys is the user's first s entries, which Snapshot sorts by
/// attribute.
///
/// Cost: 8 bytes per (user, survey) in one allocation, against one heap
/// vector per (user, survey) for the materialized snapshots.
class ProfileLog {
 public:
  struct Entry {
    int attribute = -1;  ///< -1: nothing new revealed in this survey
    int value = -1;      ///< the adversary's prediction of the true value
  };

  /// n users x num_surveys entries, all "nothing new".
  ProfileLog(int n, int num_surveys);

  int n() const { return n_; }
  int num_surveys() const { return num_surveys_; }

  /// The user's num_surveys() entries, in survey order.
  const Entry* row(int user) const {
    return entries_.data() + static_cast<std::size_t>(user) * num_surveys_;
  }
  Entry* row(int user) {
    return entries_.data() + static_cast<std::size_t>(user) * num_surveys_;
  }

  /// The user's inferred profile after the first `surveys_seen` surveys
  /// (0 <= surveys_seen <= num_surveys()), sorted by attribute and reserved
  /// to its exact size.
  Profile Snapshot(int user, int surveys_seen) const;
  /// Snapshot of every user after `surveys_seen` surveys.
  std::vector<Profile> Snapshots(int surveys_seen) const;

 private:
  int n_ = 0;
  int num_surveys_ = 0;
  std::vector<Entry> entries_;  ///< user-major: entries_[user * S + s]
};

/// Simulates multi-survey SMP collection and the profiling adversary into a
/// ProfileLog. The plan's attributes must lie in [0, d) and no survey may be
/// empty (InvalidArgumentError otherwise).
///
/// One sharded sweep over the users, each shard on its own Fork of one Split
/// of `rng` (so results do not depend on LDPR_THREADS), with O(d) scratch
/// per shard and none per user: each report goes through the channel's
/// fused report-and-predict and lands in the user's log row.
ProfileLog SimulateSmpProfileLog(const data::Dataset& dataset,
                                 const AttackChannel& channel,
                                 const SurveyPlan& plan,
                                 PrivacyMetricMode mode, Rng& rng);

/// SimulateSmpProfileLog, materialized: for every survey prefix s (1-based
/// index s surveys seen), the inferred profile of every user,
/// result[s-1][user] = log.Snapshot(user, s). Same draws from `rng`.
std::vector<std::vector<Profile>> SimulateSmpProfiling(
    const data::Dataset& dataset, const AttackChannel& channel,
    const SurveyPlan& plan, PrivacyMetricMode mode, Rng& rng);

/// Simulates multi-survey RS+FD collection (Section 4.4): per survey, users
/// run RS+FD over the survey's attributes (uniform metric) and the attacker
/// first predicts the sampled attribute with the NK model (training a GBDT
/// on `synthetic_multiplier * n` synthetic profiles), then predicts the
/// value of the *predicted* attribute from the report payload. Prediction
/// errors therefore chain, which is what makes RS+FD a partial
/// countermeasure. The plan is validated like SimulateSmpProfileLog's.
std::vector<std::vector<Profile>> SimulateRsFdProfiling(
    const data::Dataset& dataset, multidim::RsFdVariant variant,
    double epsilon, const SurveyPlan& plan, double synthetic_multiplier,
    const ml::GbdtConfig& gbdt_config, Rng& rng);

}  // namespace ldpr::attack

#endif  // LDPR_ATTACK_PROFILING_H_
