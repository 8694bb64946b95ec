#ifndef LDPR_ATTACK_BAYES_ADVERSARY_H_
#define LDPR_ATTACK_BAYES_ADVERSARY_H_

#include <vector>

#include "core/rng.h"
#include "fo/frequency_oracle.h"
#include "multidim/fake_data.h"
#include "multidim/rsfd.h"
#include "multidim/rsrfd.h"

namespace ldpr::attack {

/// Bayes-optimal single-report adversary (Gursoy et al., referenced in
/// Section 3.2.1 as the analytic formalization of the paper's plausible-
/// deniability attacks).
///
/// Given a prior over the user's true value, predicts
///   argmax_v prior[v] * Pr[report | v]
/// with uniform tie-breaking. With a uniform prior this coincides with the
/// paper's per-protocol heuristics (report value for GRR, hash preimage for
/// OLH, subset member for SS, set bit for UE); with a non-uniform prior it
/// strictly dominates them.
class BayesAttacker {
 public:
  /// `oracle` must outlive the attacker. `prior` is normalized internally;
  /// pass the empirical marginal (or an LDP estimate of it) for the
  /// strongest attack, or leave empty for a uniform prior.
  explicit BayesAttacker(const fo::FrequencyOracle& oracle,
                         std::vector<double> prior = {});

  /// Predicts the user's true value from one sanitized report.
  int Predict(const fo::Report& report, Rng& rng) const;

  /// Log-likelihood log Pr[report | v] up to an additive constant shared by
  /// all v (sufficient for prediction; exposed for tests).
  double LogLikelihood(const fo::Report& report, int v) const;

 private:
  const fo::FrequencyOracle& oracle_;
  std::vector<double> log_prior_;
};

/// Bayes-optimal sampled-attribute inference against the fake-data
/// solutions (RS+FD, RS+RFD and their adaptive variants) — the analytic
/// counterpart of the paper's GBDT classifier (NK model). Scores
///   Pr[y | t] = M_t(y_t) * prod_{i != t} fake_i(y_i)
/// where M_t is the randomizer's output distribution under the estimated
/// marginals and fake_i the attribute's fake-data distribution, and
/// predicts the argmax over t.
///
/// Used as a classifier ablation: it upper-bounds what any learner can
/// extract from one tuple under the independence approximation, at zero
/// training cost.
class BayesAifAttacker {
 public:
  /// Fake data follows each attribute's source: uniform values or smoothed
  /// one-hots for RS+FD, q-bits for UE-z, and the protocol's priors for
  /// RS+RFD (assumed known to the attacker, as in Section 3.3 — the server
  /// publishes them). `estimated_marginals[j]` is the attacker's frequency
  /// estimate for attribute j (e.g. from RsFd::Estimate), normalized
  /// internally.
  BayesAifAttacker(const multidim::FakeData& protocol,
                   const std::vector<std::vector<double>>& estimated_marginals);

  /// Predicts the sampled attribute of one output tuple.
  int PredictSampledAttribute(const multidim::MultidimReport& report) const;

  /// Predictions for a batch of tuples (parallelized).
  std::vector<int> PredictBatch(
      const std::vector<multidim::MultidimReport>& reports) const;

 private:
  /// Score contribution of attribute j if it were the sampled one, minus its
  /// contribution as fake data (the rest of the tuple cancels).
  double ScoreDelta(const multidim::MultidimReport& report, int j) const;

  int d_;
  std::vector<int> domain_sizes_;
  /// Per attribute: true for a bit-vector payload, false for GRR values.
  std::vector<bool> bits_;
  /// Per attribute, per value: GRR columns hold log M_j(value) under
  /// "sampled" and log fake_j(value); bit-vector columns hold
  /// P[bit = 1 | sampled] and P[bit = 1 | fake].
  std::vector<std::vector<double>> sampled_;
  std::vector<std::vector<double>> fake_;
};

}  // namespace ldpr::attack

#endif  // LDPR_ATTACK_BAYES_ADVERSARY_H_
