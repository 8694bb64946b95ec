#ifndef LDPR_FO_SS_H_
#define LDPR_FO_SS_H_

#include "fo/frequency_oracle.h"

namespace ldpr::fo {

/// omega-Subset Selection (Wang et al. 2016, Ye & Barg 2018; Section 2.2.3).
///
/// Reports a subset Omega of size omega = round(k / (e^eps + 1)) (clamped to
/// [1, k-1]). The true value enters Omega with probability
/// p_in = omega e^eps / (omega e^eps + k - omega); the remaining slots are
/// filled uniformly without replacement from the other values.
///
/// Support probabilities for Eq. 2:
///   p = omega e^eps / (omega e^eps + k - omega)
///   q = (omega e^eps (omega-1) + (k-omega) omega)
///       / ((k-1)(omega e^eps + k - omega)).
class Ss : public FrequencyOracle {
 public:
  Ss(int k, double epsilon);

  Report Randomize(int value, Rng& rng) const override;
  void AccumulateSupport(const Report& report,
                         std::vector<long long>* counts) const override;
  int AttackPredict(const Report& report, Rng& rng) const override;
  int RandomizeAndPredict(int value, Rng& rng) const override;
  Protocol protocol() const override { return Protocol::kSs; }

  /// Batched randomizer reusing one scratch subset across users.
  void BatchRandomize(const int* values, std::size_t count, Rng& rng,
                      const ReportSink& sink) const override;
  using FrequencyOracle::BatchRandomize;

  /// Fused subset tallies: samples Omega with a reusable index buffer and
  /// increments the counts directly, never materializing a Report.
  std::unique_ptr<Aggregator> MakeAggregator() const override;

  /// Subset size omega.
  int omega() const { return omega_; }

 private:
  int omega_;
};

}  // namespace ldpr::fo

#endif  // LDPR_FO_SS_H_
