#ifndef LDPR_FO_GRR_H_
#define LDPR_FO_GRR_H_

#include "fo/frequency_oracle.h"

namespace ldpr::fo {

/// Generalized Randomized Response (Kairouz et al.; Section 2.2.1).
///
/// Reports the true value with p = e^eps / (e^eps + k - 1) and any other
/// fixed value with q = 1 / (e^eps + k - 1). No encoding is used, so the
/// single-report adversary simply takes the report at face value, giving
/// expected accuracy p — the weakest plausible deniability of the five
/// protocols for small k.
class Grr : public FrequencyOracle {
 public:
  Grr(int k, double epsilon);

  Report Randomize(int value, Rng& rng) const override;
  void AccumulateSupport(const Report& report,
                         std::vector<long long>* counts) const override;
  int AttackPredict(const Report& report, Rng& rng) const override;
  int RandomizeAndPredict(int value, Rng& rng) const override;
  Protocol protocol() const override { return Protocol::kGrr; }

  /// Fused tally aggregator; its histogram path draws the report counts as
  /// one sum-preserving multinomial per true-value group (jointly exact).
  std::unique_ptr<Aggregator> MakeAggregator() const override;

  /// Perturbs `value` in an arbitrary domain of size `k` with budget `eps`
  /// (used by the RS+FD / RS+RFD client, which runs GRR at the amplified
  /// budget on a per-attribute domain).
  static int Perturb(int value, int k, double eps, Rng& rng);
};

}  // namespace ldpr::fo

#endif  // LDPR_FO_GRR_H_
