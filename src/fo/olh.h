#ifndef LDPR_FO_OLH_H_
#define LDPR_FO_OLH_H_

#include "fo/frequency_oracle.h"

namespace ldpr::fo {

/// Optimal Local Hashing (Wang et al. 2017; Section 2.2.2).
///
/// Each user draws a hash function H from a universal family mapping [k] to
/// the reduced domain [g], g = round(e^eps) + 1, then runs GRR on H(v) in
/// [g] and reports <H, GRR(H(v))>. Server-side, a value v is supported when
/// H(v) equals the reported hashed value; the estimator uses p = p' and
/// q = 1/g.
///
/// For the adversary, the report only narrows the value down to the hash
/// preimage of the reported cell, giving expected accuracy about
/// 1 / (2 max(k/(e^eps + 1), 1)) — one of the two most attack-resistant
/// protocols in the paper.
class Olh : public FrequencyOracle {
 public:
  /// Optimal local hashing: g = round(e^eps) + 1 (at least 2).
  Olh(int k, double epsilon);

  /// General local hashing with a caller-chosen reduced domain size g >= 2
  /// (Wang et al.'s LH family; g = 2 is binary local hashing, g = e^eps + 1
  /// minimizes the estimator variance). Used by the g-sweep ablation.
  Olh(int k, double epsilon, int g);

  void RandomizeInto(int value, Rng& rng, Report* out) const override;
  void AccumulateSupport(const Report& report,
                         std::vector<long long>* counts) const override;
  int AttackPredict(const Report& report, Rng& rng) const override;
  int RandomizeAndPredict(int value, Rng& rng) const override;
  Protocol protocol() const override { return Protocol::kOlh; }

  /// Hashed-support counting: reports and values (through RandomizeInto)
  /// stage into a batched preimage kernel, the widest instruction tier the
  /// CPU runs (fo/olh_kernel.h).
  std::unique_ptr<Aggregator> MakeAggregator() const override;

  /// The reduced domain size g = round(e^eps) + 1 (at least 2).
  int g() const { return g_; }
  /// GRR probability inside the reduced domain, p' = e^eps/(e^eps + g - 1).
  double p_prime() const { return p_prime_; }

 private:
  int g_;
  double p_prime_;
};

}  // namespace ldpr::fo

#endif  // LDPR_FO_OLH_H_
