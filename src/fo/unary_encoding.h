#ifndef LDPR_FO_UNARY_ENCODING_H_
#define LDPR_FO_UNARY_ENCODING_H_

#include "fo/frequency_oracle.h"

namespace ldpr::fo {

/// Shared implementation of the two unary-encoding protocols (Section 2.2.4):
/// the input value is one-hot encoded into a k-bit vector B, and each bit is
/// flipped independently with Pr[B'_i = 1] = p if B_i = 1 and q if B_i = 0.
///
///   SUE (Basic One-time RAPPOR):  p = e^{eps/2} / (e^{eps/2} + 1), q = 1 - p.
///   OUE (Optimal Unary Encoding): p = 1/2, q = 1 / (e^eps + 1).
///
/// The single-report adversary (Section 3.2.1) looks at the set bits: exactly
/// one set bit -> predict it; several -> uniform choice among them; none ->
/// uniform over the domain.
class UnaryEncoding : public FrequencyOracle {
 public:
  /// Constructs with explicit flip probabilities (0 <= q < p <= 1). Prefer
  /// the Sue / Oue subclasses unless experimenting with custom parameters.
  UnaryEncoding(int k, double epsilon, double p, double q);

  Report Randomize(int value, Rng& rng) const override;
  void AccumulateSupport(const Report& report,
                         std::vector<long long>* counts) const override;
  int AttackPredict(const Report& report, Rng& rng) const override;
  int RandomizeAndPredict(int value, Rng& rng) const override;

  /// Batched randomizer perturbing into one reused k-bit scratch vector.
  void BatchRandomize(const int* values, std::size_t count, Rng& rng,
                      const ReportSink& sink) const override;
  using FrequencyOracle::BatchRandomize;

  /// Fused bit-column sums: each sanitized bit is drawn and folded into its
  /// column count in place — no one-hot input, no output vector, no Report.
  std::unique_ptr<Aggregator> MakeAggregator() const override;

  /// Applies the bit-flip channel to an arbitrary input bit vector. This is
  /// the primitive RS+FD reuses to build fake reports from zero vectors
  /// (UE-z) and from random one-hot vectors (UE-r).
  static std::vector<std::uint8_t> PerturbBits(
      const std::vector<std::uint8_t>& input, double p, double q, Rng& rng);

  /// One-hot encodes `value` into a k-bit vector.
  static std::vector<std::uint8_t> OneHot(int value, int k);
};

/// Symmetric UE, a.k.a. Basic One-time RAPPOR (Erlingsson et al. 2014).
class Sue : public UnaryEncoding {
 public:
  Sue(int k, double epsilon);
  Protocol protocol() const override { return Protocol::kSue; }

  /// SUE flip probabilities for a given budget.
  static double PForEpsilon(double epsilon);
  static double QForEpsilon(double epsilon);
};

/// Optimal UE (Wang et al. 2017).
class Oue : public UnaryEncoding {
 public:
  Oue(int k, double epsilon);
  Protocol protocol() const override { return Protocol::kOue; }

  static double PForEpsilon(double epsilon);
  static double QForEpsilon(double epsilon);
};

}  // namespace ldpr::fo

#endif  // LDPR_FO_UNARY_ENCODING_H_
