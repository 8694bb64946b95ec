#ifndef LDPR_MULTIDIM_RSRFD_H_
#define LDPR_MULTIDIM_RSRFD_H_

#include <vector>

#include "multidim/rsfd.h"

namespace ldpr::multidim {

/// The three RS+RFD countermeasure protocols (Section 5.1).
enum class RsRfdVariant {
  kGrr,   ///< GRR randomizer; fake values drawn from the prior.
  kSueR,  ///< SUE randomizer; SUE applied to prior-distributed one-hots.
  kOueR,  ///< OUE randomizer; OUE applied to prior-distributed one-hots.
};

const char* RsRfdVariantName(RsRfdVariant variant);

/// Random Sampling Plus *Realistic* Fake Data — this paper's countermeasure
/// (Algorithm 1).
///
/// Identical to RS+FD except that fake data for the non-sampled attributes
/// follows server-provided prior distributions f~ instead of the uniform
/// distribution, which (a) lets fake data contribute signal to the estimate
/// and (b) removes the uniform-vs-skewed discrepancy the AIF classifier
/// exploits. Estimators are Eq. (6) for GRR and Eq. (7) for UE-r; with
/// uniform priors both reduce exactly to the RS+FD estimators. Every
/// attribute is one FakeData column with prior fakes.
///
/// Privacy caveat (characterized in multidim_ldp_bound_test,
/// RsRfdSkewedPriorsDegradeTheTupleBound): the paper's eps-LDP analysis is
/// exact for *uniform* fake data; non-uniform priors break the branch
/// cancellation behind the e^eps tuple bound, and the realized worst-case
/// guarantee for single-attribute neighbours degrades from eps toward the
/// amplified eps' as prior masses approach zero. Deployments with extreme
/// priors should budget accordingly (e.g. floor the prior masses).
class RsRfd : public FakeData {
 public:
  /// `priors[j]` is the prior distribution f~_j over [0, k_j); it is
  /// normalized internally.
  RsRfd(RsRfdVariant variant, std::vector<int> domain_sizes, double epsilon,
        std::vector<std::vector<double>> priors);

  /// Closed-form estimator variance (Theorems 2 and 4) at true frequency f
  /// for value v of attribute j, over n users.
  double EstimatorVariance(int attribute, int value, long long n,
                           double f) const;

  RsRfdVariant variant() const { return variant_; }
  const std::vector<std::vector<double>>& priors() const { return priors_; }

 private:
  /// Probability that value v of attribute j is supported by one report
  /// (the gamma of Theorems 2 / 4).
  double Gamma(int attribute, int value, double f) const;

  RsRfdVariant variant_;
};

}  // namespace ldpr::multidim

#endif  // LDPR_MULTIDIM_RSRFD_H_
