#ifndef LDPR_MULTIDIM_RSRFD_ADAPTIVE_H_
#define LDPR_MULTIDIM_RSRFD_ADAPTIVE_H_

#include <vector>

#include "multidim/rsrfd.h"

namespace ldpr::multidim {

/// RS+RFD with per-attribute adaptive randomizer selection (RS+RFD[ADP]):
/// the countermeasure of Section 5 combined with the ADP rule, completing
/// the design matrix {uniform, realistic fake data} x {fixed, adaptive
/// randomizer}.
///
/// Attribute j uses whichever of RS+RFD[GRR] and RS+RFD[OUE-r] has the
/// smaller prior-weighted approximate variance (mean over v of the
/// Theorem-2/4 variance at f = 0, which depends on the prior f~_j — unlike
/// RS+FD[ADP]'s rule, skewed priors can flip the choice per attribute).
/// Unlike RS+FD[ADP], both candidate randomizers keep fake data realistic,
/// so the adaptive configuration does not inherit the UE-z attack surface
/// (bench abl08). Attributes are estimated with Eq. (6) (GRR) or Eq. (7)
/// (OUE-r); reports have RS+FD[ADP]'s per-attribute layout.
class RsRfdAdaptive : public FakeData {
 public:
  /// `priors[j]` is the prior distribution f~_j over [0, k_j), normalized
  /// internally.
  RsRfdAdaptive(std::vector<int> domain_sizes, double epsilon,
                std::vector<std::vector<double>> priors);

  /// The RS+RFD variant chosen for attribute j (kGrr or kOueR).
  RsRfdVariant choice(int attribute) const;

  const std::vector<std::vector<double>>& priors() const { return priors_; }
};

}  // namespace ldpr::multidim

#endif  // LDPR_MULTIDIM_RSRFD_ADAPTIVE_H_
