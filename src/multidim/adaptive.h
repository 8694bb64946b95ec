#ifndef LDPR_MULTIDIM_ADAPTIVE_H_
#define LDPR_MULTIDIM_ADAPTIVE_H_

#include <memory>
#include <vector>

#include "fo/factory.h"
#include "fo/frequency_oracle.h"
#include "multidim/rsfd.h"
#include "multidim/smp.h"

namespace ldpr::multidim {

/// Per-attribute adaptive protocol selection ("ADP").
///
/// The RS+FD paper (Arcolezi et al., CIKM '21) ships an ADP variant that
/// picks, per attribute, whichever of GRR and OUE has the smaller
/// closed-form estimator variance; Wang et al. (USENIX Security '17)
/// establish the same rule for single-attribute collection (GRR wins iff
/// k_j < 3 e^eps + 2). This module provides the rule and SMP / RS+FD
/// solutions built on it — the configuration the studied paper's Section 6
/// recommendation ("OUE and/or OLH depending on k_j") converges to when
/// communication cost is not binding.

/// Lower-variance single-attribute choice between GRR and OUE at budget
/// `epsilon` for domain size `k` (Eq. 2 variance at f = 0).
fo::Protocol AdaptiveSmpChoice(int k, double epsilon);

/// Lower-variance RS+FD variant between RS+FD[GRR] and RS+FD[OUE-z] for one
/// attribute of domain size `k` among `d` attributes at budget `epsilon`
/// (Theorem-2-style variance at f = 0; the CIKM '21 ADP rule).
RsFdVariant AdaptiveRsFdChoice(int k, int d, double epsilon);

/// SMP with a per-attribute adaptive oracle: attribute j uses
/// AdaptiveSmpChoice(k_j, epsilon). Reports are standard SmpReports; the
/// estimator dispatches on the per-attribute choice.
class SmpAdaptive {
 public:
  SmpAdaptive(std::vector<int> domain_sizes, double epsilon);

  SmpReport RandomizeUser(const std::vector<int>& record, Rng& rng) const;
  SmpReport RandomizeUserAttribute(const std::vector<int>& record,
                                   int attribute, Rng& rng) const;

  /// Per-attribute estimates; attribute j uses only reports that sampled j.
  std::vector<std::vector<double>> Estimate(
      const std::vector<SmpReport>& reports) const;

  /// The protocol chosen for attribute j.
  fo::Protocol choice(int attribute) const;
  const fo::FrequencyOracle& oracle(int attribute) const;

  int d() const { return static_cast<int>(oracles_.size()); }
  const std::vector<int>& domain_sizes() const { return domain_sizes_; }
  double epsilon() const { return epsilon_; }

 private:
  std::vector<int> domain_sizes_;
  double epsilon_;
  std::vector<std::unique_ptr<fo::FrequencyOracle>> oracles_;
};

/// RS+FD with a per-attribute adaptive randomizer (RS+FD[ADP]): attribute j
/// uses AdaptiveRsFdChoice(k_j, d, epsilon). Sampled values are sanitized at
/// the amplified budget with the chosen randomizer; fake data follows the
/// chosen variant's procedure (uniform value for GRR attributes, OUE on a
/// zero vector for OUE-z attributes), and each attribute is estimated with
/// its variant's RS+FD estimator.
///
/// Reports populate `values[j]` for GRR attributes (with `bits[j]` empty)
/// and `bits[j]` for OUE-z attributes (with `values[j] = -1`).
class RsFdAdaptive : public FakeData {
 public:
  RsFdAdaptive(std::vector<int> domain_sizes, double epsilon);

  /// The RS+FD variant chosen for attribute j (kGrr or kOueZ).
  RsFdVariant choice(int attribute) const;
};

}  // namespace ldpr::multidim

#endif  // LDPR_MULTIDIM_ADAPTIVE_H_
