#include "multidim/rsrfd_adaptive.h"

#include <utility>

#include "core/check.h"

namespace ldpr::multidim {

RsRfdAdaptive::RsRfdAdaptive(std::vector<int> domain_sizes, double epsilon,
                             std::vector<std::vector<double>> priors)
    : FakeData(std::move(domain_sizes), epsilon, std::move(priors),
               ReportShape::kPerColumn) {
  LDPR_REQUIRE(!priors_.empty(), "need one prior distribution per attribute");
  // Choice rule: per attribute, the smaller prior-weighted mean approximate
  // variance (f = 0) between the two RS+RFD candidates. Delegated to the
  // fixed protocols' tested closed forms.
  RsRfd grr(RsRfdVariant::kGrr, this->domain_sizes(), epsilon, priors_);
  RsRfd ouer(RsRfdVariant::kOueR, this->domain_sizes(), epsilon, priors_);
  for (int j = 0; j < d(); ++j) {
    double grr_var = 0.0, ouer_var = 0.0;
    for (int v = 0; v < this->domain_sizes()[j]; ++v) {
      grr_var += grr.EstimatorVariance(j, v, /*n=*/1, /*f=*/0.0);
      ouer_var += ouer.EstimatorVariance(j, v, /*n=*/1, /*f=*/0.0);
    }
    AddColumn(grr_var <= ouer_var ? FakePayload::kGrr : FakePayload::kOue,
              FakeSource::kPrior);
  }
}

RsRfdVariant RsRfdAdaptive::choice(int attribute) const {
  return column(attribute).payload == FakePayload::kGrr ? RsRfdVariant::kGrr
                                                         : RsRfdVariant::kOueR;
}

}  // namespace ldpr::multidim
