#include "multidim/rsrfd.h"

#include <utility>

#include "core/check.h"

namespace ldpr::multidim {

const char* RsRfdVariantName(RsRfdVariant variant) {
  switch (variant) {
    case RsRfdVariant::kGrr:
      return "RS+RFD[GRR]";
    case RsRfdVariant::kSueR:
      return "RS+RFD[SUE-r]";
    case RsRfdVariant::kOueR:
      return "RS+RFD[OUE-r]";
  }
  return "unknown";
}

RsRfd::RsRfd(RsRfdVariant variant, std::vector<int> domain_sizes,
             double epsilon, std::vector<std::vector<double>> priors)
    : FakeData(std::move(domain_sizes), epsilon, std::move(priors),
               ReportShape::kOnePayload),
      variant_(variant) {
  LDPR_REQUIRE(!priors_.empty(), "need one prior distribution per attribute");
  const FakePayload payload = variant == RsRfdVariant::kGrr ? FakePayload::kGrr
                              : variant == RsRfdVariant::kSueR
                                  ? FakePayload::kSue
                                  : FakePayload::kOue;
  for (int j = 0; j < d(); ++j) AddColumn(payload, FakeSource::kPrior);
}

double RsRfd::Gamma(int attribute, int value, double f) const {
  const double dd = static_cast<double>(d());
  const double pj = p(attribute);
  const double qj = q(attribute);
  const double prior = priors_[attribute][value];
  if (variant_ == RsRfdVariant::kGrr) {
    // Theorem 2: gamma = (1/d)(q + f(p - q) + (d-1) f~).
    return (qj + f * (pj - qj) + (dd - 1.0) * prior) / dd;
  }
  // Theorem 4: gamma = (1/d)(f(p-q) + q + (d-1)(f~(p-q) + q)).
  return (f * (pj - qj) + qj + (dd - 1.0) * (prior * (pj - qj) + qj)) / dd;
}

double RsRfd::EstimatorVariance(int attribute, int value, long long n,
                                double f) const {
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  LDPR_REQUIRE(value >= 0 && value < domain_sizes()[attribute],
               "value out of range");
  LDPR_REQUIRE(n >= 1, "EstimatorVariance requires n >= 1");
  const double dd = static_cast<double>(d());
  const double pj = p(attribute);
  const double qj = q(attribute);
  const double gamma = Gamma(attribute, value, f);
  // Theorems 2 / 4: Var = d^2 gamma (1 - gamma) / (n (p - q)^2).
  return dd * dd * gamma * (1.0 - gamma) /
         (static_cast<double>(n) * (pj - qj) * (pj - qj));
}

}  // namespace ldpr::multidim
