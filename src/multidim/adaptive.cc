#include "multidim/adaptive.h"

#include <utility>

#include "core/check.h"
#include "fo/grr.h"
#include "fo/unary_encoding.h"
#include "multidim/variance.h"

namespace ldpr::multidim {

fo::Protocol AdaptiveSmpChoice(int k, double epsilon) {
  LDPR_REQUIRE(k >= 2, "domain size must be >= 2, got " << k);
  LDPR_REQUIRE(epsilon > 0, "epsilon must be positive, got " << epsilon);
  // Eq. 2 variance at f = 0 is q(1-q)/(n(p-q)^2); comparing GRR against OUE
  // reduces to Wang et al.'s rule: GRR wins iff k < 3 e^eps + 2. We compare
  // the variances directly so the rule stays correct if either protocol's
  // parameters change.
  fo::Grr grr(k, epsilon);
  fo::Oue oue(k, epsilon);
  return grr.EstimatorVariance(1) <= oue.EstimatorVariance(1)
             ? fo::Protocol::kGrr
             : fo::Protocol::kOue;
}

RsFdVariant AdaptiveRsFdChoice(int k, int d, double epsilon) {
  LDPR_REQUIRE(k >= 2 && d >= 2 && epsilon > 0,
               "AdaptiveRsFdChoice requires k >= 2, d >= 2, epsilon > 0");
  const double var_grr =
      RsFdVariance(RsFdVariant::kGrr, k, d, epsilon, /*n=*/1, /*f=*/0.0);
  const double var_oue =
      RsFdVariance(RsFdVariant::kOueZ, k, d, epsilon, /*n=*/1, /*f=*/0.0);
  return var_grr <= var_oue ? RsFdVariant::kGrr : RsFdVariant::kOueZ;
}

SmpAdaptive::SmpAdaptive(std::vector<int> domain_sizes, double epsilon)
    : domain_sizes_(std::move(domain_sizes)), epsilon_(epsilon) {
  LDPR_REQUIRE(domain_sizes_.size() >= 2,
               "SMP targets multidimensional data (d >= 2), got d="
                   << domain_sizes_.size());
  LDPR_REQUIRE(epsilon > 0, "epsilon must be positive, got " << epsilon);
  oracles_.reserve(domain_sizes_.size());
  for (int k : domain_sizes_) {
    oracles_.push_back(
        fo::MakeOracle(AdaptiveSmpChoice(k, epsilon), k, epsilon));
  }
}

SmpReport SmpAdaptive::RandomizeUser(const std::vector<int>& record,
                                     Rng& rng) const {
  return RandomizeUserAttribute(record, static_cast<int>(rng.UniformInt(d())),
                                rng);
}

SmpReport SmpAdaptive::RandomizeUserAttribute(const std::vector<int>& record,
                                              int attribute, Rng& rng) const {
  LDPR_REQUIRE(static_cast<int>(record.size()) == d(),
               "record has " << record.size() << " values, expected " << d());
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  SmpReport out;
  out.attribute = attribute;
  out.report = oracles_[attribute]->Randomize(record[attribute], rng);
  return out;
}

std::vector<std::vector<double>> SmpAdaptive::Estimate(
    const std::vector<SmpReport>& reports) const {
  LDPR_REQUIRE(!reports.empty(), "Estimate requires at least one report");
  std::vector<std::vector<long long>> counts(d());
  std::vector<long long> per_attribute_n(d(), 0);
  for (int j = 0; j < d(); ++j) counts[j].assign(domain_sizes_[j], 0);
  for (const SmpReport& r : reports) {
    LDPR_REQUIRE(r.attribute >= 0 && r.attribute < d(),
                 "report attribute out of range");
    oracles_[r.attribute]->AccumulateSupport(r.report, &counts[r.attribute]);
    ++per_attribute_n[r.attribute];
  }
  std::vector<std::vector<double>> est(d());
  for (int j = 0; j < d(); ++j) {
    if (per_attribute_n[j] == 0) {
      est[j].assign(domain_sizes_[j], 0.0);
      continue;
    }
    est[j] = oracles_[j]->EstimateFromCounts(counts[j], per_attribute_n[j]);
  }
  return est;
}

fo::Protocol SmpAdaptive::choice(int attribute) const {
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  return oracles_[attribute]->protocol();
}

const fo::FrequencyOracle& SmpAdaptive::oracle(int attribute) const {
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  return *oracles_[attribute];
}

RsFdAdaptive::RsFdAdaptive(std::vector<int> domain_sizes, double epsilon)
    : FakeData(std::move(domain_sizes), epsilon, /*priors=*/{},
               ReportShape::kPerColumn) {
  for (int k : this->domain_sizes()) {
    if (AdaptiveRsFdChoice(k, d(), epsilon) == RsFdVariant::kGrr) {
      AddColumn(FakePayload::kGrr, FakeSource::kUniform);
    } else {
      AddColumn(FakePayload::kOue, FakeSource::kZero);
    }
  }
}

RsFdVariant RsFdAdaptive::choice(int attribute) const {
  return column(attribute).payload == FakePayload::kGrr ? RsFdVariant::kGrr
                                                         : RsFdVariant::kOueZ;
}

}  // namespace ldpr::multidim
