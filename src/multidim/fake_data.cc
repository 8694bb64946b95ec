#include "multidim/fake_data.h"

#include <cmath>
#include <utility>

#include "core/check.h"
#include "fo/grr.h"
#include "fo/unary_encoding.h"
#include "multidim/amplification.h"

namespace ldpr::multidim {

FakeData::FakeData(std::vector<int> domain_sizes, double epsilon,
                   std::vector<std::vector<double>> priors, ReportShape shape)
    : domain_sizes_(std::move(domain_sizes)),
      epsilon_(epsilon),
      emits_values_(shape == ReportShape::kPerColumn),
      emits_bits_(shape == ReportShape::kPerColumn) {
  LDPR_REQUIRE(domain_sizes_.size() >= 2,
               "fake-data solutions target multidimensional data (d >= 2), "
               "got d=" << domain_sizes_.size());
  for (int k : domain_sizes_) {
    LDPR_REQUIRE(k >= 2, "every attribute needs domain size >= 2, got " << k);
  }
  LDPR_REQUIRE(epsilon > 0.0, "epsilon must be positive, got " << epsilon);
  amplified_epsilon_ = AmplifiedEpsilon(epsilon_, d());
  if (priors.empty()) return;
  LDPR_REQUIRE(priors.size() == domain_sizes_.size(),
               "need one prior distribution per attribute");
  priors_.reserve(priors.size());
  prior_samplers_.reserve(priors.size());
  for (std::size_t j = 0; j < priors.size(); ++j) {
    LDPR_REQUIRE(static_cast<int>(priors[j].size()) == domain_sizes_[j],
                 "prior for attribute " << j << " has wrong length");
    priors_.push_back(Normalize(priors[j]));
    prior_samplers_.emplace_back(priors_.back());
  }
}

void FakeData::AddColumn(FakePayload payload, FakeSource source) {
  const int j = static_cast<int>(columns_.size());
  LDPR_CHECK(j < d(), "more columns than attributes");
  LDPR_CHECK((source == FakeSource::kPrior) == !priors_.empty(),
             "prior fakes need priors, and priors need prior fakes");
  LDPR_CHECK(source != FakeSource::kZero || payload != FakePayload::kGrr,
             "zero-vector fakes need a unary-encoded payload");
  Column column{payload, source, 0.0, 0.0};
  switch (payload) {
    case FakePayload::kGrr: {
      const double e = std::exp(amplified_epsilon_);
      column.p = e / (e + domain_sizes_[j] - 1);
      column.q = (1.0 - column.p) / (domain_sizes_[j] - 1);
      break;
    }
    case FakePayload::kSue:
      column.p = fo::Sue::PForEpsilon(amplified_epsilon_);
      column.q = fo::Sue::QForEpsilon(amplified_epsilon_);
      break;
    case FakePayload::kOue:
      column.p = fo::Oue::PForEpsilon(amplified_epsilon_);
      column.q = fo::Oue::QForEpsilon(amplified_epsilon_);
      break;
  }
  columns_.push_back(column);
  emits_values_ |= payload == FakePayload::kGrr;
  emits_bits_ |= payload != FakePayload::kGrr;
}

const FakeData::Column& FakeData::column(int attribute) const {
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  return columns_[attribute];
}

double FakeData::FakeMass(int attribute, int value) const {
  const Column& c = column(attribute);
  LDPR_REQUIRE(value >= 0 && value < domain_sizes_[attribute],
               "value out of range");
  switch (c.source) {
    case FakeSource::kUniform:
      return 1.0 / domain_sizes_[attribute];
    case FakeSource::kZero:
      return 0.0;
    case FakeSource::kPrior:
      return priors_[attribute][value];
  }
  LDPR_CHECK(false, "unhandled fake source");
}

template <typename ValueFn, typename BitFn>
void FakeData::Draw(const std::vector<int>& record, int sampled, Rng& rng,
                    ValueFn&& value, BitFn&& bit) const {
  const int d = this->d();
  for (int j = 0; j < d; ++j) {
    const Column& c = columns_[j];
    const int k = domain_sizes_[j];
    const bool grr = c.payload == FakePayload::kGrr;
    // The randomizer's input: the true value or a fake one, or -1 for the
    // all-zero vector.
    int input = -1;
    if (j == sampled) {
      if (grr) {
        value(j, fo::Grr::Perturb(record[j], k, amplified_epsilon_, rng));
        continue;
      }
      LDPR_REQUIRE(record[j] >= 0 && record[j] < k,
                   "record value out of range");
      input = record[j];
    } else if (c.source == FakeSource::kUniform) {
      input = static_cast<int>(rng.UniformInt(k));
    } else if (c.source == FakeSource::kPrior) {
      input = prior_samplers_[j].Sample(rng);
    }
    if (grr) {
      // GRR fakes are sent unperturbed (Section 2.3.2, Algorithm 1 line 6).
      value(j, input);
      continue;
    }
    // UE: perturb the one-hot of `input`, one ascending draw per bit.
    for (int v = 0; v < k; ++v) {
      bit(j, v, rng.Bernoulli(v == input ? c.p : c.q));
    }
  }
}

MultidimReport FakeData::RandomizeUser(const std::vector<int>& record,
                                       Rng& rng) const {
  return RandomizeUserWithAttribute(
      record, static_cast<int>(rng.UniformInt(d())), rng);
}

MultidimReport FakeData::RandomizeUserWithAttribute(
    const std::vector<int>& record, int sampled_attribute, Rng& rng) const {
  LDPR_REQUIRE(static_cast<int>(record.size()) == d(),
               "record has " << record.size() << " values, expected " << d());
  LDPR_REQUIRE(sampled_attribute >= 0 && sampled_attribute < d(),
               "sampled attribute out of range");
  MultidimReport out;
  out.sampled_attribute = sampled_attribute;
  if (emits_values_) out.values.assign(d(), -1);
  if (emits_bits_) {
    out.bits.resize(d());
    for (int j = 0; j < d(); ++j) {
      if (columns_[j].payload != FakePayload::kGrr) {
        out.bits[j].resize(domain_sizes_[j]);
      }
    }
  }
  Draw(
      record, sampled_attribute, rng,
      [&](int j, int y) { out.values[j] = y; },
      [&](int j, int v, bool b) { out.bits[j][v] = b ? 1 : 0; });
  return out;
}

std::vector<std::vector<long long>> FakeData::SupportCounts(
    const std::vector<MultidimReport>& reports) const {
  std::vector<std::vector<long long>> counts(d());
  for (int j = 0; j < d(); ++j) counts[j].assign(domain_sizes_[j], 0);
  for (const MultidimReport& r : reports) {
    LDPR_REQUIRE(
        (!emits_values_ || static_cast<int>(r.values.size()) == d()) &&
            (!emits_bits_ || static_cast<int>(r.bits.size()) == d()),
        "report width mismatch");
    for (int j = 0; j < d(); ++j) {
      const int k = domain_sizes_[j];
      if (columns_[j].payload == FakePayload::kGrr) {
        LDPR_REQUIRE(r.values[j] >= 0 && r.values[j] < k,
                     "report value out of range");
        ++counts[j][r.values[j]];
        continue;
      }
      LDPR_REQUIRE(static_cast<int>(r.bits[j].size()) == k,
                   "report bit-vector length mismatch");
      for (int v = 0; v < k; ++v) {
        if (r.bits[j][v]) ++counts[j][v];
      }
    }
  }
  return counts;
}

std::vector<std::vector<double>> FakeData::Estimate(
    const std::vector<MultidimReport>& reports) const {
  LDPR_REQUIRE(!reports.empty(), "Estimate requires at least one report");
  return EstimateFromSupportCounts(SupportCounts(reports),
                                   static_cast<long long>(reports.size()));
}

std::vector<std::vector<double>> FakeData::EstimateFromSupportCounts(
    const std::vector<std::vector<long long>>& counts, long long n_ll) const {
  LDPR_REQUIRE(static_cast<int>(counts.size()) == d(),
               "counts width mismatch");
  LDPR_REQUIRE(n_ll >= 1, "EstimateFromSupportCounts requires n >= 1");
  const double n = static_cast<double>(n_ll);
  const double dd = static_cast<double>(d());

  std::vector<std::vector<double>> est(d());
  for (int j = 0; j < d(); ++j) {
    LDPR_REQUIRE(static_cast<int>(counts[j].size()) == domain_sizes_[j],
                 "counts for attribute " << j << " have wrong length");
    const Column& col = columns_[j];
    const bool grr = col.payload == FakePayload::kGrr;
    const double kj = domain_sizes_[j];
    const double pj = col.p;
    const double qj = col.q;
    est[j].resize(domain_sizes_[j]);
    for (int v = 0; v < domain_sizes_[j]; ++v) {
      const double c = static_cast<double>(counts[j][v]);
      double& fhat = est[j][v];
      if (col.source == FakeSource::kPrior && grr) {
        // Eq. (6): (d C - n(q + (d-1) f~)) / (n (p - q)).
        const double prior = priors_[j][v];
        fhat = (dd * c - n * (qj + (dd - 1.0) * prior)) / (n * (pj - qj));
      } else if (col.source == FakeSource::kPrior) {
        // Eq. (7): (d C - n(q + (p-q)(d-1) f~ + q(d-1))) / (n (p - q)).
        const double prior = priors_[j][v];
        fhat = (dd * c - n * (qj + (pj - qj) * (dd - 1.0) * prior +
                              qj * (dd - 1.0))) /
               (n * (pj - qj));
      } else if (grr) {
        // RS+FD[GRR]: (C d k - n(d - 1 + q k)) / (n k (p - q)).
        fhat = (c * dd * kj - n * (dd - 1.0 + qj * kj)) /
               (n * kj * (pj - qj));
      } else if (col.source == FakeSource::kZero) {
        // RS+FD[UE-z]: d (C - n q) / (n (p - q)).
        fhat = dd * (c - n * qj) / (n * (pj - qj));
      } else {
        // RS+FD[UE-r]: (C d k - n[q k + (p - q)(d-1) + q k (d-1)])
        //              / (n k (p - q)).
        fhat = (c * dd * kj - n * (qj * kj + (pj - qj) * (dd - 1.0) +
                                   qj * kj * (dd - 1.0))) /
               (n * kj * (pj - qj));
      }
    }
  }
  return est;
}

FakeData::StreamAggregator::StreamAggregator(const FakeData& solution)
    : solution_(solution), counts_(solution.d()) {
  for (int j = 0; j < solution.d(); ++j) {
    counts_[j].assign(solution.domain_sizes_[j], 0);
  }
}

void FakeData::StreamAggregator::AccumulateRecord(
    const std::vector<int>& record, Rng& rng) {
  const int d = solution_.d();
  LDPR_REQUIRE(static_cast<int>(record.size()) == d,
               "record has " << record.size() << " values, expected " << d);
  // RandomizeUser's draws, folded straight into the counts.
  solution_.Draw(
      record, static_cast<int>(rng.UniformInt(d)), rng,
      [&](int j, int y) { ++counts_[j][y]; },
      [&](int j, int v, bool b) { counts_[j][v] += b; });
  ++n_;
}

void FakeData::StreamAggregator::Merge(const StreamAggregator& other) {
  LDPR_REQUIRE(counts_.size() == other.counts_.size(),
               "cannot merge fake-data aggregators of different widths");
  for (std::size_t j = 0; j < counts_.size(); ++j) {
    LDPR_REQUIRE(counts_[j].size() == other.counts_[j].size(),
                 "cannot merge fake-data aggregators of different domains");
    for (std::size_t v = 0; v < counts_[j].size(); ++v) {
      counts_[j][v] += other.counts_[j][v];
    }
  }
  n_ += other.n_;
}

std::vector<std::vector<double>> FakeData::StreamAggregator::Estimate() const {
  return solution_.EstimateFromSupportCounts(counts_, n_);
}

}  // namespace ldpr::multidim
