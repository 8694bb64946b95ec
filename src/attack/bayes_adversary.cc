#include "attack/bayes_adversary.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/hash.h"
#include "core/histogram.h"
#include "core/parallel.h"
#include "core/sampling.h"
#include "fo/olh.h"
#include "fo/ss.h"

namespace ldpr::attack {

namespace {

constexpr double kLogFloor = -40.0;  // log of a vanishing probability

double SafeLog(double p) {
  return p > 0.0 ? std::max(std::log(p), kLogFloor) : kLogFloor;
}

}  // namespace

// ---------------------------------------------------------------------------
// BayesAttacker
// ---------------------------------------------------------------------------

BayesAttacker::BayesAttacker(const fo::FrequencyOracle& oracle,
                             std::vector<double> prior)
    : oracle_(oracle) {
  if (prior.empty()) {
    prior.assign(oracle.k(), 1.0);
  }
  LDPR_REQUIRE(static_cast<int>(prior.size()) == oracle.k(),
               "prior length must equal the oracle's domain size");
  std::vector<double> normalized = Normalize(prior);
  log_prior_.resize(normalized.size());
  for (std::size_t v = 0; v < normalized.size(); ++v) {
    log_prior_[v] = SafeLog(normalized[v]);
  }
}

double BayesAttacker::LogLikelihood(const fo::Report& report, int v) const {
  LDPR_REQUIRE(v >= 0 && v < oracle_.k(), "value out of range");
  switch (oracle_.protocol()) {
    case fo::Protocol::kGrr:
      return SafeLog(report.value == v ? oracle_.p() : oracle_.q());
    case fo::Protocol::kOlh: {
      const auto& olh = static_cast<const fo::Olh&>(oracle_);
      UniversalHash h(report.hash_seed, olh.g());
      const double q_prime = (1.0 - olh.p_prime()) / (olh.g() - 1);
      return SafeLog(h(v) == report.value ? olh.p_prime() : q_prime);
    }
    case fo::Protocol::kSs: {
      // Pr[Omega | v] = p / C(k-1, w-1) if v in Omega, else (1-p)/C(k-1, w).
      // The binomials are constant across v, so only membership matters.
      const bool member = std::binary_search(report.subset.begin(),
                                             report.subset.end(), v);
      const auto& ss = static_cast<const fo::Ss&>(oracle_);
      const double w = ss.omega();
      const double k = ss.k();
      // Restore the C(k-1, w-1) / C(k-1, w) = w / (k - w) ratio.
      return member ? SafeLog(ss.p() / w) : SafeLog((1.0 - ss.p()) / (k - w));
    }
    case fo::Protocol::kSue:
    case fo::Protocol::kOue: {
      // Bits are independent given the input; terms for bits != v are shared
      // by all candidates, so only bit v distinguishes them.
      LDPR_REQUIRE(static_cast<int>(report.bits.size()) == oracle_.k(),
                   "UE report width mismatch");
      const double p = oracle_.p();
      const double q = oracle_.q();
      return report.bits[v] ? SafeLog(p) - SafeLog(q)
                            : SafeLog(1.0 - p) - SafeLog(1.0 - q);
    }
  }
  LDPR_CHECK(false, "unhandled protocol enum value");
}

int BayesAttacker::Predict(const fo::Report& report, Rng& rng) const {
  double best = -1e300;
  std::vector<int> argmax;
  for (int v = 0; v < oracle_.k(); ++v) {
    const double score = log_prior_[v] + LogLikelihood(report, v);
    if (score > best + 1e-12) {
      best = score;
      argmax.assign(1, v);
    } else if (score > best - 1e-12) {
      argmax.push_back(v);
    }
  }
  LDPR_CHECK(!argmax.empty(), "no candidate scored");
  if (argmax.size() == 1) return argmax[0];
  return argmax[rng.UniformInt(argmax.size())];
}

// ---------------------------------------------------------------------------
// BayesAifAttacker
// ---------------------------------------------------------------------------

BayesAifAttacker::BayesAifAttacker(
    const multidim::FakeData& protocol,
    const std::vector<std::vector<double>>& estimated_marginals)
    : d_(protocol.d()),
      domain_sizes_(protocol.domain_sizes()),
      bits_(d_),
      sampled_(d_),
      fake_(d_) {
  LDPR_REQUIRE(static_cast<int>(estimated_marginals.size()) == d_,
               "need one estimated marginal per attribute");
  for (int j = 0; j < d_; ++j) {
    const int kj = domain_sizes_[j];
    const auto f = ProjectToSimplex(estimated_marginals[j]);
    const double p = protocol.p(j);
    const double q = protocol.q(j);
    bits_[j] = protocol.column(j).payload != multidim::FakePayload::kGrr;
    sampled_[j].resize(kj);
    fake_[j].resize(kj);
    for (int v = 0; v < kj; ++v) {
      const double w = protocol.FakeMass(j, v);
      if (bits_[j]) {
        sampled_[j][v] = f[v] * p + (1.0 - f[v]) * q;
        fake_[j][v] = w * p + (1.0 - w) * q;
      } else {
        sampled_[j][v] = SafeLog(f[v] * (p - q) + q);
        fake_[j][v] = SafeLog(w);
      }
    }
  }
}

double BayesAifAttacker::ScoreDelta(const multidim::MultidimReport& report,
                                    int j) const {
  const int kj = domain_sizes_[j];
  if (!bits_[j]) {
    const int y = report.values[j];
    LDPR_REQUIRE(y >= 0 && y < kj, "report value out of range");
    return sampled_[j][y] - fake_[j][y];
  }
  const auto& bits = report.bits[j];
  LDPR_REQUIRE(static_cast<int>(bits.size()) == kj,
               "report bit-vector length mismatch");
  double delta = 0.0;
  for (int v = 0; v < kj; ++v) {
    const double s = sampled_[j][v];
    const double g = fake_[j][v];
    delta += bits[v] ? SafeLog(s) - SafeLog(g)
                     : SafeLog(1.0 - s) - SafeLog(1.0 - g);
  }
  return delta;
}

int BayesAifAttacker::PredictSampledAttribute(
    const multidim::MultidimReport& report) const {
  for (int j = 0; j < d_; ++j) {
    LDPR_REQUIRE(static_cast<int>(bits_[j] ? report.bits.size()
                                           : report.values.size()) == d_,
                 "report width mismatch");
  }
  // Pr[y | t] factorizes; the fake contribution of every attribute cancels
  // except at t, so t_hat = argmax_t (sampled_t(y_t) - fake_t(y_t)).
  int best = 0;
  double best_score = -1e300;
  for (int j = 0; j < d_; ++j) {
    const double score = ScoreDelta(report, j);
    if (score > best_score) {
      best_score = score;
      best = j;
    }
  }
  return best;
}

std::vector<int> BayesAifAttacker::PredictBatch(
    const std::vector<multidim::MultidimReport>& reports) const {
  std::vector<int> out(reports.size());
  ParallelFor(0, static_cast<long long>(reports.size()),
              [&](long long i) { out[i] = PredictSampledAttribute(reports[i]); });
  return out;
}

}  // namespace ldpr::attack
