#ifndef LDPR_MULTIDIM_FAKE_DATA_H_
#define LDPR_MULTIDIM_FAKE_DATA_H_

#include <cstdint>
#include <vector>

#include "core/rng.h"
#include "core/sampling.h"

namespace ldpr::multidim {

/// One user's sanitized output tuple y = [y_1, ..., y_d]. Exactly one
/// attribute holds an eps'-LDP report of the true value; all others hold
/// fake data indistinguishable (by design) from it.
///
/// `sampled_attribute` records the ground truth for attack evaluation only;
/// an honest aggregator never sees it.
struct MultidimReport {
  int sampled_attribute = -1;
  /// GRR-based variants: one categorical value per attribute.
  std::vector<int> values;
  /// UE-based variants: one sanitized bit vector per attribute.
  std::vector<std::vector<std::uint8_t>> bits;
};

/// The randomizer an attribute's payload goes through, at the amplified
/// budget eps'.
enum class FakePayload { kGrr, kSue, kOue };

/// What a non-sampled attribute's fake input is drawn from.
enum class FakeSource {
  kUniform,  ///< a uniform value (RS+FD)
  kZero,     ///< the all-zero bit vector (RS+FD UE-z)
  kPrior,    ///< a value from the server's prior f~ (RS+RFD, Algorithm 1)
};

/// The client and server shared by the sampling-plus-fake-data solutions
/// (RS+FD, RS+RFD and their adaptive variants). Each attribute is a column
/// that pairs a payload randomizer with a fake-data source:
///
///   client  sample one attribute j uniformly, sanitize v_j with column j's
///           randomizer at eps' = ln(d(e^eps - 1) + 1), and give every
///           other column a fake input from its source (GRR fakes are sent
///           as drawn; UE fakes are one-hot or zero vectors, perturbed);
///   server  count per-value support, then apply column j's unbiased
///           estimator: RS+FD's GRR / UE-z / UE-r forms (Section 2.3.2) for
///           uniform and zero fakes, Eq. (6) / Eq. (7) for prior fakes.
///
/// The solution classes derive from this and only choose the columns.
class FakeData {
 public:
  struct Column {
    FakePayload payload;
    FakeSource source;
    double p;  ///< randomizer probabilities at eps' (GRR's depend on k_j)
    double q;
  };

  /// Client side (one user).
  MultidimReport RandomizeUser(const std::vector<int>& record, Rng& rng) const;

  /// Client side with a caller-chosen sampled attribute. Used by the
  /// multi-survey profiling attack, which controls the without-replacement
  /// sampling across surveys (Section 4.4).
  MultidimReport RandomizeUserWithAttribute(const std::vector<int>& record,
                                            int sampled_attribute,
                                            Rng& rng) const;

  /// Server side: unbiased per-attribute frequency estimates from n reports.
  std::vector<std::vector<double>> Estimate(
      const std::vector<MultidimReport>& reports) const;

  /// The per-column estimators applied to pre-accumulated support counts
  /// over n reports — the streaming half of Estimate.
  std::vector<std::vector<double>> EstimateFromSupportCounts(
      const std::vector<std::vector<long long>>& counts, long long n) const;

  /// Raw support counts per attribute; rejects reports of the wrong shape.
  std::vector<std::vector<long long>> SupportCounts(
      const std::vector<MultidimReport>& reports) const;

  /// Streaming shard state: per-attribute support counts accumulated
  /// directly from fused client draws. AccumulateRecord draws from `rng`
  /// exactly like RandomizeUser (bit-identical stream) without materializing
  /// MultidimReports. Used by sim::RunMultidim.
  class StreamAggregator {
   public:
    explicit StreamAggregator(const FakeData& solution);

    /// Fused client + server for one user (uniform attribute sampling).
    void AccumulateRecord(const std::vector<int>& record, Rng& rng);
    void Merge(const StreamAggregator& other);
    std::vector<std::vector<double>> Estimate() const;
    long long n() const { return n_; }
    const std::vector<std::vector<long long>>& counts() const {
      return counts_;
    }

   private:
    const FakeData& solution_;
    std::vector<std::vector<long long>> counts_;
    long long n_ = 0;
  };

  int d() const { return static_cast<int>(domain_sizes_.size()); }
  const std::vector<int>& domain_sizes() const { return domain_sizes_; }
  double epsilon() const { return epsilon_; }
  double amplified_epsilon() const { return amplified_epsilon_; }
  const Column& column(int attribute) const;

  /// Randomizer probabilities at the amplified budget for attribute j.
  double p(int attribute) const { return column(attribute).p; }
  double q(int attribute) const { return column(attribute).q; }

  /// Probability that a fake input of attribute j is value v: 1/k_j for
  /// uniform fakes, 0 for zero vectors, f~_j(v) for prior fakes.
  double FakeMass(int attribute, int value) const;

 protected:
  /// How a report lays out its payloads. kOnePayload: only `values` (all
  /// columns GRR) or only `bits` (all UE). kPerColumn (the adaptive
  /// variants): both have d entries, with values[j] = -1 for UE columns and
  /// an empty bits[j] for GRR columns.
  enum class ReportShape { kOnePayload, kPerColumn };

  /// Checks d >= 2, k_j >= 2 and eps > 0. `priors` is empty or holds one
  /// non-negative, non-zero distribution over [0, k_j) per attribute,
  /// normalized into priors_. The derived constructor then adds the columns.
  FakeData(std::vector<int> domain_sizes, double epsilon,
           std::vector<std::vector<double>> priors, ReportShape shape);

  /// Sets up the next column; called once per attribute, in order. kPrior
  /// columns need priors; kZero needs a UE payload.
  void AddColumn(FakePayload payload, FakeSource source);

  std::vector<std::vector<double>> priors_;  ///< normalized f~; may be empty

 private:
  /// Runs one user's client draws, handing each GRR value to
  /// `value(j, y)` and each UE bit to `bit(j, v, b)`.
  template <typename ValueFn, typename BitFn>
  void Draw(const std::vector<int>& record, int sampled, Rng& rng,
            ValueFn&& value, BitFn&& bit) const;

  std::vector<int> domain_sizes_;
  double epsilon_;
  double amplified_epsilon_;
  bool emits_values_;  ///< reports carry `values` / `bits`
  bool emits_bits_;
  std::vector<Column> columns_;
  /// One per attribute when priors are given (every column is then kPrior).
  std::vector<CategoricalSampler> prior_samplers_;
};

}  // namespace ldpr::multidim

#endif  // LDPR_MULTIDIM_FAKE_DATA_H_
