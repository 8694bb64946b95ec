#include "fo/ss.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/check.h"
#include "fo/bitslice.h"
#include "fo/wire.h"

namespace ldpr::fo {

Ss::Ss(int k, double epsilon) : FrequencyOracle(k, epsilon) {
  const double e = std::exp(epsilon);
  omega_ = std::clamp(static_cast<int>(std::lround(k / (e + 1.0))), 1, k - 1);
  const double w = omega_;
  const double denom = w * e + k - w;
  const double p = w * e / denom;
  const double q = (w * e * (w - 1.0) + (k - w) * w) / ((k - 1.0) * denom);
  SetProbabilities(p, q);
}

namespace {

// The one SS client draw: samples Omega for `value` into (*scratch)[0,
// omega), unsorted; the rest of `*scratch` (size k - 1) is index scratch.
// Every client path calls this.
void DrawMembers(const Ss& ss, int value, Rng& rng,
                 std::vector<int>* scratch) {
  const int k = ss.k();
  LDPR_REQUIRE(value >= 0 && value < k, "SS value out of range");
  const bool include_true = rng.Bernoulli(ss.p());
  // Sample the remaining slots from the k-1 other values, without
  // replacement; indices >= `value` in the reduced space map to index + 1.
  const int extra = include_true ? ss.omega() - 1 : ss.omega();
  rng.SampleWithoutReplacementInto(k - 1, extra, scratch);
  std::vector<int>& members = *scratch;
  for (int j = 0; j < extra; ++j) {
    const int o = members[j];
    members[j] = o >= value ? o + 1 : o;
  }
  if (include_true) members[extra] = value;  // extra < omega <= k - 1
}

// The adversary's pick: every member of Omega is equally likely a priori,
// so it guesses the member of uniform rank j in [0, omega).
std::ptrdiff_t GuessRank(int omega, Rng& rng) {
  return static_cast<std::ptrdiff_t>(rng.UniformInt(omega));
}

class SsAggregator : public Aggregator {
 public:
  explicit SsAggregator(const Ss& oracle)
      : Aggregator(oracle),
        width_(CeilLog2(oracle.k())),
        frame_bytes_(
            static_cast<std::size_t>((oracle.omega() * width_ + 7) / 8)),
        table_(oracle.omega(), width_) {}

  void AccumulateValue(int value, Rng& rng) override {
    // Omega's tallies do not depend on its order, so skip RandomizeInto's
    // sort.
    const Ss& ss = static_cast<const Ss&>(oracle_);
    DrawMembers(ss, value, rng, &scratch_);
    for (int i = 0; i < ss.omega(); ++i) ++counts_[scratch_[i]];
    ++n_;
  }

  void Accumulate(const Report& report) override {
    // Stage the subset as its SerializeReport image (width-bit fields packed
    // MSB-first, zero padding) and defer the tallies to the block kernel.
    // Same preconditions as Ss::AccumulateSupport; within a row fields need
    // not be sorted — the kernel tallies them positionally, like the scalar
    // support walk.
    const Ss& ss = static_cast<const Ss&>(oracle_);
    const int k = ss.k();
    const int omega = ss.omega();
    LDPR_REQUIRE(static_cast<int>(report.subset.size()) == omega,
                 "SS report subset size " << report.subset.size()
                                          << " != omega " << omega);
    std::uint8_t* row = StageRowSlot(bitslice::RowStride(frame_bytes_));
    std::uint64_t acc = 0;
    int acc_bits = 0;  // stays <= 7 + width, so acc never overflows
    std::size_t out = 0;
    for (int i = 0; i < omega; ++i) {
      const int v = report.subset[i];
      LDPR_REQUIRE(v >= 0 && v < k, "SS subset value out of range");
      acc = (acc << width_) | static_cast<std::uint64_t>(v);
      acc_bits += width_;
      while (acc_bits >= 8) {
        acc_bits -= 8;
        row[out++] = static_cast<std::uint8_t>((acc >> acc_bits) & 0xFF);
      }
    }
    if (acc_bits > 0) {
      row[out] = static_cast<std::uint8_t>((acc << (8 - acc_bits)) & 0xFF);
    }
    CommitStagedRow();
  }

  void AccumulateWireBlock(const std::uint8_t* frames, std::size_t stride,
                           int count) override {
    // omega word-extracted field tallies per frame — no per-bit cursor, no
    // scratch Report, no monotonicity re-checks (validation did those), and
    // no per-field cursor arithmetic either: every row shares the same
    // field -> (load byte, shift) map, precomputed once (PackedFieldTable),
    // so a field is exactly one big-endian load, shift, mask and tally. The
    // 4-wide unroll keeps four independent loads in flight; within a row
    // the tallied values are distinct (validated subsets) so the increments
    // never collide.
    const int omega = static_cast<const Ss&>(oracle_).omega();
    const std::uint64_t mask = table_.mask;
    const std::uint32_t* off = table_.byte.data();
    const std::uint8_t* sh = table_.shift.data();
    long long* counts = counts_.data();
    const std::uint8_t* row = frames;
    for (int r = 0; r < count; ++r, row += stride) {
      int i = 0;
      for (; i + 4 <= omega; i += 4) {
        const std::uint64_t v0 = (bitslice::Load64Be(row + off[i]) >> sh[i]) & mask;
        const std::uint64_t v1 =
            (bitslice::Load64Be(row + off[i + 1]) >> sh[i + 1]) & mask;
        const std::uint64_t v2 =
            (bitslice::Load64Be(row + off[i + 2]) >> sh[i + 2]) & mask;
        const std::uint64_t v3 =
            (bitslice::Load64Be(row + off[i + 3]) >> sh[i + 3]) & mask;
        ++counts[v0];
        ++counts[v1];
        ++counts[v2];
        ++counts[v3];
      }
      for (; i < omega; ++i) {
        ++counts[(bitslice::Load64Be(row + off[i]) >> sh[i]) & mask];
      }
    }
    n_ += count;
  }

 private:
  const int width_;
  const std::size_t frame_bytes_;
  const bitslice::PackedFieldTable table_;
  std::vector<int> scratch_;
};

}  // namespace

std::unique_ptr<Aggregator> Ss::MakeAggregator() const {
  return std::make_unique<SsAggregator>(*this);
}

void Ss::RandomizeInto(int value, Rng& rng, Report* out) const {
  thread_local std::vector<int> scratch;
  DrawMembers(*this, value, rng, &scratch);
  out->subset.assign(scratch.begin(), scratch.begin() + omega_);
  std::sort(out->subset.begin(), out->subset.end());
}

void Ss::AccumulateSupport(const Report& report,
                           std::vector<long long>* counts) const {
  LDPR_REQUIRE(static_cast<int>(report.subset.size()) == omega_,
               "SS report subset size " << report.subset.size()
                                        << " != omega " << omega_);
  for (int v : report.subset) {
    LDPR_REQUIRE(v >= 0 && v < k(), "SS subset value out of range");
    ++(*counts)[v];
  }
}

int Ss::RandomizeAndPredict(int value, Rng& rng) const {
  // The guess is the member of rank j, so nth_element stands in for
  // RandomizeInto's full sort.
  thread_local std::vector<int> scratch;
  DrawMembers(*this, value, rng, &scratch);
  const std::ptrdiff_t j = GuessRank(omega_, rng);
  std::nth_element(scratch.begin(), scratch.begin() + j,
                   scratch.begin() + omega_);
  return scratch[j];
}

int Ss::AttackPredict(const Report& report, Rng& rng) const {
  // Reports hold Omega in ascending order, so rank j is position j.
  LDPR_REQUIRE(static_cast<int>(report.subset.size()) == omega_,
               "SS report subset size " << report.subset.size()
                                        << " != omega " << omega_);
  return report.subset[GuessRank(omega_, rng)];
}

}  // namespace ldpr::fo
