#include "fo/unary_encoding.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "fo/bitslice.h"

namespace ldpr::fo {

UnaryEncoding::UnaryEncoding(int k, double epsilon, double p, double q)
    : FrequencyOracle(k, epsilon) {
  SetProbabilities(p, q);
}

std::vector<std::uint8_t> UnaryEncoding::OneHot(int value, int k) {
  LDPR_REQUIRE(value >= 0 && value < k,
               "OneHot value " << value << " outside [0, " << k << ")");
  std::vector<std::uint8_t> bits(k, 0);
  bits[value] = 1;
  return bits;
}

std::vector<std::uint8_t> UnaryEncoding::PerturbBits(
    const std::vector<std::uint8_t>& input, double p, double q, Rng& rng) {
  std::vector<std::uint8_t> out(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    out[i] = rng.Bernoulli(input[i] ? p : q) ? 1 : 0;
  }
  return out;
}

Report UnaryEncoding::Randomize(int value, Rng& rng) const {
  Report r;
  r.bits = PerturbBits(OneHot(value, k()), p(), q(), rng);
  return r;
}

void UnaryEncoding::AccumulateSupport(const Report& report,
                                      std::vector<long long>* counts) const {
  LDPR_REQUIRE(static_cast<int>(report.bits.size()) == k(),
               "UE report has " << report.bits.size() << " bits, expected "
                                << k());
  for (int v = 0; v < k(); ++v) {
    if (report.bits[v]) ++(*counts)[v];
  }
}

namespace {

class UeAggregator : public Aggregator {
 public:
  using Aggregator::Aggregator;

  void Accumulate(const Report& report) override {
    // Stage the bit vector as its wire image (k MSB-first bits, zero
    // padding) and defer the column sums to the SWAR block kernel below.
    // Any nonzero byte counts as a set bit, exactly like AccumulateSupport.
    // Packing is SWAR too: 8 bit-bytes collapse to one wire byte via an
    // OR-fold to 0/1 lanes and a carry-free gather multiply (every partial
    // product lands on a distinct bit).
    const int k = oracle_.k();
    LDPR_REQUIRE(static_cast<int>(report.bits.size()) == k,
                 "UE report has " << report.bits.size() << " bits, expected "
                                  << k);
    std::uint8_t* row = StageRowSlot(
        bitslice::RowStride(static_cast<std::size_t>((k + 7) / 8)));
    const std::uint8_t* bits = report.bits.data();
    int byte = 0;
    for (; (byte + 1) * 8 <= k; ++byte) {
      std::uint64_t x = bitslice::Load64(bits + byte * 8);
      x = (x | (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
      x = (x | (x >> 2)) & 0x0303030303030303ULL;
      x = (x | (x >> 1)) & 0x0101010101010101ULL;
      // byte-lane j (bits[8*byte + j]) -> wire bit 7 - j of this byte
      row[byte] = static_cast<std::uint8_t>((x * 0x8040201008040201ULL) >> 56);
    }
    if (byte * 8 < k) {
      unsigned tail = 0;
      for (int b = 0; byte * 8 + b < k; ++b) {
        tail |= (bits[byte * 8 + b] != 0 ? 1u : 0u) << (7 - b);
      }
      row[byte] = static_cast<std::uint8_t>(tail);
    }
    CommitStagedRow();
  }

  void AccumulateValue(int value, Rng& rng) override {
    const int k = oracle_.k();
    LDPR_REQUIRE(value >= 0 && value < k,
                 "OneHot value " << value << " outside [0, " << k << ")");
    // Same ascending per-bit draws as OneHot + PerturbBits, summed into the
    // columns directly.
    const double p = oracle_.p();
    const double q = oracle_.q();
    for (int i = 0; i < k; ++i) {
      if (rng.Bernoulli(i == value ? p : q)) ++counts_[i];
    }
    ++n_;
  }

  void AccumulateWireBlock(const std::uint8_t* frames, std::size_t stride,
                           int count) override {
    // Bitsliced column sums. The staged rows are one UE bit vector each
    // (k MSB-first bits, zero-padded to a whole number of 64-bit words), so
    // each 64-bit word column is summed vertically with eight SWAR byte
    // counters: acc[j] byte lane b counts the rows whose word bit 8b + j is
    // set, i.e. wire column 64*word + 8*b + (7 - j). One load plus 24 ALU
    // ops covers 64 columns of a report — versus 64 branchy scratch-vector
    // increments on the scalar path. Byte lanes saturate at 255 rows, hence
    // the kBlockRows sub-blocking.
    const int k = oracle_.k();
    const int words = (k + 63) / 64;
    constexpr std::uint64_t kLanes = 0x0101010101010101ULL;
    for (int done = 0; done < count; done += bitslice::kBlockRows) {
      const int rows = std::min(count - done, bitslice::kBlockRows);
      for (int w = 0; w < words; ++w) {
        const std::uint8_t* p =
            frames + static_cast<std::size_t>(done) * stride +
            static_cast<std::size_t>(w) * 8;
        std::uint64_t acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        for (int r = 0; r < rows; ++r, p += stride) {
          const std::uint64_t x = bitslice::Load64(p);
          acc[0] += x & kLanes;
          acc[1] += (x >> 1) & kLanes;
          acc[2] += (x >> 2) & kLanes;
          acc[3] += (x >> 3) & kLanes;
          acc[4] += (x >> 4) & kLanes;
          acc[5] += (x >> 5) & kLanes;
          acc[6] += (x >> 6) & kLanes;
          acc[7] += (x >> 7) & kLanes;
        }
        const int base = 64 * w;
        for (int b = 0; b < 8 && base + 8 * b < k; ++b) {
          for (int j = 7; j >= 0; --j) {
            const int v = base + 8 * b + (7 - j);
            if (v >= k) break;
            counts_[v] += static_cast<long long>((acc[j] >> (8 * b)) & 0xFF);
          }
        }
      }
    }
    n_ += count;
  }
};

}  // namespace

std::unique_ptr<Aggregator> UnaryEncoding::MakeAggregator() const {
  return std::make_unique<UeAggregator>(*this);
}

void UnaryEncoding::BatchRandomize(const int* values, std::size_t count,
                                   Rng& rng, const ReportSink& sink) const {
  Report r;
  r.bits.resize(k());
  for (std::size_t i = 0; i < count; ++i) {
    const int value = values[i];
    LDPR_REQUIRE(value >= 0 && value < k(),
                 "OneHot value " << value << " outside [0, " << k() << ")");
    for (int b = 0; b < k(); ++b) {
      r.bits[b] = rng.Bernoulli(b == value ? p() : q()) ? 1 : 0;
    }
    sink(r);
  }
}

int UnaryEncoding::AttackPredict(const Report& report, Rng& rng) const {
  std::vector<int> set_bits;
  for (int v = 0; v < k(); ++v) {
    if (report.bits[v]) set_bits.push_back(v);
  }
  if (set_bits.empty()) return static_cast<int>(rng.UniformInt(k()));
  if (set_bits.size() == 1) return set_bits[0];
  return set_bits[rng.UniformInt(set_bits.size())];
}

int UnaryEncoding::RandomizeAndPredict(int value, Rng& rng) const {
  const int k = this->k();
  LDPR_REQUIRE(value >= 0 && value < k,
               "OneHot value " << value << " outside [0, " << k << ")");
  // Same ascending per-bit draws as OneHot + PerturbBits, then
  // AttackPredict's choice among the set bits, with no bit vector.
  thread_local std::vector<int> set_bits;
  set_bits.clear();
  const double p = this->p();
  const double q = this->q();
  for (int i = 0; i < k; ++i) {
    if (rng.Bernoulli(i == value ? p : q)) set_bits.push_back(i);
  }
  if (set_bits.empty()) return static_cast<int>(rng.UniformInt(k));
  if (set_bits.size() == 1) return set_bits[0];
  return set_bits[rng.UniformInt(set_bits.size())];
}

double Sue::PForEpsilon(double epsilon) {
  const double e2 = std::exp(epsilon / 2.0);
  return e2 / (e2 + 1.0);
}

double Sue::QForEpsilon(double epsilon) {
  return 1.0 / (std::exp(epsilon / 2.0) + 1.0);
}

Sue::Sue(int k, double epsilon)
    : UnaryEncoding(k, epsilon, PForEpsilon(epsilon), QForEpsilon(epsilon)) {}

double Oue::PForEpsilon(double /*epsilon*/) { return 0.5; }

double Oue::QForEpsilon(double epsilon) {
  return 1.0 / (std::exp(epsilon) + 1.0);
}

Oue::Oue(int k, double epsilon)
    : UnaryEncoding(k, epsilon, PForEpsilon(epsilon), QForEpsilon(epsilon)) {}

}  // namespace ldpr::fo
