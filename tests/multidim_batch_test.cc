// Exactness of the multidim StreamAggregators: for every solution
// (SPL/SMP/RS+FD/RS+RFD) and every variant, the fused AccumulateRecord path
// must be bit-identical to the scalar RandomizeUser + Estimate path for a
// fixed seed, and merging shard aggregators must equal one aggregator over
// all users. The fake-data solutions' client streams and estimators are
// additionally pinned to fixed digests (FakeDataPinTest), so the two paths
// cannot drift together unnoticed.

#include <cstdint>
#include <cstring>
#include <utility>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/sampling.h"
#include "multidim/adaptive.h"
#include "multidim/rsfd.h"
#include "multidim/rsrfd.h"
#include "multidim/rsrfd_adaptive.h"
#include "multidim/smp.h"
#include "multidim/spl.h"

namespace ldpr::multidim {
namespace {

constexpr std::uint64_t kSeed = 0x5EED;
constexpr int kUsers = 400;
const std::vector<int> kDomains = {7, 3, 5, 9};

std::vector<std::vector<int>> TestRecords() {
  std::vector<std::vector<int>> records(kUsers);
  for (int i = 0; i < kUsers; ++i) {
    records[i].resize(kDomains.size());
    for (std::size_t j = 0; j < kDomains.size(); ++j) {
      records[i][j] = static_cast<int>((i * (j + 3) + i / 2) % kDomains[j]);
    }
  }
  return records;
}

/// Accumulates all records through a freshly-built aggregator of `solution`
/// and checks the result is exactly the scalar estimate built by `scalar`.
template <typename Solution, typename ScalarFn>
void CheckBitIdentical(const Solution& solution, ScalarFn scalar) {
  const auto records = TestRecords();

  Rng scalar_rng(kSeed);
  const std::vector<std::vector<double>> expected =
      scalar(solution, records, scalar_rng);

  Rng fused_rng(kSeed);
  typename Solution::StreamAggregator agg(solution);
  for (const auto& record : records) agg.AccumulateRecord(record, fused_rng);
  EXPECT_EQ(agg.Estimate(), expected);
  EXPECT_EQ(agg.n(), kUsers);
  // Both paths must consume the generator identically.
  EXPECT_EQ(scalar_rng(), fused_rng());

  // Merge of 3 uneven shards over the same stream equals the whole.
  Rng shard_rng(kSeed);
  typename Solution::StreamAggregator merged(solution);
  const std::size_t cuts[] = {0, 123, 130, records.size()};
  for (int s = 0; s + 1 < 4; ++s) {
    typename Solution::StreamAggregator part(solution);
    for (std::size_t u = cuts[s]; u < cuts[s + 1]; ++u) {
      part.AccumulateRecord(records[u], shard_rng);
    }
    merged.Merge(part);
  }
  EXPECT_EQ(merged.Estimate(), expected);
}

TEST(SplBatchTest, StreamAggregatorMatchesScalarBitwise) {
  for (fo::Protocol protocol : fo::AllProtocols()) {
    SCOPED_TRACE(fo::ProtocolName(protocol));
    Spl spl(protocol, kDomains, 2.0);
    CheckBitIdentical(spl, [](const Spl& s, const auto& records, Rng& rng) {
      std::vector<std::vector<fo::Report>> reports;
      reports.reserve(records.size());
      for (const auto& record : records) {
        reports.push_back(s.RandomizeUser(record, rng));
      }
      return s.Estimate(reports);
    });
  }
}

TEST(SmpBatchTest, StreamAggregatorMatchesScalarBitwise) {
  for (fo::Protocol protocol : fo::AllProtocols()) {
    SCOPED_TRACE(fo::ProtocolName(protocol));
    Smp smp(protocol, kDomains, 1.0);
    CheckBitIdentical(smp, [](const Smp& s, const auto& records, Rng& rng) {
      std::vector<SmpReport> reports;
      reports.reserve(records.size());
      for (const auto& record : records) {
        reports.push_back(s.RandomizeUser(record, rng));
      }
      return s.Estimate(reports);
    });
  }
}

TEST(RsFdBatchTest, StreamAggregatorMatchesScalarBitwise) {
  for (RsFdVariant variant :
       {RsFdVariant::kGrr, RsFdVariant::kSueZ, RsFdVariant::kSueR,
        RsFdVariant::kOueZ, RsFdVariant::kOueR}) {
    SCOPED_TRACE(RsFdVariantName(variant));
    RsFd rsfd(variant, kDomains, 1.0);
    CheckBitIdentical(rsfd, [](const RsFd& s, const auto& records, Rng& rng) {
      std::vector<MultidimReport> reports;
      reports.reserve(records.size());
      for (const auto& record : records) {
        reports.push_back(s.RandomizeUser(record, rng));
      }
      return s.Estimate(reports);
    });
  }
}

TEST(RsRfdBatchTest, StreamAggregatorMatchesScalarBitwise) {
  std::vector<std::vector<double>> priors;
  for (int kj : kDomains) priors.push_back(ZipfDistribution(kj, 1.2));
  for (RsRfdVariant variant :
       {RsRfdVariant::kGrr, RsRfdVariant::kSueR, RsRfdVariant::kOueR}) {
    SCOPED_TRACE(RsRfdVariantName(variant));
    RsRfd rsrfd(variant, kDomains, 1.0, priors);
    CheckBitIdentical(rsrfd,
                      [](const RsRfd& s, const auto& records, Rng& rng) {
                        std::vector<MultidimReport> reports;
                        reports.reserve(records.size());
                        for (const auto& record : records) {
                          reports.push_back(s.RandomizeUser(record, rng));
                        }
                        return s.Estimate(reports);
                      });
  }
}

TEST(RsFdBatchTest, EstimateFromSupportCountsMatchesEstimate) {
  RsFd rsfd(RsFdVariant::kOueR, kDomains, 1.0);
  Rng rng(3);
  std::vector<MultidimReport> reports;
  for (const auto& record : TestRecords()) {
    reports.push_back(rsfd.RandomizeUser(record, rng));
  }
  EXPECT_EQ(rsfd.Estimate(reports),
            rsfd.EstimateFromSupportCounts(
                rsfd.SupportCounts(reports),
                static_cast<long long>(reports.size())));
}

// ---------------------------------------------------------------------------
// Fixed-seed pins of the RS+FD family: every report field of a RandomizeUser
// stream (including the shapes of `values` and `bits`), the generator state
// after it, Estimate on that stream and EstimateFromSupportCounts on fixed
// counts, each folded into a 64-bit FNV-1a digest. The pinned digests are
// exact; any change to a draw, a report shape or an estimator expression
// changes them.

class Digest {
 public:
  void Add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h_ = (h_ ^ ((word >> (8 * b)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  void AddDouble(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    Add(bits);
  }
  void AddEstimates(const std::vector<std::vector<double>>& est) {
    Add(est.size());
    for (const auto& row : est) {
      Add(row.size());
      for (double x : row) AddDouble(x);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

struct FakeDataPins {
  std::uint64_t stream = 0;     ///< reports + generator state after them
  std::uint64_t estimate = 0;   ///< Estimate over the stream
  std::uint64_t counts = 0;     ///< EstimateFromSupportCounts on fixed counts
};

constexpr int kPinUsers = 64;

template <typename Solution>
FakeDataPins PinStream(const Solution& solution) {
  const auto records = TestRecords();
  Rng rng(kSeed);
  std::vector<MultidimReport> reports;
  Digest stream;
  for (int i = 0; i < kPinUsers; ++i) {
    std::vector<int> record(solution.d());
    for (int j = 0; j < solution.d(); ++j) {
      record[j] = records[i][j % records[i].size()] %
                  solution.domain_sizes()[j];
    }
    reports.push_back(solution.RandomizeUser(record, rng));
    const MultidimReport& r = reports.back();
    stream.Add(static_cast<std::uint64_t>(r.sampled_attribute));
    stream.Add(r.values.size());
    for (int v : r.values) stream.Add(static_cast<std::uint64_t>(v));
    stream.Add(r.bits.size());
    for (const auto& column : r.bits) {
      stream.Add(column.size());
      for (std::uint8_t bit : column) stream.Add(bit);
    }
  }
  stream.Add(rng());
  Digest estimate;
  estimate.AddEstimates(solution.Estimate(reports));
  return {stream.value(), estimate.value(), 0};
}

template <typename Solution>
std::uint64_t PinCounts(const Solution& solution) {
  std::vector<std::vector<long long>> counts(solution.d());
  for (int j = 0; j < solution.d(); ++j) {
    for (int v = 0; v < solution.domain_sizes()[j]; ++v) {
      counts[j].push_back(37 + 11 * v + 5 * j);
    }
  }
  Digest digest;
  digest.AddEstimates(solution.EstimateFromSupportCounts(counts, 1000));
  return digest.value();
}

void ExpectPins(const FakeDataPins& actual, const FakeDataPins& expected) {
  EXPECT_EQ(actual.stream, expected.stream);
  EXPECT_EQ(actual.estimate, expected.estimate);
  EXPECT_EQ(actual.counts, expected.counts);
}

std::vector<std::vector<double>> ZipfPriors(const std::vector<int>& k) {
  std::vector<std::vector<double>> priors;
  for (int kj : k) priors.push_back(ZipfDistribution(kj, 1.2));
  return priors;
}

TEST(FakeDataPinTest, RsFdVariants) {
  const std::pair<RsFdVariant, FakeDataPins> cases[] = {
      {RsFdVariant::kGrr,
       {12255911409909565098ULL, 17968558027923447418ULL,
        395045674829827311ULL}},
      {RsFdVariant::kSueZ,
       {2527793366882640627ULL, 7876202380969108533ULL,
        6457609332119740929ULL}},
      {RsFdVariant::kSueR,
       {17163606391240391863ULL, 18270458637672407957ULL,
        4735468416437565586ULL}},
      {RsFdVariant::kOueZ,
       {17805878039832230451ULL, 11916670792124998161ULL,
        12033108149064334075ULL}},
      {RsFdVariant::kOueR,
       {1344798113672252311ULL, 2366323690607826801ULL,
        17319723379270104130ULL}},
  };
  for (const auto& [variant, expected] : cases) {
    SCOPED_TRACE(RsFdVariantName(variant));
    RsFd rsfd(variant, kDomains, 1.0);
    FakeDataPins actual = PinStream(rsfd);
    actual.counts = PinCounts(rsfd);
    ExpectPins(actual, expected);
  }
}

TEST(FakeDataPinTest, RsRfdVariants) {
  const std::pair<RsRfdVariant, FakeDataPins> cases[] = {
      {RsRfdVariant::kGrr,
       {14389990182580016507ULL, 14576409046704602118ULL,
        10230146744275832440ULL}},
      {RsRfdVariant::kSueR,
       {8558784086799839152ULL, 3125693123190239071ULL,
        11596835940035352815ULL}},
      {RsRfdVariant::kOueR,
       {880242664168485897ULL, 9028945264436028800ULL,
        7730104980147761268ULL}},
  };
  for (const auto& [variant, expected] : cases) {
    SCOPED_TRACE(RsRfdVariantName(variant));
    RsRfd rsrfd(variant, kDomains, 1.0, ZipfPriors(kDomains));
    FakeDataPins actual = PinStream(rsrfd);
    actual.counts = PinCounts(rsrfd);
    ExpectPins(actual, expected);
  }
}

TEST(FakeDataPinTest, RsFdAdaptiveMixesGrrAndOueZColumns) {
  const std::vector<int> domains = {2, 60, 4, 200};
  RsFdAdaptive adp(domains, 1.0);
  const std::vector<RsFdVariant> choices = {
      RsFdVariant::kGrr, RsFdVariant::kOueZ, RsFdVariant::kGrr,
      RsFdVariant::kOueZ};
  for (int j = 0; j < adp.d(); ++j) EXPECT_EQ(adp.choice(j), choices[j]);
  FakeDataPins actual = PinStream(adp);
  actual.counts = PinCounts(adp);
  ExpectPins(actual, {7865588568461291043ULL, 16601391188181528487ULL,
                      632891546767980228ULL});
}

TEST(FakeDataPinTest, RsRfdAdaptiveMixesGrrAndOueRColumns) {
  const std::vector<int> domains = {2, 60, 4, 200};
  RsRfdAdaptive adp(domains, 1.0, ZipfPriors(domains));
  const std::vector<RsRfdVariant> choices = {
      RsRfdVariant::kGrr, RsRfdVariant::kOueR, RsRfdVariant::kGrr,
      RsRfdVariant::kOueR};
  for (int j = 0; j < adp.d(); ++j) EXPECT_EQ(adp.choice(j), choices[j]);
  // RS+RFD[ADP]'s estimator is pinned through Estimate alone.
  ExpectPins(PinStream(adp),
             {4901337330160411193ULL, 10222034525147579031ULL, 0});
}

}  // namespace
}  // namespace ldpr::multidim
