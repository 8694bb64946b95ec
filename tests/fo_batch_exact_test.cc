// Exactness of the batched collection pipeline (satellite 1 of the batched
// randomize/aggregate issue): for every protocol, the three batched paths —
// BatchRandomize into an Aggregator sink, fused Aggregator::AccumulateValue,
// and EstimateFrequencies (which now runs on the aggregator) — must be
// bit-identical to the scalar Randomize + AccumulateSupport loop for a fixed
// seed, including the RNG stream they leave behind; and merging K shard
// aggregators must equal one aggregator over the concatenated input. Every
// check runs over a domain sweep that crosses the UE 64-bit word boundary
// and reaches past the OLH/SS scratch's first growth.

#include <gtest/gtest.h>

#include <string>

#include "core/rng.h"
#include "fo/factory.h"

namespace ldpr::fo {
namespace {

constexpr std::uint64_t kSeed = 0xBA7C4ED5EEDULL;
constexpr int kDomains[] = {2, 23, 64, 65, 300};
constexpr double kEpsilon = 1.2;
constexpr int kUsers = 600;

std::vector<int> TestValues(int n, int k) {
  // Deterministic skewed mix covering the whole domain.
  std::vector<int> values(n);
  for (int i = 0; i < n; ++i) values[i] = (i * i + i / 3) % k;
  return values;
}

class BatchExactTest : public ::testing::TestWithParam<Protocol> {};

// Scalar reference: the historical per-user loop.
std::vector<long long> ScalarCounts(const FrequencyOracle& oracle,
                                    const std::vector<int>& values, Rng& rng) {
  std::vector<long long> counts(oracle.k(), 0);
  for (int v : values) {
    Report r = oracle.Randomize(v, rng);
    oracle.AccumulateSupport(r, &counts);
  }
  return counts;
}

TEST_P(BatchExactTest, BatchRandomizeSinkMatchesScalarBitwise) {
  for (const int k : kDomains) {
    SCOPED_TRACE("k=" + std::to_string(k));
    auto oracle = MakeOracle(GetParam(), k, kEpsilon);
    const std::vector<int> values = TestValues(kUsers, k);

    Rng scalar_rng(kSeed);
    const std::vector<long long> expected =
        ScalarCounts(*oracle, values, scalar_rng);

    Rng batch_rng(kSeed);
    auto agg = oracle->MakeAggregator();
    oracle->BatchRandomize(values, batch_rng,
                           [&](const Report& r) { agg->Accumulate(r); });

    EXPECT_EQ(agg->counts(), expected);
    EXPECT_EQ(agg->n(), kUsers);
    // Both paths must also have consumed the generator identically.
    EXPECT_EQ(scalar_rng(), batch_rng());
  }
}

TEST_P(BatchExactTest, FusedAccumulateValueMatchesScalarBitwise) {
  for (const int k : kDomains) {
    SCOPED_TRACE("k=" + std::to_string(k));
    auto oracle = MakeOracle(GetParam(), k, kEpsilon);
    const std::vector<int> values = TestValues(kUsers, k);

    Rng scalar_rng(kSeed);
    const std::vector<long long> expected =
        ScalarCounts(*oracle, values, scalar_rng);

    Rng fused_rng(kSeed);
    auto agg = oracle->MakeAggregator();
    agg->AccumulateValues(values, fused_rng);

    EXPECT_EQ(agg->counts(), expected);
    EXPECT_EQ(scalar_rng(), fused_rng());

    // Identical counts imply identical (not just close) estimates.
    Rng est_rng(kSeed);
    const std::vector<double> est =
        oracle->EstimateFrequencies(values, est_rng);
    const std::vector<double> expected_est =
        oracle->EstimateFromCounts(expected, kUsers);
    EXPECT_EQ(est, expected_est);
  }
}

TEST_P(BatchExactTest, MergeOfShardsEqualsOneAggregator) {
  for (const int k : kDomains) {
    SCOPED_TRACE("k=" + std::to_string(k));
    auto oracle = MakeOracle(GetParam(), k, kEpsilon);
    const std::vector<int> values = TestValues(kUsers, k);

    Rng whole_rng(kSeed);
    auto whole = oracle->MakeAggregator();
    whole->AccumulateValues(values, whole_rng);

    // Same stream, split across K = 4 uneven shards (one of them empty).
    Rng shard_rng(kSeed);
    const std::size_t cuts[] = {0, 117, 117, 400, values.size()};
    auto merged = oracle->MakeAggregator();
    for (int s = 0; s + 1 < 5; ++s) {
      auto part = oracle->MakeAggregator();
      part->AccumulateValues(values.data() + cuts[s], cuts[s + 1] - cuts[s],
                             shard_rng);
      merged->Merge(*part);
    }

    EXPECT_EQ(merged->counts(), whole->counts());
    EXPECT_EQ(merged->n(), whole->n());
    EXPECT_EQ(merged->Estimate(), whole->Estimate());
  }
}

TEST_P(BatchExactTest, ReusedSinkReportIsValidPerCall) {
  // The sink's Report is scratch memory: every call must carry a
  // well-formed report for this protocol (AccumulateSupport validates).
  for (const int k : kDomains) {
    SCOPED_TRACE("k=" + std::to_string(k));
    auto oracle = MakeOracle(GetParam(), k, kEpsilon);
    const std::vector<int> values = TestValues(kUsers, k);
    Rng rng(kSeed);
    std::vector<long long> counts(k, 0);
    long long calls = 0;
    oracle->BatchRandomize(values, rng, [&](const Report& r) {
      oracle->AccumulateSupport(r, &counts);
      ++calls;
    });
    EXPECT_EQ(calls, kUsers);
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, BatchExactTest,
                         ::testing::ValuesIn(AllProtocols()),
                         [](const auto& info) {
                           return std::string(ProtocolName(info.param));
                         });

}  // namespace
}  // namespace ldpr::fo
