// Differential suite for the bitsliced decode path (the block-accumulate
// tentpole): for every protocol and a domain sweep spanning the UE word
// boundaries (k = 2, 63, 64, 65, 1000), Aggregator::AccumulateWireBlock over
// a staged frame block must be bit-identical to the scalar
// WireDecoder::DecodeInto loop — including ragged tails (counts that are not
// multiples of 64 or of bitslice::kBlockRows), partial flushes at arbitrary
// boundaries, interleaved Merge of block-fed shards, and every OLH kernel
// tier (scalar / AVX2 / AVX-512, forced via LDPR_OLH_KERNEL). Also pins the
// two arithmetic tricks the kernels rest on: the multiplicative-inverse
// divisibility test against plain %, and Validate against DecodeInto's
// accept set on adversarial buffers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.h"
#include "fo/bitslice.h"
#include "fo/factory.h"
#include "fo/ss.h"
#include "fo/wire.h"

namespace ldpr::fo {
namespace {

constexpr std::uint64_t kSeed = 0xB17512CEULL;
constexpr double kEpsilon = 1.0;

// 300 rows: spans two full kBlockRows=128 sub-blocks plus a ragged tail, and
// pushes past 256 reports so a saturating-at-255 byte-lane bug in the UE
// SWAR accumulators cannot hide.
constexpr int kUsers = 300;

std::vector<std::vector<std::uint8_t>> MakeFrames(const FrequencyOracle& oracle,
                                                  int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(n);
  const int k = oracle.k();
  for (int i = 0; i < n; ++i) {
    Report r = oracle.Randomize((i * i + i / 3) % k, rng);
    frames.push_back(SerializeReport(oracle, r));
  }
  return frames;
}

// Packs frames[first, first + count) into a fresh staging buffer laid out
// exactly like serve::Collector's lanes: RowStride-aligned rows, zero
// padding, kRowTailSlack readable bytes after the last row.
std::vector<std::uint8_t> StageRows(
    const std::vector<std::vector<std::uint8_t>>& frames, std::size_t stride,
    int first, int count) {
  std::vector<std::uint8_t> buffer(
      static_cast<std::size_t>(count) * stride + bitslice::kRowTailSlack, 0);
  for (int i = 0; i < count; ++i) {
    const auto& frame = frames[first + i];
    std::memcpy(buffer.data() + static_cast<std::size_t>(i) * stride,
                frame.data(), frame.size());
  }
  return buffer;
}

std::unique_ptr<Aggregator> ScalarReference(
    const FrequencyOracle& oracle,
    const std::vector<std::vector<std::uint8_t>>& frames) {
  WireDecoder decoder(oracle);
  auto agg = oracle.MakeAggregator();
  for (const auto& frame : frames) {
    EXPECT_TRUE(decoder.DecodeInto(frame, *agg));
  }
  return agg;
}

class BitsliceExactTest
    : public ::testing::TestWithParam<std::tuple<Protocol, int>> {
 protected:
  Protocol protocol() const { return std::get<0>(GetParam()); }
  int k() const { return std::get<1>(GetParam()); }
};

TEST_P(BitsliceExactTest, OneBlockMatchesScalarBitwise) {
  auto oracle = MakeOracle(protocol(), k(), kEpsilon);
  const auto frames = MakeFrames(*oracle, kUsers, kSeed);
  const auto expected = ScalarReference(*oracle, frames);

  const std::size_t stride =
      bitslice::RowStride(WireDecoder(*oracle).report_bytes());
  const auto staged = StageRows(frames, stride, 0, kUsers);
  auto agg = oracle->MakeAggregator();
  agg->AccumulateWireBlock(staged.data(), stride, kUsers);

  EXPECT_EQ(agg->counts(), expected->counts());
  EXPECT_EQ(agg->n(), expected->n());
}

TEST_P(BitsliceExactTest, RaggedTailCountsMatchScalar) {
  auto oracle = MakeOracle(protocol(), k(), kEpsilon);
  const std::size_t stride =
      bitslice::RowStride(WireDecoder(*oracle).report_bytes());
  // Sweep counts around the word and sub-block boundaries, including the
  // empty block (a legal no-op flush).
  for (int n : {0, 1, 63, 64, 65, 127, bitslice::kBlockRows,
                bitslice::kBlockRows + 1}) {
    const auto frames = MakeFrames(*oracle, n, kSeed + n);
    const auto expected = ScalarReference(*oracle, frames);
    const auto staged = StageRows(frames, stride, 0, n);
    auto agg = oracle->MakeAggregator();
    agg->AccumulateWireBlock(staged.data(), stride, n);
    EXPECT_EQ(agg->counts(), expected->counts()) << "n=" << n;
    EXPECT_EQ(agg->n(), expected->n()) << "n=" << n;
  }
}

TEST_P(BitsliceExactTest, PartialFlushesAndInterleavedMergeMatchScalar) {
  auto oracle = MakeOracle(protocol(), k(), kEpsilon);
  const auto frames = MakeFrames(*oracle, kUsers, kSeed ^ 0x5A5A);
  const auto expected = ScalarReference(*oracle, frames);
  const std::size_t stride =
      bitslice::RowStride(WireDecoder(*oracle).report_bytes());

  // Two shard aggregators fed alternating, unevenly sized partial flushes
  // (the mid-epoch flush shapes a collector lane produces), then merged.
  auto shard_a = oracle->MakeAggregator();
  auto shard_b = oracle->MakeAggregator();
  const int chunks[] = {1, 7, 63, 64, 65, 2, 58};
  int offset = 0;
  int turn = 0;
  for (int i = 0; offset < kUsers; i = (i + 1) % 7, ++turn) {
    const int count = std::min(chunks[i], kUsers - offset);
    const auto staged = StageRows(frames, stride, offset, count);
    Aggregator& shard = (turn % 2 == 0) ? *shard_a : *shard_b;
    shard.AccumulateWireBlock(staged.data(), stride, count);
    offset += count;
  }
  shard_a->Merge(*shard_b);

  EXPECT_EQ(shard_a->counts(), expected->counts());
  EXPECT_EQ(shard_a->n(), expected->n());
}

TEST_P(BitsliceExactTest, ValidateAcceptsExactlyWhatDecodeIntoAccepts) {
  auto oracle = MakeOracle(protocol(), k(), kEpsilon);
  WireDecoder validator(*oracle);
  WireDecoder decoder(*oracle);
  const std::size_t bytes = decoder.report_bytes();
  Rng rng(kSeed ^ 0xF00D);

  // Random buffers of the exact accepted length: mostly garbage, so this
  // exercises both accept and reject on every field check.
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::uint8_t> buf(bytes);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng() & 0xFF);
    // Half the trials start from a genuine frame and flip one bit, probing
    // the accept boundary instead of deep-reject space.
    if (trial % 2 == 0) {
      const auto frames = MakeFrames(*oracle, 1, kSeed + trial);
      buf = frames[0];
      buf[(trial / 2) % buf.size()] ^=
          static_cast<std::uint8_t>(1u << (trial % 8));
    }
    auto agg = oracle->MakeAggregator();
    EXPECT_EQ(validator.Validate(buf), decoder.DecodeInto(buf, *agg))
        << "trial " << trial;
  }

  // Wrong lengths are rejected by both.
  std::vector<std::uint8_t> zeros(bytes + 9, 0);
  for (std::size_t size = 0; size <= bytes + 8; ++size) {
    if (size == bytes) continue;
    auto agg = oracle->MakeAggregator();
    EXPECT_FALSE(validator.Validate({zeros.data(), size}));
    EXPECT_FALSE(decoder.DecodeInto({zeros.data(), size}, *agg));
  }
}

// The batch (non-wire) path: Aggregator::Accumulate stages Report wire
// images and decodes them through the same block kernels the serve path
// uses (GRR excepted — its scalar accumulate is a single increment). The
// staging must be invisible: counts()/n() reads at arbitrary fills flush
// pending rows and match a scalar AccumulateSupport reference exactly, and
// later accumulation is undisturbed by the mid-stream reads.
TEST_P(BitsliceExactTest, StagedBatchAccumulateMatchesScalarSupport) {
  auto oracle = MakeOracle(protocol(), k(), kEpsilon);
  Rng rng(kSeed ^ 0xBA7C);
  std::vector<Report> reports;
  reports.reserve(kUsers);
  for (int i = 0; i < kUsers; ++i) {
    reports.push_back(oracle->Randomize((i * 3 + 1) % k(), rng));
  }

  // Probe fills: mid-block (1, 64, 200), exactly one block (128), and the
  // final ragged tail (300).
  const std::vector<int> probes = {1, 64, bitslice::kBlockRows, 200, kUsers};
  std::vector<long long> ref_counts(k(), 0);
  auto agg = oracle->MakeAggregator();
  for (int i = 0; i < kUsers; ++i) {
    agg->Accumulate(reports[i]);
    oracle->AccumulateSupport(reports[i], &ref_counts);
    if (std::find(probes.begin(), probes.end(), i + 1) != probes.end()) {
      ASSERT_EQ(agg->counts(), ref_counts) << "after " << i + 1 << " reports";
      ASSERT_EQ(agg->n(), i + 1);
    }
  }
  EXPECT_EQ(agg->counts(), ref_counts);
  EXPECT_EQ(agg->Estimate(), oracle->EstimateFromCounts(ref_counts, kUsers));
}

// Merge must flush both sides' staged rows first: split the stream at
// boundaries where one or both aggregators hold a partial block, and at an
// exact block boundary for contrast.
TEST_P(BitsliceExactTest, StagedMergeAtNonBlockBoundariesMatchesScalar) {
  auto oracle = MakeOracle(protocol(), k(), kEpsilon);
  Rng rng(kSeed ^ 0x3ED);
  std::vector<Report> reports;
  reports.reserve(kUsers);
  for (int i = 0; i < kUsers; ++i) {
    reports.push_back(oracle->Randomize((i * i + 7) % k(), rng));
  }
  std::vector<long long> ref_counts(k(), 0);
  for (const Report& r : reports) oracle->AccumulateSupport(r, &ref_counts);

  for (int split : {77, bitslice::kBlockRows, 233}) {
    auto a = oracle->MakeAggregator();
    auto b = oracle->MakeAggregator();
    for (int i = 0; i < split; ++i) a->Accumulate(reports[i]);
    for (int i = split; i < kUsers; ++i) b->Accumulate(reports[i]);
    a->Merge(*b);
    EXPECT_EQ(a->counts(), ref_counts) << "split=" << split;
    EXPECT_EQ(a->n(), kUsers) << "split=" << split;
  }
}

// Aggregator::AccumulateFrame (the serve layer's stage-one-frame entry)
// must be invisible too: random Validate-accepted frames — randomized
// reports interleaved with random byte patterns the validator accepts —
// staged one by one give the same counts()/n() as WireDecoder::DecodeInto on
// the same frames, with counts() and Merge reads landing mid-block so the
// flushes fall at arbitrary points of the stream.
TEST_P(BitsliceExactTest, AccumulateFrameMatchesDecodeInto) {
  auto oracle = MakeOracle(protocol(), k(), kEpsilon);
  WireDecoder decoder(*oracle);
  const auto reports = MakeFrames(*oracle, kUsers, kSeed ^ 0xF4A3E);
  Rng rng(kSeed ^ 0xACC);
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& report : reports) {
    frames.push_back(report);
    for (int attempt = 0; attempt < 4; ++attempt) {
      std::vector<std::uint8_t> buf(decoder.report_bytes());
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng() & 0xFF);
      if (decoder.Validate(buf)) frames.push_back(std::move(buf));
    }
  }
  if (frames.size() % bitslice::kBlockRows == 0) frames.pop_back();

  auto staged = oracle->MakeAggregator();
  auto reference = oracle->MakeAggregator();
  const int total = static_cast<int>(frames.size());
  const std::vector<int> probes = {1, 77, bitslice::kBlockRows,
                                   bitslice::kBlockRows + 1, 233, 300, 301};
  for (int i = 0; i < total; ++i) {
    staged->AccumulateFrame(frames[i]);
    ASSERT_TRUE(decoder.DecodeInto(frames[i], *reference));
    if (std::find(probes.begin(), probes.end(), i + 1) == probes.end()) {
      continue;
    }
    // Alternate the read that flushes: counts() on the staged aggregator
    // itself, or a Merge of it into a fresh one.
    if (i % 2 == 0) {
      ASSERT_EQ(staged->counts(), reference->counts()) << "after " << i + 1;
      ASSERT_EQ(staged->n(), i + 1);
    } else {
      auto merged = oracle->MakeAggregator();
      merged->Merge(*staged);
      ASSERT_EQ(merged->counts(), reference->counts()) << "after " << i + 1;
      ASSERT_EQ(merged->n(), i + 1);
    }
  }
  EXPECT_EQ(staged->counts(), reference->counts());
  EXPECT_EQ(staged->n(), total);
  EXPECT_EQ(staged->Estimate(), reference->Estimate());
}

// Aggregator::Reset returns an aggregator to its fresh state while keeping
// its staging block and protocol scratch: with rows left staged and the
// block kernel's scratch already built (one block decoded — for OLH that
// builds the per-value hash halves), a reset aggregator fed a second stream
// reads bit-identical to a fresh one fed only that stream.
TEST_P(BitsliceExactTest, ResetMatchesFreshAggregator) {
  auto oracle = MakeOracle(protocol(), k(), kEpsilon);
  const int block = bitslice::kBlockRows;
  const auto first = MakeFrames(*oracle, block + 37, kSeed ^ 0x5E7);
  const auto second = MakeFrames(*oracle, 2 * block + 5, kSeed ^ 0x5E8);

  auto reused = oracle->MakeAggregator();
  for (const auto& frame : first) reused->AccumulateFrame(frame);
  ASSERT_EQ(reused->staged(), 37);
  reused->Reset();
  EXPECT_EQ(reused->staged(), 0);
  EXPECT_EQ(reused->n(), 0);
  EXPECT_EQ(reused->counts(), std::vector<long long>(k(), 0));

  auto fresh = oracle->MakeAggregator();
  for (const auto& frame : second) {
    reused->AccumulateFrame(frame);
    fresh->AccumulateFrame(frame);
  }
  EXPECT_EQ(reused->staged(), 5);
  EXPECT_EQ(fresh->staged(), 5);
  EXPECT_EQ(reused->counts(), fresh->counts());
  EXPECT_EQ(reused->n(), fresh->n());
  EXPECT_EQ(reused->Estimate(), fresh->Estimate());
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<Protocol, int>>& info) {
  return std::string(ProtocolName(std::get<0>(info.param))) + "_k" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsDomainSweep, BitsliceExactTest,
    ::testing::Combine(::testing::ValuesIn(AllProtocols()),
                       ::testing::Values(2, 63, 64, 65, 1000)),
    ParamName);

// SS across the (epsilon, k) grid: omega = clamp(round(k / (e^eps + 1)), 1,
// k - 1) sweeps from 1 (high eps or tiny k) past the SWAR validator's
// 57/width fields-per-group boundary (k = 100 -> width 7, omega up to 44),
// so full groups, tail groups, and the cross-group stitch all get exercised
// at several shapes. Pins the block kernel bitwise at ragged tails and the
// validator's accept set on targeted malformed fields — out-of-range,
// non-increasing, duplicate, dirty padding — not just random fuzz.
class SsOmegaGridTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {
 protected:
  double epsilon() const { return std::get<0>(GetParam()); }
  int k() const { return std::get<1>(GetParam()); }
};

// MSB-first packer matching the SS wire layout (SerializeReport): lets the
// test craft frames field by field, including illegal ones SerializeReport
// would never emit.
std::vector<std::uint8_t> PackSsFrame(const std::vector<int>& values,
                                      int width, std::size_t bytes) {
  std::vector<std::uint8_t> frame(bytes, 0);
  std::uint64_t acc = 0;
  int acc_bits = 0;
  std::size_t out = 0;
  for (int v : values) {
    acc = (acc << width) | static_cast<std::uint64_t>(v);
    acc_bits += width;
    while (acc_bits >= 8) {
      acc_bits -= 8;
      frame[out++] = static_cast<std::uint8_t>((acc >> acc_bits) & 0xFF);
    }
  }
  if (acc_bits > 0) {
    frame[out++] =
        static_cast<std::uint8_t>((acc << (8 - acc_bits)) & 0xFF);
  }
  return frame;
}

TEST_P(SsOmegaGridTest, BlockKernelMatchesScalarAtRaggedTails) {
  auto oracle = MakeOracle(Protocol::kSs, k(), epsilon());
  const std::size_t stride =
      bitslice::RowStride(WireDecoder(*oracle).report_bytes());
  for (int n : {1, 63, bitslice::kBlockRows - 1, bitslice::kBlockRows,
                bitslice::kBlockRows + 1, 300}) {
    const auto frames = MakeFrames(*oracle, n, kSeed + n);
    const auto expected = ScalarReference(*oracle, frames);
    const auto staged = StageRows(frames, stride, 0, n);
    auto agg = oracle->MakeAggregator();
    agg->AccumulateWireBlock(staged.data(), stride, n);
    EXPECT_EQ(agg->counts(), expected->counts()) << "n=" << n;
    EXPECT_EQ(agg->n(), expected->n()) << "n=" << n;
  }
}

TEST_P(SsOmegaGridTest, ValidatorRejectsMalformedFieldsLikeScalar) {
  auto oracle = MakeOracle(Protocol::kSs, k(), epsilon());
  const Ss& ss = static_cast<const Ss&>(*oracle);
  const int omega = ss.omega();
  const int width = CeilLog2(k());
  WireDecoder decoder(*oracle);
  const std::size_t bytes = decoder.report_bytes();
  const int padding = static_cast<int>(bytes) * 8 - decoder.report_bits();

  // Both accept-set checks on every crafted frame: the SWAR Validate and the
  // scalar DecodeInto must agree, and for the malformed frames both reject.
  const auto expect_verdict = [&](const std::vector<std::uint8_t>& frame,
                                  bool want, const char* what) {
    auto agg = oracle->MakeAggregator();
    EXPECT_EQ(decoder.Validate(frame), want) << what;
    EXPECT_EQ(decoder.DecodeInto(frame, *agg), want) << what;
    EXPECT_EQ(agg->n(), want ? 1 : 0) << what;
  };

  // Two legal subsets probing both ends of the value range.
  std::vector<int> low(omega), high(omega);
  for (int i = 0; i < omega; ++i) {
    low[i] = i;
    high[i] = k() - omega + i;
  }
  expect_verdict(PackSsFrame(low, width, bytes), true, "low subset");
  expect_verdict(PackSsFrame(high, width, bytes), true, "high subset");

  // Out-of-range field: only expressible when k is not a power of two.
  if (k() < (1 << width)) {
    std::vector<int> bad = low;
    bad.back() = k();  // first illegal encodable value
    expect_verdict(PackSsFrame(bad, width, bytes), false, "field == k");
    bad.back() = (1 << width) - 1;  // largest encodable value
    if (bad.back() >= k()) {
      expect_verdict(PackSsFrame(bad, width, bytes), false, "max field");
    }
  }
  if (omega >= 2) {
    std::vector<int> swapped = high;
    std::swap(swapped[0], swapped[1]);  // strictly decreasing pair
    expect_verdict(PackSsFrame(swapped, width, bytes), false,
                   "non-increasing");
    std::vector<int> dup = high;
    dup[1] = dup[0];  // equal adjacent fields: also not strictly increasing
    expect_verdict(PackSsFrame(dup, width, bytes), false, "duplicate");
    // A violation in the LAST adjacent pair lands in the cross-group stitch
    // for shapes with more than one SWAR group.
    std::vector<int> tail = low;
    tail[omega - 1] = tail[omega - 2];
    expect_verdict(PackSsFrame(tail, width, bytes), false, "tail duplicate");
  }
  if (padding > 0) {
    std::vector<std::uint8_t> dirty = PackSsFrame(low, width, bytes);
    dirty.back() |= 1;  // lowest bit is padding whenever padding > 0
    expect_verdict(dirty, false, "dirty padding");
  }
}

std::string OmegaGridName(
    const ::testing::TestParamInfo<std::tuple<double, int>>& info) {
  const double eps = std::get<0>(info.param);
  // 0.25 -> "eps025": keep the name alphanumeric.
  const int centi = static_cast<int>(eps * 100 + 0.5);
  return "eps" + std::to_string(centi) + "_k" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    EpsilonDomainGrid, SsOmegaGridTest,
    ::testing::Combine(::testing::Values(0.25, 1.0, 3.0),
                       ::testing::Values(2, 5, 64, 100, 257)),
    OmegaGridName);

// The OLH block kernel dispatches between scalar, AVX2, and AVX-512 tiers at
// aggregator construction; LDPR_OLH_KERNEL forces a tier (honored only when
// the CPU supports it, so this test passes — in the scalar tier — on any
// machine). Every tier must produce bit-identical counts.
TEST(BitsliceOlhKernelTest, AllKernelTiersMatchScalarBitwise) {
  auto oracle = MakeOracle(Protocol::kOlh, 150, kEpsilon);
  const auto frames = MakeFrames(*oracle, 500, kSeed);
  const std::size_t stride =
      bitslice::RowStride(WireDecoder(*oracle).report_bytes());
  const auto staged = StageRows(frames, stride, 0, 500);
  const auto expected = ScalarReference(*oracle, frames);

  for (const char* kernel : {"scalar", "avx2", "avx512"}) {
    ::setenv("LDPR_OLH_KERNEL", kernel, 1);
    auto agg = oracle->MakeAggregator();  // fresh: dispatch is per-aggregator
    agg->AccumulateWireBlock(staged.data(), stride, 500);
    EXPECT_EQ(agg->counts(), expected->counts()) << "kernel=" << kernel;
    EXPECT_EQ(agg->n(), expected->n()) << "kernel=" << kernel;
  }
  ::unsetenv("LDPR_OLH_KERNEL");
}

// The OLH kernel replaces `h % g == val` with a multiplicative-inverse
// divisibility test (Granlund–Montgomery): pin it against plain % across
// every divisor shape (odd, even, powers of two) and adversarial dividends.
TEST(BitsliceDivisibilityTest, MatchesModuloForAllDivisorShapes) {
  Rng rng(kSeed);
  std::vector<std::uint64_t> probes = {0, 1, 2, 0x7FFFFFFFFFFFFFFFULL,
                                       0x8000000000000000ULL,
                                       0xFFFFFFFFFFFFFFFFULL};
  for (int i = 0; i < 64; ++i) probes.push_back(rng());
  for (std::uint64_t d = 1; d <= 2048; ++d) {
    const auto check = bitslice::DivisibilityCheck::For(d);
    for (std::uint64_t n : probes) {
      EXPECT_EQ(check.IsDivisible(n), n % d == 0) << "n=" << n << " d=" << d;
    }
    // Exact multiples and near-multiples around each probe.
    for (std::uint64_t n : probes) {
      const std::uint64_t m = n - n % d;
      EXPECT_TRUE(check.IsDivisible(m)) << "m=" << m << " d=" << d;
      // m + 1 == 1 (mod d) is never a multiple for d > 1 — except when m + 1
      // wraps to 0, which is one.
      if (d > 1 && m != ~std::uint64_t{0}) {
        EXPECT_FALSE(check.IsDivisible(m + 1)) << "m+1=" << m + 1
                                               << " d=" << d;
      }
    }
  }
  for (int shift = 0; shift < 64; ++shift) {
    const std::uint64_t d = std::uint64_t{1} << shift;
    const auto check = bitslice::DivisibilityCheck::For(d);
    for (std::uint64_t n : probes) {
      EXPECT_EQ(check.IsDivisible(n), n % d == 0)
          << "n=" << n << " d=2^" << shift;
    }
  }
}

}  // namespace
}  // namespace ldpr::fo
