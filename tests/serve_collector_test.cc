// Scalar collection service (serve/collector): the sealed snapshot of a
// wire-ingested epoch must be bit-identical to a batch fo::Aggregator fed
// the same report stream (the PR's acceptance gate), sealing must be
// independent of lane/thread configuration, malformed buffers must be
// rejected cleanly (no UB under ASan/UBSan, nothing accumulated), and the
// epoch lifecycle must enforce open -> ingest -> seal.

#include <algorithm>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/check.h"
#include "core/sampling.h"
#include "fo/bitslice.h"
#include "fo/factory.h"
#include "fo/wire.h"
#include "obs/metrics.h"
#include "serve/collector.h"
#include "serve/loadgen.h"
#include "serve/longitudinal.h"

namespace ldpr::serve {
namespace {

std::vector<int> ZipfValues(int n, int k, Rng& rng) {
  CategoricalSampler sampler(ZipfDistribution(k, 1.1));
  std::vector<int> values(n);
  for (int& v : values) v = sampler.Sample(rng);
  return values;
}

class ServeCollectorTest : public ::testing::TestWithParam<fo::Protocol> {};

INSTANTIATE_TEST_SUITE_P(AllProtocols, ServeCollectorTest,
                         ::testing::ValuesIn(fo::AllProtocols()),
                         [](const auto& info) {
                           return std::string(fo::ProtocolName(info.param));
                         });

// Acceptance: Collector epoch snapshots are bit-identical to the equivalent
// batch fo::Aggregator::Estimate on the same report stream.
TEST_P(ServeCollectorTest, SnapshotBitIdenticalToBatchAggregator) {
  const int k = 23;  // not a power of two: exercises value-range rejection
  const int n = 1500;
  auto oracle = fo::MakeOracle(GetParam(), k, 1.5);
  Rng rng(42);
  const std::vector<int> values = ZipfValues(n, k, rng);

  // Client side: real reports, serialized to wire buffers.
  std::vector<fo::Report> reports;
  std::vector<std::vector<std::uint8_t>> frames;
  reports.reserve(n);
  frames.reserve(n);
  for (int v : values) {
    reports.push_back(oracle->Randomize(v, rng));
    frames.push_back(fo::SerializeReport(*oracle, reports.back()));
  }

  // Reference: one batch aggregator over the in-process reports.
  auto batch = oracle->MakeAggregator();
  for (const fo::Report& r : reports) batch->Accumulate(r);

  CollectorOptions options;
  options.lanes = 4;
  EpochManager manager(*oracle, options);
  EXPECT_EQ(manager.OpenEpoch(), 0);
  for (int i = 0; i < n; ++i) {
    // Scatter reports over lanes in an arbitrary pattern: lane assignment
    // must not matter.
    EXPECT_TRUE(manager.collector()
                    .Ingest({frames[i], std::nullopt, i * 7 + i % 3})
                    .accepted);
  }
  const EstimateSnapshot& snapshot = manager.Seal();

  EXPECT_EQ(snapshot.epoch, 0);
  EXPECT_EQ(snapshot.n, n);
  EXPECT_EQ(snapshot.counts, batch->counts());
  // Same integer counts, same Eq. (2) arithmetic: exact double equality.
  EXPECT_EQ(snapshot.frequencies, batch->Estimate());
  EXPECT_EQ(snapshot.consistent,
            batch->Estimate(fo::ConsistencyMethod::kNormSub));
  EXPECT_EQ(snapshot.stats.reports, n);
  EXPECT_EQ(snapshot.stats.rejected, 0);
  EXPECT_EQ(snapshot.stats.bytes,
            static_cast<long long>(n) *
                static_cast<long long>(manager.report_bytes()));
}

// Sealing depends only on the multiset of accepted reports: any lane count,
// producer thread count, or ingest order yields the same snapshot.
TEST_P(ServeCollectorTest, SealingIsLaneAndThreadCountIndependent) {
  const int k = 17;
  const int n = 4000;
  auto oracle = fo::MakeOracle(GetParam(), k, 2.0);
  Rng seed_rng(7);
  const std::vector<int> values = ZipfValues(n, k, seed_rng);

  // The load generator itself must be thread-count independent.
  sim::Options one_thread;
  one_thread.threads = 1;
  sim::Options four_threads;
  four_threads.threads = 4;
  Rng root_a(99);
  Rng root_b(99);
  const EncodedStream stream_a =
      EncodeScalarLoad(*oracle, values, root_a, one_thread);
  const EncodedStream stream_b =
      EncodeScalarLoad(*oracle, values, root_b, four_threads);
  EXPECT_EQ(stream_a.bytes, stream_b.bytes);

  EstimateSnapshot reference;
  for (const auto& [lanes, threads] :
       std::vector<std::pair<int, int>>{{1, 1}, {3, 2}, {8, 4}}) {
    CollectorOptions options;
    options.lanes = lanes;
    EpochManager manager(*oracle, options);
    manager.OpenEpoch();
    EXPECT_EQ(IngestStream(manager.collector(), stream_a, threads), n);
    const EstimateSnapshot& snapshot = manager.Seal();
    if (lanes == 1) {
      reference = snapshot;
      continue;
    }
    EXPECT_EQ(snapshot.counts, reference.counts) << "lanes=" << lanes;
    EXPECT_EQ(snapshot.frequencies, reference.frequencies);
    EXPECT_EQ(snapshot.consistent, reference.consistent);
    EXPECT_EQ(snapshot.n, reference.n);
  }
}

// Property test: randomized, truncated and corrupted buffers are rejected
// cleanly — never accumulated, never UB (this suite runs under the ASan
// fast label).
TEST_P(ServeCollectorTest, MalformedBuffersAreRejectedCleanly) {
  const int k = 100;
  auto oracle = fo::MakeOracle(GetParam(), k, 1.0);
  EpochManager manager(*oracle, CollectorOptions{.lanes = 2});
  manager.OpenEpoch();
  Collector& collector = manager.collector();
  const std::size_t frame_bytes = collector.report_bytes();

  Rng rng(1234);
  long long accepted = 0;
  long long attempted = 0;

  // Truncations and extensions of valid frames are always rejected.
  const std::vector<std::uint8_t> valid = fo::SerializeReport(
      *oracle, oracle->Randomize(static_cast<int>(rng.UniformInt(k)), rng));
  std::vector<std::uint8_t> truncated(valid.begin(), valid.end() - 1);
  EXPECT_FALSE(collector.Ingest({truncated}).accepted);
  std::vector<std::uint8_t> extended = valid;
  extended.push_back(0);
  EXPECT_FALSE(collector.Ingest({extended}).accepted);
  EXPECT_FALSE(collector
                   .Ingest({{static_cast<const std::uint8_t*>(nullptr),
                             frame_bytes}})
                   .accepted);
  EXPECT_FALSE(collector.Ingest({{valid.data(), 0}}).accepted);
  attempted += 4;

  // Random buffers of random sizes: may decode by chance at the exact frame
  // size, must never crash or throw.
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t size = rng.UniformInt(2 * frame_bytes + 2);
    std::vector<std::uint8_t> buffer(size);
    for (std::uint8_t& b : buffer) {
      b = static_cast<std::uint8_t>(rng.UniformInt(256));
    }
    accepted += collector
                        .Ingest({buffer, std::nullopt,
                                 static_cast<int>(rng.UniformInt(64))})
                        .accepted
                    ? 1
                    : 0;
    ++attempted;
  }

  // Bit flips in valid frames: either still-valid payloads (accepted) or
  // clean rejections; the ledger must balance either way.
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> frame = fo::SerializeReport(
        *oracle, oracle->Randomize(static_cast<int>(rng.UniformInt(k)), rng));
    frame[rng.UniformInt(frame.size())] ^=
        static_cast<std::uint8_t>(1u << rng.UniformInt(8));
    accepted += collector.Ingest({frame, std::nullopt, trial}).accepted ? 1 : 0;
    ++attempted;
  }

  const EstimateSnapshot& snapshot = manager.Seal();
  EXPECT_EQ(snapshot.n, accepted);
  EXPECT_EQ(snapshot.stats.reports, accepted);
  EXPECT_EQ(snapshot.stats.rejected, attempted - accepted);
  long long total_support = 0;
  for (long long c : snapshot.counts) {
    EXPECT_GE(c, 0);
    total_support += c;
  }
  if (GetParam() == fo::Protocol::kGrr) {
    // Every accepted GRR report supports exactly one value.
    EXPECT_EQ(total_support, accepted);
  }
}

// The wire decoder is strict: the zero padding of the final byte must be
// zero, so every accepted buffer is exactly one SerializeReport image.
TEST_P(ServeCollectorTest, NonzeroPaddingIsRejected) {
  const int k = 23;  // GRR: 5 bits + 3 padding; UE: 23 bits + 1 padding
  auto oracle = fo::MakeOracle(GetParam(), k, 1.0);
  fo::WireDecoder decoder(*oracle);
  const int padding = static_cast<int>(decoder.report_bytes()) * 8 -
                      decoder.report_bits();
  if (padding == 0) GTEST_SKIP() << "no padding at this (protocol, k)";
  Rng rng(5);
  std::vector<std::uint8_t> frame =
      fo::SerializeReport(*oracle, oracle->Randomize(3, rng));
  auto agg = oracle->MakeAggregator();
  EXPECT_TRUE(decoder.DecodeInto(frame, *agg));
  frame.back() |= 1;  // lowest bit is always padding when padding > 0
  EXPECT_FALSE(decoder.DecodeInto(frame, *agg));
  EXPECT_EQ(agg->n(), 1);
}

// Mid-epoch flush boundaries are invisible: a lane stages frames and
// flushes a block every bitslice::kBlockRows (observable via staged()), and
// sealing at any fill — empty, exactly full, or one past a flush — yields a
// snapshot bit-identical to the batch aggregator over the same reports.
TEST_P(ServeCollectorTest, FlushBoundariesAreInvisibleInSnapshots) {
  const int k = 12;
  const int block = fo::bitslice::kBlockRows;
  const int max_n = 2 * block + 1;
  auto oracle = fo::MakeOracle(GetParam(), k, 1.0);

  Rng rng(77);
  std::vector<fo::Report> reports;
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < max_n; ++i) {
    reports.push_back(oracle->Randomize(i % k, rng));
    frames.push_back(fo::SerializeReport(*oracle, reports.back()));
  }

  EpochManager manager(*oracle, CollectorOptions{.lanes = 1});
  for (int n : {0, 1, block - 1, block, block + 1, 2 * block - 1, 2 * block,
                max_n}) {
    manager.OpenEpoch();
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(manager.collector().Ingest({frames[i]}).accepted);
    }
    // Whole blocks were flushed eagerly; the remainder is still staged and
    // only decoded at seal.
    EXPECT_EQ(manager.collector().staged(0), n % block) << "n=" << n;
    const EstimateSnapshot& snapshot = manager.Seal();

    auto batch = oracle->MakeAggregator();
    for (int i = 0; i < n; ++i) batch->Accumulate(reports[i]);
    EXPECT_EQ(snapshot.n, n);
    EXPECT_EQ(snapshot.counts, batch->counts()) << "n=" << n;
    if (n > 0) {
      EXPECT_EQ(snapshot.frequencies, batch->Estimate()) << "n=" << n;
    } else {
      EXPECT_TRUE(snapshot.frequencies.empty());
    }
  }
}

// Sealing flushes a partial block at EVERY prefix length: sweep all staged
// fills 0..kBlockRows and check each sealed snapshot against an
// incrementally grown batch reference.
TEST_P(ServeCollectorTest, SealAtEveryStagedFillMatchesScalar) {
  const int k = 9;
  const int block = fo::bitslice::kBlockRows;
  auto oracle = fo::MakeOracle(GetParam(), k, 1.2);

  Rng rng(501);
  std::vector<fo::Report> reports;
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i <= block; ++i) {
    reports.push_back(oracle->Randomize((i * 5 + 2) % k, rng));
    frames.push_back(fo::SerializeReport(*oracle, reports.back()));
  }

  EpochManager manager(*oracle, CollectorOptions{.lanes = 1});
  auto batch = oracle->MakeAggregator();  // grown by one report per fill
  for (int n = 0; n <= block; ++n) {
    if (n > 0) batch->Accumulate(reports[n - 1]);
    manager.OpenEpoch();
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(manager.collector().Ingest({frames[i]}).accepted);
    }
    const EstimateSnapshot& snapshot = manager.Seal();
    ASSERT_EQ(snapshot.counts, batch->counts()) << "staged fill " << n;
    ASSERT_EQ(snapshot.n, n);
  }
}

// Fuzz the staging path itself: interleave valid frames with corrupt /
// truncated / random buffers and padding violations, so rejects land
// between staged rows at every fill level. The collector's accept verdicts
// must match WireDecoder::DecodeInto frame by frame, and the sealed counts
// must match the reference aggregator the decoder built along the way.
// (Runs under the ASan/UBSan fast label.)
TEST_P(ServeCollectorTest, RejectionsBetweenStagedFramesDontPerturbDecodes) {
  const int k = 50;
  auto oracle = fo::MakeOracle(GetParam(), k, 1.0);
  EpochManager manager(*oracle, CollectorOptions{.lanes = 1});
  manager.OpenEpoch();
  Collector& collector = manager.collector();
  const std::size_t frame_bytes = collector.report_bytes();

  fo::WireDecoder reference_decoder(*oracle);
  auto reference = oracle->MakeAggregator();
  Rng rng(9001);
  long long accepted = 0;

  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> buffer;
    switch (trial % 4) {
      case 0:  // genuine frame
        buffer = fo::SerializeReport(
            *oracle,
            oracle->Randomize(static_cast<int>(rng.UniformInt(k)), rng));
        break;
      case 1: {  // genuine frame with one flipped bit
        buffer = fo::SerializeReport(
            *oracle,
            oracle->Randomize(static_cast<int>(rng.UniformInt(k)), rng));
        buffer[rng.UniformInt(buffer.size())] ^=
            static_cast<std::uint8_t>(1u << rng.UniformInt(8));
        break;
      }
      case 2: {  // random bytes at the exact accepted size
        buffer.resize(frame_bytes);
        for (auto& b : buffer) {
          b = static_cast<std::uint8_t>(rng.UniformInt(256));
        }
        break;
      }
      default: {  // random bytes at a random (usually wrong) size
        buffer.resize(rng.UniformInt(2 * frame_bytes + 2));
        for (auto& b : buffer) {
          b = static_cast<std::uint8_t>(rng.UniformInt(256));
        }
        break;
      }
    }
    const bool reference_accepts =
        reference_decoder.DecodeInto(buffer, *reference);
    EXPECT_EQ(collector.Ingest({buffer}).accepted, reference_accepts)
        << "trial " << trial;
    accepted += reference_accepts ? 1 : 0;
  }

  const EstimateSnapshot& snapshot = manager.Seal();
  EXPECT_EQ(snapshot.n, accepted);
  EXPECT_EQ(snapshot.counts, reference->counts());
  EXPECT_EQ(snapshot.stats.rejected, 2000 - accepted);
}

// Concurrent-producer stress: real std::threads hammer the collector both
// ways producers can be deployed — pinned to disjoint lanes (the scaling
// configuration: zero contention) and all sharing a smaller lane set (the
// degenerate configuration: heavy mutex contention, interleaved staging and
// block flushes). Either way the sealed snapshot must be bit-identical to a
// single-thread ingest of the same stream: snapshots depend only on the
// multiset of accepted reports.
TEST_P(ServeCollectorTest, ConcurrentProducersMatchSingleThreadBitwise) {
  const int k = 19;
  const int n = 6000;  // not a multiple of kBlockRows or the thread count
  const int threads = 4;
  auto oracle = fo::MakeOracle(GetParam(), k, 1.5);
  Rng rng(314);
  Rng root(27);
  const EncodedStream stream =
      EncodeScalarLoad(*oracle, ZipfValues(n, k, rng), root);

  // Reference: one lane, one thread, in stream order.
  EstimateSnapshot reference;
  {
    EpochManager manager(*oracle, CollectorOptions{.lanes = 1});
    manager.OpenEpoch();
    for (long long i = 0; i < n; ++i) {
      ASSERT_TRUE(manager.collector()
                      .Ingest({{stream.frame(i), stream.frame_bytes}})
                      .accepted);
    }
    reference = manager.Seal();
  }

  const auto expect_matches_reference = [&](const EstimateSnapshot& snapshot,
                                            const char* config) {
    EXPECT_EQ(snapshot.n, reference.n) << config;
    EXPECT_EQ(snapshot.counts, reference.counts) << config;
    EXPECT_EQ(snapshot.frequencies, reference.frequencies) << config;
    EXPECT_EQ(snapshot.consistent, reference.consistent) << config;
    EXPECT_EQ(snapshot.stats.reports, reference.stats.reports) << config;
    EXPECT_EQ(snapshot.stats.rejected, 0) << config;
  };

  // Disjoint lanes: thread t owns lane t and a contiguous frame range.
  {
    EpochManager manager(*oracle, CollectorOptions{.lanes = threads});
    manager.OpenEpoch();
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const long long lo = n * static_cast<long long>(t) / threads;
        const long long hi = n * static_cast<long long>(t + 1) / threads;
        for (long long i = lo; i < hi; ++i) {
          manager.collector().Ingest(
              {{stream.frame(i), stream.frame_bytes}, std::nullopt, t});
        }
      });
    }
    for (std::thread& w : workers) w.join();
    expect_matches_reference(manager.Seal(), "disjoint lanes");
  }

  // Shared lanes: four threads contend for two lanes, strided so every
  // thread's frames interleave with every other's inside each lane.
  {
    EpochManager manager(*oracle, CollectorOptions{.lanes = 2});
    manager.OpenEpoch();
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (long long i = t; i < n; i += threads) {
          manager.collector().Ingest({{stream.frame(i), stream.frame_bytes},
                                      std::nullopt,
                                      static_cast<int>(i % 2)});
        }
      });
    }
    for (std::thread& w : workers) w.join();
    expect_matches_reference(manager.Seal(), "shared lanes");
  }

  // The timed harness the MT benchmarks and serve-demo use reports every
  // frame accepted and seals to the same snapshot.
  {
    EpochManager manager(*oracle, CollectorOptions{.lanes = threads});
    manager.OpenEpoch();
    const MtIngestResult result =
        IngestStreamMt(manager.collector(), stream, threads);
    EXPECT_EQ(result.accepted, n);
    EXPECT_GE(result.reports_per_second, 0.0);
    expect_matches_reference(manager.Seal(), "IngestStreamMt");
  }
}

// Replays a fixed request list through IngestAll, counting acceptances.
class VectorSource final : public IngestSource {
 public:
  explicit VectorSource(std::vector<IngestRequest> requests)
      : requests_(std::move(requests)) {}
  bool Next(IngestRequest& request) override {
    if (next_ == requests_.size()) return false;
    request = requests_[next_++];
    return true;
  }
  void Done(const IngestRequest&, IngestResult result) override {
    accepted += result.accepted ? 1 : 0;
  }
  long long accepted = 0;

 private:
  std::vector<IngestRequest> requests_;
  std::size_t next_ = 0;
};

// Decode-block telemetry at collector level: ldpr_decode_block_rows gets one
// sample per block decode — each full kBlockRows block as it fills, plus each
// busy lane's partial block at seal — so its sum is the accepted reports. A
// lane that never ingests records nothing, a closed-form feed decodes
// nothing, and a second seal with nothing staged records nothing either.
TEST_P(ServeCollectorTest, DecodeBlockHistogramsCountEveryDecodeOnce) {
  const int k = 12;
  const int block = fo::bitslice::kBlockRows;
  const int per_lane = 2 * block + 5;
  const std::vector<int> busy = {0, 1, 3};  // lane 2 stays empty
  const long long busy_lanes = static_cast<long long>(busy.size());
  auto oracle = fo::MakeOracle(GetParam(), k, 1.0);
  obs::MetricsRegistry registry;
  Collector collector(*oracle,
                      CollectorOptions{.lanes = 4, .metrics = &registry});

  Rng rng(91);
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < per_lane; ++i) {
    frames.push_back(
        fo::SerializeReport(*oracle, oracle->Randomize(i % k, rng)));
  }
  // Runs of 7 same-lane requests, round-robin over the busy lanes.
  std::vector<IngestRequest> requests;
  for (int start = 0; start < per_lane; start += 7) {
    for (int lane : busy) {
      for (int i = start; i < std::min(start + 7, per_lane); ++i) {
        requests.push_back({.frame = frames[i], .lane = lane});
      }
    }
  }
  VectorSource source(std::move(requests));
  collector.IngestAll(source);
  const long long accepted = busy_lanes * per_lane;
  ASSERT_EQ(source.accepted, accepted);
  for (int lane : busy) EXPECT_EQ(collector.staged(lane), 5) << lane;

  // The closed-form feed leaves the staged rows alone.
  collector.IngestHistogram(0, std::vector<long long>(k, 3), rng);
  EXPECT_EQ(collector.staged(0), 5);

  auto rows = registry.GetHistogram("ldpr_decode_block_rows", "", "");
  auto seconds = registry.GetHistogram("ldpr_decode_block_seconds", "", "");
  const obs::HistogramSnapshot live = rows->Merge();
  EXPECT_EQ(live.count, 2 * busy_lanes);
  EXPECT_EQ(live.sum, 2 * block * busy_lanes);

  const Collector::Drained first = collector.Drain();
  const Collector::Drained second = collector.Drain();
  EXPECT_EQ(first.n, accepted + 3 * k);
  EXPECT_EQ(first.tallies.reports, accepted + 3 * k);
  EXPECT_EQ(second.n, 0);

  const obs::HistogramSnapshot sealed = rows->Merge();
  EXPECT_EQ(sealed.count, 3 * busy_lanes);  // two full + one partial each
  EXPECT_EQ(sealed.sum, accepted);
  EXPECT_EQ(sealed.buckets[obs::Histogram::BucketIndex(block)],
            2 * busy_lanes);
  EXPECT_EQ(sealed.buckets[obs::Histogram::BucketIndex(5)], busy_lanes);
  EXPECT_EQ(sealed.buckets[obs::Histogram::BucketIndex(0)], 0);
  EXPECT_EQ(seconds->Merge().count, sealed.count);
}

TEST(ServeEpochTest, LifecycleIsEnforced) {
  auto oracle = fo::MakeOracle(fo::Protocol::kOue, 8, 1.0);
  EpochManager manager(*oracle, CollectorOptions{.lanes = 2});
  EXPECT_FALSE(manager.open());
  EXPECT_THROW(manager.collector(), InvalidArgumentError);
  EXPECT_THROW(manager.Seal(), InvalidArgumentError);

  EXPECT_EQ(manager.OpenEpoch(), 0);
  EXPECT_TRUE(manager.open());
  EXPECT_THROW(manager.OpenEpoch(), InvalidArgumentError);

  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const auto frame =
        fo::SerializeReport(*oracle, oracle->Randomize(i % 8, rng));
    EXPECT_TRUE(manager.collector().Ingest({frame, std::nullopt, i}).accepted);
  }
  const EstimateSnapshot& first = manager.Seal();
  EXPECT_EQ(first.epoch, 0);
  EXPECT_EQ(first.n, 10);
  EXPECT_FALSE(manager.open());

  // The next epoch starts from zero: sealing resets the lanes.
  EXPECT_EQ(manager.OpenEpoch(), 1);
  const EstimateSnapshot& second = manager.Seal();
  EXPECT_EQ(second.epoch, 1);
  EXPECT_EQ(second.n, 0);
  EXPECT_TRUE(second.frequencies.empty());
  ASSERT_EQ(manager.snapshots().size(), 2u);
  EXPECT_EQ(manager.snapshots()[0].n, 10);
}

// The closed-form lane feed (fast simulation profile) tallies reports and
// synthetic bytes like wire ingest does.
TEST(ServeEpochTest, HistogramIngestCountsReports) {
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, 6, 1.0);
  EpochManager manager(*oracle, CollectorOptions{.lanes = 2});
  manager.OpenEpoch();
  Rng rng(11);
  const std::vector<long long> histogram = {100, 50, 25, 12, 6, 7};
  manager.collector().IngestHistogram(0, histogram, rng);
  manager.collector().IngestHistogram(1, histogram, rng);
  const EstimateSnapshot& snapshot = manager.Seal();
  EXPECT_EQ(snapshot.n, 400);
  EXPECT_EQ(snapshot.stats.reports, 400);
  EXPECT_EQ(snapshot.stats.bytes,
            400 * static_cast<long long>(manager.report_bytes()));
  long long total = 0;
  for (long long c : snapshot.counts) total += c;
  EXPECT_EQ(total, 400);  // GRR closed form is sum-preserving
}

}  // namespace
}  // namespace ldpr::serve
