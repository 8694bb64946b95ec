// Longitudinal serving pipeline (serve/longitudinal): window seals on the
// sliding/overlapping schedules must be bit-identical to a batch aggregator
// fed the union of the member epochs' reports (the delta path may not
// drift), memoized replays must be charged eps = 0 with the cumulative
// budget sublinear in the number of epochs (and exactly linear with
// memoization off), ledger totals must be exact under any lane/thread
// configuration, and the bounded history cap must evict oldest-first.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/check.h"
#include "core/sampling.h"
#include "data/longitudinal.h"
#include "fo/bitslice.h"
#include "fo/factory.h"
#include "fo/wire.h"
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

// ---------------------------------------------------------------------------
// EpochSchedule arithmetic
// ---------------------------------------------------------------------------

TEST(EpochScheduleTest, FixedWindowsTumble) {
  const EpochSchedule schedule = EpochSchedule::Fixed(3);
  EXPECT_EQ(schedule.kind(), WindowKind::kFixed);
  EXPECT_EQ(schedule.length(), 3);
  EXPECT_EQ(schedule.stride(), 3);
  // Windows [0..2], [3..5], ...: one completes every third epoch.
  EXPECT_EQ(schedule.CompletedWindow(0), -1);
  EXPECT_EQ(schedule.CompletedWindow(1), -1);
  EXPECT_EQ(schedule.CompletedWindow(2), 0);
  EXPECT_EQ(schedule.CompletedWindow(3), -1);
  EXPECT_EQ(schedule.CompletedWindow(5), 1);
  EXPECT_EQ(schedule.CompletedWindow(8), 2);
  EXPECT_EQ(schedule.FirstEpoch(2), 6);
  EXPECT_EQ(schedule.LastEpoch(2), 8);
}

TEST(EpochScheduleTest, SlidingWindowsAdvanceEveryEpoch) {
  const EpochSchedule schedule = EpochSchedule::Sliding(4);
  EXPECT_EQ(schedule.kind(), WindowKind::kSliding);
  for (long long e = 0; e < 3; ++e) {
    EXPECT_EQ(schedule.CompletedWindow(e), -1) << "epoch " << e;
  }
  for (long long e = 3; e < 20; ++e) {
    const long long w = schedule.CompletedWindow(e);
    EXPECT_EQ(w, e - 3);
    EXPECT_EQ(schedule.FirstEpoch(w), e - 3);
    EXPECT_EQ(schedule.LastEpoch(w), e);
  }
}

TEST(EpochScheduleTest, OverlappingWindowsAdvanceByStride) {
  const EpochSchedule schedule = EpochSchedule::Overlapping(4, 2);
  EXPECT_EQ(schedule.kind(), WindowKind::kOverlapping);
  // Windows [0..3], [2..5], [4..7], ...: completions at 3, 5, 7, ...
  EXPECT_EQ(schedule.CompletedWindow(3), 0);
  EXPECT_EQ(schedule.CompletedWindow(4), -1);
  EXPECT_EQ(schedule.CompletedWindow(5), 1);
  EXPECT_EQ(schedule.CompletedWindow(7), 2);
  EXPECT_EQ(schedule.FirstEpoch(1), 2);
  EXPECT_EQ(schedule.LastEpoch(1), 5);
}

TEST(EpochScheduleTest, ParseAcceptsTheDemoSpecs) {
  EXPECT_EQ(ParseEpochSchedule("fixed").length(), 1);
  EXPECT_EQ(ParseEpochSchedule("fixed:5").stride(), 5);
  EXPECT_EQ(ParseEpochSchedule("sliding:3").kind(), WindowKind::kSliding);
  EXPECT_EQ(ParseEpochSchedule("overlap:4:2").stride(), 2);
  EXPECT_EQ(ParseEpochSchedule("overlapping:4:2").length(), 4);
}

TEST(EpochScheduleTest, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(ParseEpochSchedule(""), InvalidArgumentError);
  EXPECT_THROW(ParseEpochSchedule("bogus"), InvalidArgumentError);
  EXPECT_THROW(ParseEpochSchedule("sliding"), InvalidArgumentError);
  EXPECT_THROW(ParseEpochSchedule("sliding:0"), InvalidArgumentError);
  EXPECT_THROW(ParseEpochSchedule("fixed:x"), InvalidArgumentError);
  EXPECT_THROW(ParseEpochSchedule("overlap:4"), InvalidArgumentError);
  // stride > length is not a window sequence.
  EXPECT_THROW(ParseEpochSchedule("overlap:2:3"), InvalidArgumentError);
}

// ---------------------------------------------------------------------------
// Window seals vs from-scratch recompute
// ---------------------------------------------------------------------------

class ServeLongitudinalTest : public ::testing::TestWithParam<fo::Protocol> {
};

INSTANTIATE_TEST_SUITE_P(AllProtocols, ServeLongitudinalTest,
                         ::testing::ValuesIn(fo::AllProtocols()),
                         [](const auto& info) {
                           return std::string(fo::ProtocolName(info.param));
                         });

// Acceptance: the running-delta window estimate equals a batch aggregator
// fed the union of the member epochs' wire frames, bitwise — sliding and
// overlapping schedules alike.
TEST_P(ServeLongitudinalTest, WindowSealsBitIdenticalToBatchRecompute) {
  const int k = 19;
  const int n = 400;
  const int epochs = 7;
  auto oracle = fo::MakeOracle(GetParam(), k, 1.5);

  for (const EpochSchedule& schedule :
       {EpochSchedule::Sliding(3), EpochSchedule::Overlapping(4, 2)}) {
    LongitudinalOptions options;
    options.schedule = schedule;
    options.collector.lanes = 3;
    LongitudinalCollector collector(*oracle, options);

    Rng rng(301);
    std::vector<EncodedStream> streams;
    for (int e = 0; e < epochs; ++e) {
      Rng root = rng.Split();
      const EncodedStream stream =
          EncodeScalarLoad(*oracle, ZipfValues(n, k, rng), root);
      collector.OpenEpoch();
      EXPECT_EQ(IngestStreamUsers(collector, stream), n);
      collector.Seal();
      streams.push_back(stream);
    }

    ASSERT_FALSE(collector.windows().empty());
    for (const WindowSnapshot& window : collector.windows()) {
      // From-scratch reference: decode every member epoch's frames into one
      // batch aggregator.
      auto batch = oracle->MakeAggregator();
      for (long long e = window.first_epoch; e <= window.last_epoch; ++e) {
        const EncodedStream& stream = streams[static_cast<std::size_t>(e)];
        for (long long i = 0; i < stream.count; ++i) {
          batch->Accumulate(fo::DeserializeReport(
              *oracle, std::vector<std::uint8_t>(
                           stream.frame(i),
                           stream.frame(i) + stream.frame_bytes)));
        }
      }
      EXPECT_EQ(window.n, batch->n());
      EXPECT_EQ(window.counts, batch->counts());
      EXPECT_EQ(window.frequencies, batch->Estimate());
      EXPECT_EQ(window.consistent,
                batch->Estimate(fo::ConsistencyMethod::kNormSub));
      EXPECT_EQ(window.last_epoch - window.first_epoch + 1,
                schedule.length());
    }
  }
}

// Memoized replays ride the same staged-ingest path as fresh frames: with a
// sliding window over epochs whose sizes straddle the block-flush boundary
// (n = kBlockRows + 2), every window seal and every ledger figure must be
// identical whatever the lane count — replayed frames decode through
// AccumulateWireBlock exactly like first-time frames.
TEST_P(ServeLongitudinalTest, MemoizedReplayWindowsAreLaneAndFlushInvariant) {
  const int k = 13;
  const int n = fo::bitslice::kBlockRows + 2;
  const int epochs = 6;
  auto oracle = fo::MakeOracle(GetParam(), k, 1.5);

  // One fixed traffic trace: a memoizing population re-reporting mostly
  // static values (every round after the first is mostly verbatim replays).
  Rng seed_rng(611);
  std::vector<int> values = ZipfValues(n, k, seed_rng);
  LongitudinalClients clients(*oracle, n, /*memoize=*/true);
  Rng root(612);
  std::vector<EncodedStream> streams;
  for (int e = 0; e < epochs; ++e) {
    if (e == 3) values[5] = (values[5] + 1) % k;  // a little churn
    streams.push_back(clients.EncodeRound(values, root));
  }

  std::deque<WindowSnapshot> reference;
  for (int lanes : {1, 2, 5}) {
    LongitudinalOptions options;
    options.schedule = EpochSchedule::Sliding(3);
    options.collector.lanes = lanes;
    LongitudinalCollector collector(*oracle, options);
    for (const EncodedStream& stream : streams) {
      collector.OpenEpoch();
      EXPECT_EQ(IngestStreamUsers(collector, stream), n);
      collector.Seal();
    }
    ASSERT_FALSE(collector.windows().empty());
    if (lanes == 1) {
      reference = collector.windows();
      continue;
    }
    ASSERT_EQ(collector.windows().size(), reference.size());
    for (std::size_t w = 0; w < reference.size(); ++w) {
      const WindowSnapshot& got = collector.windows()[w];
      const WindowSnapshot& want = reference[w];
      EXPECT_EQ(got.counts, want.counts) << "lanes=" << lanes << " w=" << w;
      EXPECT_EQ(got.frequencies, want.frequencies);
      EXPECT_EQ(got.consistent, want.consistent);
      EXPECT_EQ(got.n, want.n);
    }
    // Replay classification is staged-path independent too.
    for (std::size_t e = 0; e < collector.snapshots().size(); ++e) {
      EXPECT_EQ(collector.snapshots()[e].ledger.fresh,
                e == 0 ? n : (e == 3 ? 1 : 0))
          << "lanes=" << lanes << " epoch=" << e;
    }
  }
}

// ---------------------------------------------------------------------------
// Ledger semantics
// ---------------------------------------------------------------------------

// Memoization on, static values: only epoch 0 is charged. The cumulative
// budget is n*eps forever (sublinear in the number of epochs) while every
// epoch still contributes n reports to the estimate.
TEST_P(ServeLongitudinalTest, StaticPopulationBudgetIsFlatAfterEpochZero) {
  const int k = 16;
  const int n = 300;
  const int epochs = 5;
  const double eps = 1.25;
  auto oracle = fo::MakeOracle(GetParam(), k, eps);

  LongitudinalCollector collector(*oracle, {});
  LongitudinalClients clients(*oracle, n, /*memoize=*/true);
  Rng seed_rng(88);
  const std::vector<int> values = ZipfValues(n, k, seed_rng);
  Rng root(89);

  for (int e = 0; e < epochs; ++e) {
    collector.OpenEpoch();
    EXPECT_EQ(IngestStreamUsers(collector, clients.EncodeRound(values, root)),
              n);
    const EstimateSnapshot& sealed = collector.Seal();

    EXPECT_EQ(sealed.n, n) << "replays still count toward the estimate";
    if (e == 0) {
      EXPECT_EQ(sealed.ledger.fresh, n);
      EXPECT_EQ(sealed.ledger.memoized, 0);
    } else {
      EXPECT_EQ(sealed.ledger.fresh, 0) << "epoch " << e;
      EXPECT_EQ(sealed.ledger.memoized, n);
      EXPECT_DOUBLE_EQ(sealed.ledger.total_epsilon, 0.0);
    }
    // Cumulative: only the n permanent answers are ever charged.
    EXPECT_DOUBLE_EQ(sealed.cumulative_ledger.total_epsilon,
                     static_cast<double>(n) * eps);
    EXPECT_DOUBLE_EQ(sealed.cumulative_ledger.worst_attribute_epsilon,
                     static_cast<double>(n) * eps);
    EXPECT_EQ(sealed.cumulative_ledger.users, n);
    EXPECT_DOUBLE_EQ(sealed.cumulative_ledger.mean_user_epsilon, eps);
    EXPECT_DOUBLE_EQ(sealed.cumulative_ledger.max_user_epsilon, eps);
    EXPECT_DOUBLE_EQ(
        sealed.cumulative_ledger.MemoizationHitRate(),
        static_cast<double>(e) / static_cast<double>(e + 1));
  }
  // Client- and server-side classification agree exactly.
  EXPECT_EQ(clients.fresh_randomizations(), n);
  EXPECT_EQ(clients.memoized_replays(),
            static_cast<long long>(epochs - 1) * n);
}

// Memoization off: every round is a fresh randomization and the budget is
// exactly linear — including for low-entropy GRR frames where chance
// collisions would otherwise be mis-credited as replays.
TEST_P(ServeLongitudinalTest, NoMemoizationBudgetIsExactlyLinear) {
  const int k = 16;
  const int n = 300;
  const int epochs = 5;
  const double eps = 1.25;
  auto oracle = fo::MakeOracle(GetParam(), k, eps);

  LongitudinalOptions options;
  options.memoized_replays_free = false;
  LongitudinalCollector collector(*oracle, options);
  LongitudinalClients clients(*oracle, n, /*memoize=*/false);
  Rng seed_rng(88);
  const std::vector<int> values = ZipfValues(n, k, seed_rng);
  Rng root(89);

  for (int e = 0; e < epochs; ++e) {
    collector.OpenEpoch();
    EXPECT_EQ(IngestStreamUsers(collector, clients.EncodeRound(values, root)),
              n);
    const EstimateSnapshot& sealed = collector.Seal();
    EXPECT_EQ(sealed.ledger.fresh, n);
    EXPECT_EQ(sealed.ledger.memoized, 0);
    EXPECT_DOUBLE_EQ(sealed.cumulative_ledger.total_epsilon,
                     static_cast<double>(e + 1) * n * eps);
    EXPECT_DOUBLE_EQ(sealed.cumulative_ledger.MemoizationHitRate(), 0.0);
    EXPECT_DOUBLE_EQ(sealed.cumulative_ledger.mean_user_epsilon,
                     static_cast<double>(e + 1) * eps);
    EXPECT_DOUBLE_EQ(sealed.cumulative_ledger.max_user_epsilon,
                     static_cast<double>(e + 1) * eps);
  }
  EXPECT_EQ(clients.fresh_randomizations(),
            static_cast<long long>(epochs) * n);
  EXPECT_EQ(clients.memoized_replays(), 0);
}

// A value change breaks the permanent answer: the client randomizes fresh
// and the server's classification charges it. Client- and server-side
// tallies agree per epoch under churn.
TEST(ServeLongitudinalLedgerTest, ValueChangesAreChargedFresh) {
  const int k = 32;
  const int n = 500;
  const double eps = 1.0;
  auto oracle = fo::MakeOracle(fo::Protocol::kOue, k, eps);

  data::LongitudinalConfig config;
  config.rounds = 6;
  config.change_probability = 0.3;
  config.drift = data::DriftKind::kStationary;
  config.seed = 505;
  const std::vector<std::vector<int>> rounds =
      data::GenerateScalarRounds(ZipfDistribution(k, 1.1), n, config);

  LongitudinalCollector collector(*oracle, {});
  LongitudinalClients clients(*oracle, n, /*memoize=*/true);
  Rng root(506);
  long long client_fresh_before = 0;
  for (const std::vector<int>& values : rounds) {
    // Expected fresh this round: users whose value has no cached permanent
    // answer yet (the client memoizes per distinct value ever reported).
    collector.OpenEpoch();
    IngestStreamUsers(collector, clients.EncodeRound(values, root));
    const EstimateSnapshot& sealed = collector.Seal();
    const long long client_fresh =
        clients.fresh_randomizations() - client_fresh_before;
    client_fresh_before = clients.fresh_randomizations();
    EXPECT_EQ(sealed.ledger.fresh, client_fresh);
    EXPECT_EQ(sealed.ledger.memoized, n - client_fresh);
    EXPECT_DOUBLE_EQ(sealed.ledger.total_epsilon,
                     static_cast<double>(client_fresh) * eps);
  }
  // Churn happened: the budget actually sits between the two extremes.
  const long long total_fresh = clients.fresh_randomizations();
  EXPECT_GT(total_fresh, n);
  EXPECT_LT(total_fresh, static_cast<long long>(config.rounds) * n);
}

// Ledger totals and estimates are exact under any lane count and producer
// thread count (integer tallies, bulk conversion at seal).
TEST(ServeLongitudinalLedgerTest, LedgerIsLaneAndThreadCountIndependent) {
  const int k = 24;
  const int n = 2000;
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, k, 2.0);

  data::LongitudinalConfig config;
  config.rounds = 4;
  config.change_probability = 0.2;
  config.drift = data::DriftKind::kStationary;
  config.seed = 606;
  const std::vector<std::vector<int>> rounds =
      data::GenerateScalarRounds(ZipfDistribution(k, 1.1), n, config);

  privacy::LedgerReport reference;
  EstimateSnapshot reference_snapshot;
  bool have_reference = false;
  for (const auto& [lanes, threads] :
       std::vector<std::pair<int, int>>{{1, 1}, {3, 2}, {8, 4}}) {
    LongitudinalOptions options;
    options.collector.lanes = lanes;
    LongitudinalCollector collector(*oracle, options);
    // Same root seed per configuration: the client traffic is byte-identical
    // under any thread count (sim::ShardedRun).
    LongitudinalClients clients(*oracle, n, /*memoize=*/true);
    Rng root(607);
    sim::Options encode_options;
    encode_options.threads = threads;
    const EstimateSnapshot* sealed = nullptr;
    for (const std::vector<int>& values : rounds) {
      collector.OpenEpoch();
      IngestStreamUsers(collector,
                        clients.EncodeRound(values, root, encode_options),
                        /*first_user=*/0, threads);
      sealed = &collector.Seal();
    }
    ASSERT_NE(sealed, nullptr);
    if (!have_reference) {
      reference = sealed->cumulative_ledger;
      reference_snapshot = *sealed;
      have_reference = true;
      continue;
    }
    EXPECT_EQ(sealed->cumulative_ledger.fresh, reference.fresh)
        << "lanes=" << lanes << " threads=" << threads;
    EXPECT_EQ(sealed->cumulative_ledger.memoized, reference.memoized);
    EXPECT_EQ(sealed->cumulative_ledger.users, reference.users);
    EXPECT_EQ(sealed->cumulative_ledger.total_epsilon,
              reference.total_epsilon);
    EXPECT_EQ(sealed->cumulative_ledger.mean_user_epsilon,
              reference.mean_user_epsilon);
    EXPECT_EQ(sealed->cumulative_ledger.max_user_epsilon,
              reference.max_user_epsilon);
    EXPECT_EQ(sealed->counts, reference_snapshot.counts);
    EXPECT_EQ(sealed->frequencies, reference_snapshot.frequencies);
  }
}

// Reports ingested without a user id (the direct collector() path, e.g. the
// fast-profile histogram feed) are charged as fresh randomizations.
TEST(ServeLongitudinalLedgerTest, AnonymousIngestIsChargedFresh) {
  const double eps = 0.75;
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, 8, eps);
  LongitudinalCollector collector(*oracle, {});
  collector.OpenEpoch();
  Rng rng(9);
  const std::vector<long long> histogram = {40, 20, 10, 5, 5, 5, 5, 10};
  collector.collector().IngestHistogram(0, histogram, rng);
  const EstimateSnapshot& sealed = collector.Seal();
  EXPECT_EQ(sealed.ledger.fresh, 100);
  EXPECT_EQ(sealed.ledger.memoized, 0);
  EXPECT_DOUBLE_EQ(sealed.ledger.total_epsilon, 100.0 * eps);
  // No users were tracked, so per-user fields stay empty.
  EXPECT_EQ(sealed.cumulative_ledger.users, 0);
  EXPECT_DOUBLE_EQ(sealed.cumulative_ledger.mean_user_epsilon, 0.0);
}

TEST(ServeLongitudinalLedgerTest, IngestOutsideAnEpochIsAClosedEpochReject) {
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, 8, 1.0);
  LongitudinalCollector collector(*oracle, {});
  Rng rng(3);
  const auto frame =
      fo::SerializeReport(*oracle, oracle->Randomize(2, rng));
  // A report arriving between epochs is a counted reject, not an error:
  // socket transports keep draining while the pipeline rolls epochs.
  const IngestResult between = collector.Ingest({frame, 0});
  EXPECT_FALSE(between.accepted);
  EXPECT_EQ(between.reason, RejectReason::kClosedEpoch);
  collector.OpenEpoch();
  EXPECT_TRUE(collector.Ingest({frame, 0}).accepted);
  // Malformed frames are rejected, not classified.
  std::vector<std::uint8_t> truncated(frame.begin(), frame.end());
  truncated.pop_back();
  const IngestResult malformed = collector.Ingest({truncated, 0});
  EXPECT_FALSE(malformed.accepted);
  EXPECT_EQ(malformed.reason, RejectReason::kMalformed);
  const EstimateSnapshot& sealed = collector.Seal();
  EXPECT_EQ(sealed.ledger.fresh, 1);
  EXPECT_EQ(sealed.stats.rejected, 1);
  // The between-epochs reject folds into the first seal after it happened.
  EXPECT_EQ(sealed.stats.closed_epoch, 1);
}

// Seal() racing a live producer: every frame lands wholly in one epoch (its
// estimate and its ledger) or is a counted kClosedEpoch reject, never in
// one epoch's replay tallies and the next epoch's lanes. Anonymous frames
// are rare so an epoch's tallies cannot hide a misfiled attributed frame.
TEST(ServeLongitudinalLedgerTest, SealRacingAProducerFilesEveryFrameOnce) {
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, 8, 1.0);
  LongitudinalOptions options;
  options.collector.lanes = 2;
  // Users cycle through a bounded id range; with one report per epoch off,
  // a repeat classifies by hash instead of being refused, so every frame
  // is either accepted or a closed-epoch reject.
  options.one_report_per_epoch = false;
  LongitudinalCollector collector(*oracle, options);
  std::vector<std::vector<std::uint8_t>> frames;
  for (int v = 0; v < oracle->k(); ++v) {
    fo::Report report;
    report.value = v;
    frames.push_back(fo::SerializeReport(*oracle, report));
  }

  std::atomic<bool> stop{false};
  std::atomic<long long> sent{0};
  std::thread producer([&] {
    for (long long i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      IngestRequest request{frames[static_cast<std::size_t>(i % 8)]};
      if (i % 256 != 0) request.user = i % (1 << 16);
      request.lane = static_cast<int>(i % 2);
      collector.Ingest(request);
      sent.store(i + 1, std::memory_order_relaxed);
    }
  });
  // Start cycling only once the producer is streaming.
  while (sent.load(std::memory_order_relaxed) < 1000) {
    std::this_thread::yield();
  }

  const int cycles = 2000;
  long long accepted = 0;
  long long closed = 0;
  int throws = 0;
  int mismatched = 0;
  auto seal = [&] {
    try {
      const EstimateSnapshot& sealed = collector.Seal();
      accepted += sealed.stats.reports;
      closed += sealed.stats.closed_epoch;
      if (sealed.ledger.fresh + sealed.ledger.memoized !=
              sealed.stats.reports ||
          sealed.n != sealed.stats.reports) {
        ++mismatched;
      }
    } catch (const std::exception&) {
      ++throws;
    }
  };
  for (int c = 0; c < cycles && throws == 0; ++c) {
    collector.OpenEpoch();
    seal();
  }
  stop.store(true, std::memory_order_relaxed);
  producer.join();
  // Rejects that arrived after the last seal fold into one more epoch.
  if (throws == 0) {
    collector.OpenEpoch();
    seal();
  }

  EXPECT_EQ(throws, 0);
  EXPECT_EQ(mismatched, 0);
  EXPECT_EQ(accepted + closed, sent.load());
}

// Per-user ledger stats (users, mean and worst per-user epsilon) after every
// seal equal a brute-force recount over a (user -> frames seen) model, for
// users that churn every epoch, never change, flip A -> B -> A (a replay
// the newest-frame check misses) or re-draw from a small set; with
// same-epoch duplicates and anonymous frames mixed in.
class ServeLongitudinalUserStatsTest
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    ShardsReplaysAdmission, ServeLongitudinalUserStatsTest,
    ::testing::Combine(::testing::Values(1, 64), ::testing::Bool(),
                       ::testing::Bool()),
    [](const auto& info) {
      return "shards" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_memo" : "_nomemo") +
             (std::get<2>(info.param) ? "_onePerEpoch" : "_repeats");
    });

TEST_P(ServeLongitudinalUserStatsTest, MatchesBruteForceRecount) {
  const auto [shards, trust_replays, one_per_epoch] = GetParam();
  const int k = 16;
  const int users = 300;
  const int epochs = 24;
  const double eps = 0.7;
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, k, eps);
  std::vector<std::vector<std::uint8_t>> frames;
  for (int v = 0; v < k; ++v) {
    fo::Report report;
    report.value = v;
    frames.push_back(fo::SerializeReport(*oracle, report));
  }

  LongitudinalOptions options;
  options.collector.lanes = 3;
  options.user_shards = shards;
  options.memoized_replays_free = trust_replays;
  options.one_report_per_epoch = one_per_epoch;
  LongitudinalCollector collector(*oracle, options);

  struct ModelUser {
    std::set<int> seen;
    long long fresh = 0;
    long long last_epoch = -1;
  };
  std::map<long long, ModelUser> model;
  Rng rng(1401);
  for (int e = 0; e < epochs; ++e) {
    collector.OpenEpoch();
    long long epoch_fresh = 0;
    long long epoch_memoized = 0;
    auto send = [&](long long user, int value) {
      ModelUser& m = model[user];
      const bool duplicate = one_per_epoch && m.last_epoch == e;
      const IngestResult result = collector.Ingest(
          {frames[static_cast<std::size_t>(value)], user,
           static_cast<int>(user % 3)});
      EXPECT_EQ(result.accepted, !duplicate);
      if (duplicate) return;
      m.last_epoch = e;
      if (trust_replays && !m.seen.insert(value).second) {
        ++epoch_memoized;
        return;
      }
      ++m.fresh;
      ++epoch_fresh;
    };
    for (long long u = 0; u < users; ++u) {
      const int a = static_cast<int>(u % k);
      const int b = static_cast<int>((u + 5) % k);
      int value = a;
      switch (u % 4) {
        case 0:  // churns every epoch, revisiting values after k epochs
          value = static_cast<int>((u + e) % k);
          break;
        case 1:  // never changes
          break;
        case 2:  // A -> B -> A -> ...
          value = e % 2 == 0 ? a : b;
          break;
        default:  // re-draws from {a, b, c}
          value = static_cast<int>(
              (u + 5 * static_cast<long long>(rng.UniformInt(3))) % k);
          break;
      }
      // Users join over time, so the population (and the worst user)
      // changes between seals.
      if (u >= 50 + 10 * e) continue;
      send(u, value);
      // Same-epoch repeats: the same frame and a different one.
      if (u % 7 == 0) send(u, value);
      if (u % 11 == 0) send(u, (value + 1) % k);
    }
    // A few anonymous frames, charged fresh but attributed to no user.
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(collector.Ingest({frames[static_cast<std::size_t>(i)]})
                      .accepted);
    }
    const EstimateSnapshot& sealed = collector.Seal();

    long long total_fresh = 0;
    long long max_fresh = 0;
    for (const auto& [user, m] : model) {
      total_fresh += m.fresh;
      max_fresh = std::max(max_fresh, m.fresh);
    }
    const long long tracked = static_cast<long long>(model.size());
    const privacy::LedgerReport& cumulative = sealed.cumulative_ledger;
    EXPECT_EQ(sealed.ledger.fresh, epoch_fresh + 5) << "epoch " << e;
    EXPECT_EQ(sealed.ledger.memoized, epoch_memoized) << "epoch " << e;
    EXPECT_EQ(cumulative.users, tracked) << "epoch " << e;
    EXPECT_EQ(cumulative.mean_user_epsilon,
              static_cast<double>(total_fresh) /
                  static_cast<double>(tracked) * eps)
        << "epoch " << e;
    EXPECT_EQ(cumulative.max_user_epsilon,
              static_cast<double>(max_fresh) * eps)
        << "epoch " << e;
  }
}

// ---------------------------------------------------------------------------
// Snapshot deltas and bounded history
// ---------------------------------------------------------------------------

TEST(ServeLongitudinalTestDeltas, DiffSnapshotsIsExact) {
  const int k = 12;
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, k, 1.0);
  LongitudinalCollector collector(*oracle, {});
  Rng rng(77);
  for (int e = 0; e < 2; ++e) {
    collector.OpenEpoch();
    Rng root = rng.Split();
    IngestStreamUsers(
        collector, EncodeScalarLoad(*oracle, ZipfValues(200, k, rng), root));
    collector.Seal();
  }
  const EstimateSnapshot& a = collector.snapshots()[0];
  const EstimateSnapshot& b = collector.snapshots()[1];
  const SnapshotDelta delta = DiffSnapshots(a, b);
  EXPECT_EQ(delta.from_epoch, 0);
  EXPECT_EQ(delta.to_epoch, 1);
  ASSERT_EQ(delta.count_delta.size(), static_cast<std::size_t>(k));
  double l1 = 0.0;
  for (int v = 0; v < k; ++v) {
    EXPECT_EQ(delta.count_delta[v], b.counts[v] - a.counts[v]);
    EXPECT_DOUBLE_EQ(delta.frequency_delta[v],
                     b.frequencies[v] - a.frequencies[v]);
    l1 += std::abs(b.frequencies[v] - a.frequencies[v]);
  }
  EXPECT_DOUBLE_EQ(delta.l1_drift, l1);

  EstimateSnapshot mismatched;
  mismatched.counts.assign(k + 1, 0);
  EXPECT_THROW(DiffSnapshots(a, mismatched), InvalidArgumentError);
}

TEST(ServeLongitudinalTestDeltas, HistoryCapEvictsOldestFirst) {
  const int k = 8;
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, k, 1.0);
  LongitudinalOptions options;
  options.schedule = EpochSchedule::Sliding(2);
  options.history_cap = 3;
  LongitudinalCollector collector(*oracle, options);
  Rng rng(13);
  for (int e = 0; e < 10; ++e) {
    collector.OpenEpoch();
    Rng root = rng.Split();
    IngestStreamUsers(
        collector, EncodeScalarLoad(*oracle, ZipfValues(50, k, rng), root));
    collector.Seal();
  }
  ASSERT_EQ(collector.snapshots().size(), 3u);
  EXPECT_EQ(collector.snapshots().front().epoch, 7);
  EXPECT_EQ(collector.snapshots().back().epoch, 9);
  // Windows complete at epochs 1..9 (w = 0..8); the cap keeps the last 3.
  ASSERT_EQ(collector.windows().size(), 3u);
  EXPECT_EQ(collector.windows().front().window, 6);
  EXPECT_EQ(collector.windows().front().first_epoch, 6);
  EXPECT_EQ(collector.windows().back().last_epoch, 9);
  // The cumulative ledger survives eviction: all 10 epochs stay counted.
  EXPECT_EQ(collector.cumulative_ledger().fresh +
                collector.cumulative_ledger().memoized,
            500);
}

// The default (cap 0) keeps everything — the legacy EpochManager contract.
TEST(ServeLongitudinalTestDeltas, DefaultHistoryIsUnbounded) {
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, 8, 1.0);
  EpochManager manager(*oracle);
  for (int e = 0; e < 12; ++e) {
    manager.OpenEpoch();
    manager.Seal();
  }
  EXPECT_EQ(manager.snapshots().size(), 12u);
  EXPECT_EQ(manager.snapshots().front().epoch, 0);
}

}  // namespace
}  // namespace ldpr::serve
