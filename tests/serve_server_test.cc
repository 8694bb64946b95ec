// Tests for the network front door: token-bucket refill arithmetic
// (admission), the wire-record framer under torn reads and random split
// points (wire_session), the chunk-at-a-time IngestAll pull path against
// per-record Ingest (bit-identical counters, snapshots and ledgers, and a
// Seal racing a chunk), duplicate (user, epoch) rejection through the
// unified IngestRequest API, the socket server end to end over a
// Unix-domain socket — sealed snapshots must be bit-identical to the same
// frames pushed through the in-process path — and the admin scrape
// endpoint, whose /metrics counters must equal the sealed snapshot's
// IngestCounters exactly, including mid-stream scrapes and after scrapers
// that hang up before reading their response. Runs under the ASan fast
// label.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "fo/factory.h"
#include "fo/wire.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/collector.h"
#include "serve/loadgen.h"
#include "serve/longitudinal.h"
#include "serve/server.h"
#include "serve/wire_session.h"

namespace ldpr::serve {
namespace {

// ---------------------------------------------------------------------------
// Token buckets: exact refill arithmetic under a synthetic clock
// ---------------------------------------------------------------------------

TEST(TokenBucketTest, RefillArithmeticIsExact) {
  TokenBucket bucket(10.0, 5.0, /*now=*/100.0);  // starts full
  EXPECT_DOUBLE_EQ(bucket.Available(100.0), 5.0);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(bucket.TryAcquire(100.0));
  EXPECT_FALSE(bucket.TryAcquire(100.0));
  EXPECT_DOUBLE_EQ(bucket.Available(100.0), 0.0);
  // One token refills in exactly 1/rate seconds.
  EXPECT_DOUBLE_EQ(bucket.DelayUntil(100.0), 0.1);
  EXPECT_FALSE(bucket.TryAcquire(100.05));  // only half a token back
  EXPECT_TRUE(bucket.TryAcquire(100.2));    // two tokens back, takes one
  // Refill clamps at burst no matter how long the idle stretch.
  EXPECT_DOUBLE_EQ(bucket.Available(1.0e9), 5.0);
}

TEST(TokenBucketTest, RefillAcrossEpochBoundaries) {
  // The pipeline rolls epochs on a fixed period; a bucket paused near the
  // end of one epoch must carry its exact fractional balance across the
  // boundary — refill depends only on elapsed time, never on epoch count.
  const double epoch_seconds = 1.0;
  TokenBucket bucket(4.0, 8.0, /*now=*/0.0);
  // Drain the burst just before the boundary.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(bucket.TryAcquire(0.9 * epoch_seconds));
  }
  EXPECT_DOUBLE_EQ(bucket.Available(0.9 * epoch_seconds), 0.0);
  // 0.1 s straddling the boundary refills 0.4 tokens, not a fresh burst.
  EXPECT_DOUBLE_EQ(bucket.Available(1.0 * epoch_seconds), 0.4);
  EXPECT_FALSE(bucket.TryAcquire(1.0 * epoch_seconds));
  // A whole epoch later: 0.4 + 4.0, still below burst.
  EXPECT_DOUBLE_EQ(bucket.Available(2.0 * epoch_seconds), 4.4);
  // Clock going backwards must not mint tokens.
  ASSERT_TRUE(bucket.TryAcquire(2.0 * epoch_seconds));
  EXPECT_DOUBLE_EQ(bucket.Available(1.5 * epoch_seconds), 3.4);
}

TEST(TokenBucketTest, ChargeRunsIntoDebtAndConverges) {
  // Pacing charges every record already read (nothing is dropped); the debt
  // delays the resume time so the sustained rate converges to `rate`.
  TokenBucket bucket(10.0, 5.0, /*now=*/0.0);
  for (int i = 0; i < 100; ++i) bucket.Charge(0.0);
  // 100 records against 5 burst: 95 tokens of debt + 1 to proceed.
  EXPECT_DOUBLE_EQ(bucket.DelayUntil(0.0), 9.6);
  // 100 records / (9.6 s + initial burst credit) ~ 10 records/s sustained.
  EXPECT_TRUE(bucket.TryAcquire(9.6));
}

TEST(TokenBucketTest, NonPositiveRateIsUnlimited) {
  TokenBucket bucket(0.0, 0.0, 0.0);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_DOUBLE_EQ(bucket.DelayUntil(0.0), 0.0);
}

TEST(UserAdmissionTableTest, BucketsArePerUser) {
  AdmissionOptions options;
  options.per_user_rate = 1.0;
  options.per_user_burst = 2.0;
  options.shards = 4;
  UserAdmissionTable table(options);
  ASSERT_TRUE(table.enabled());
  EXPECT_TRUE(table.Admit(7, 0.0));
  EXPECT_TRUE(table.Admit(7, 0.0));
  EXPECT_FALSE(table.Admit(7, 0.0));  // burst spent
  EXPECT_TRUE(table.Admit(-3, 0.0));  // negative ids shard correctly
  EXPECT_TRUE(table.Admit(7, 1.0));   // one token back after 1 s
  EXPECT_EQ(table.users(), 2);
}

// ---------------------------------------------------------------------------
// Wire session framing
// ---------------------------------------------------------------------------

struct SessionFixture {
  std::unique_ptr<fo::FrequencyOracle> oracle =
      fo::MakeOracle(fo::Protocol::kGrr, 16, 1.0);
  Collector collector{*oracle, CollectorOptions{.lanes = 1}};

  std::vector<std::uint8_t> ValidFrame(int value, Rng& rng) {
    return fo::SerializeReport(*oracle, oracle->Randomize(value, rng));
  }
};

TEST(WireSessionTest, TornRecordsReassembleAcrossFeeds) {
  SessionFixture fx;
  WireSession session(fx.collector, nullptr, {}, /*lane=*/0, /*now=*/0.0);

  Rng rng(11);
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 3; ++i) {
    AppendWireRecord(static_cast<std::uint64_t>(i), fx.ValidFrame(i, rng),
                     wire);
  }
  // Feed byte by byte: every boundary — mid-header, mid-user-id, mid-frame
  // — must reassemble.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_TRUE(session.Feed({&wire[i], 1}, 0.0));
  }
  EXPECT_EQ(session.counters().records, 3);
  EXPECT_EQ(session.counters().ingest.reports, 3);
  EXPECT_EQ(session.counters().wire_bytes,
            static_cast<long long>(wire.size()));
  EXPECT_EQ(session.buffered(), 0u);
}

TEST(WireSessionTest, MalformedFrameIsCountedButConnectionSurvives) {
  SessionFixture fx;
  WireSession session(fx.collector, nullptr, {}, 0, 0.0);

  Rng rng(5);
  const auto valid = fx.ValidFrame(2, rng);
  std::vector<std::uint8_t> wire;
  // Wrong-sized frame (truncated by one byte): the sink's reject, not a
  // protocol error.
  AppendWireRecord(9, {valid.data(), valid.size() - 1}, wire);
  AppendWireRecord(9, valid, wire);
  ASSERT_TRUE(session.Feed(wire, 0.0));
  EXPECT_EQ(session.counters().records, 2);
  EXPECT_EQ(session.counters().ingest.rejected, 1);
  EXPECT_EQ(session.counters().ingest.reports, 1);
  EXPECT_EQ(session.counters().protocol_errors, 0);
}

TEST(WireSessionTest, UnframeableInputIsAProtocolError) {
  SessionFixture fx;
  // Body shorter than the user id field.
  {
    WireSession session(fx.collector, nullptr, {}, 0, 0.0);
    const std::uint8_t short_body[] = {0x00, 0x03, 0xAA, 0xBB, 0xCC};
    EXPECT_FALSE(session.Feed(short_body, 0.0));
    EXPECT_EQ(session.counters().protocol_errors, 1);
  }
  // Announced frame beyond the session's max_frame bound.
  {
    WireSessionOptions options;
    options.max_frame = 16;
    WireSession session(fx.collector, nullptr, options, 0, 0.0);
    const std::uint8_t huge[] = {0xFF, 0xFF};  // body_length 65535
    EXPECT_FALSE(session.Feed(huge, 0.0));
    EXPECT_EQ(session.counters().protocol_errors, 1);
  }
}

TEST(WireSessionTest, FuzzRandomSplitPointsMatchOneShotFeed) {
  SessionFixture one_shot;
  Rng rng(4242);

  // A traffic mix: valid attributed frames, anonymous frames, wrong-sized
  // frames, random bytes at the exact frame size.
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t user = (i % 5 == 0)
                                   ? kAnonymousUser
                                   : static_cast<std::uint64_t>(i % 37);
    std::vector<std::uint8_t> frame = one_shot.ValidFrame(i % 16, rng);
    switch (i % 7) {
      case 3:
        frame.pop_back();  // wrong size -> sink reject
        break;
      case 5:
        for (auto& b : frame) {  // random bytes, exact size
          b = static_cast<std::uint8_t>(rng.UniformInt(256));
        }
        break;
      default:
        break;
    }
    AppendWireRecord(user, frame, wire);
  }

  WireSession reference(one_shot.collector, nullptr, {}, 0, 0.0);
  ASSERT_TRUE(reference.Feed(wire, 0.0));
  const Collector::Drained ref_drained = one_shot.collector.Drain();

  for (int trial = 0; trial < 25; ++trial) {
    SessionFixture fx;
    WireSession session(fx.collector, nullptr, {}, 0, 0.0);
    std::size_t offset = 0;
    while (offset < wire.size()) {
      const std::size_t chunk =
          1 + static_cast<std::size_t>(rng.UniformInt(
                  static_cast<long long>(wire.size() - offset)));
      ASSERT_TRUE(session.Feed({wire.data() + offset, chunk}, 0.0));
      offset += chunk;
    }
    EXPECT_EQ(session.counters().records, reference.counters().records);
    EXPECT_EQ(session.counters().wire_bytes,
              reference.counters().wire_bytes);
    EXPECT_EQ(session.counters().ingest.reports,
              reference.counters().ingest.reports);
    EXPECT_EQ(session.counters().ingest.rejected,
              reference.counters().ingest.rejected);
    EXPECT_EQ(session.buffered(), 0u);
    // The decoded multiset must match bit for bit, not just the tallies.
    const Collector::Drained drained = fx.collector.Drain();
    EXPECT_EQ(drained.counts, ref_drained.counts) << "trial " << trial;
    EXPECT_EQ(drained.n, ref_drained.n) << "trial " << trial;
  }
}

TEST(WireSessionTest, PacingPausesReadsWithoutDroppingRecords) {
  SessionFixture fx;
  WireSessionOptions options;
  options.conn_rate = 10.0;
  options.conn_burst = 2.0;
  WireSession session(fx.collector, nullptr, options, 0, 0.0);

  Rng rng(3);
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 8; ++i) {
    AppendWireRecord(kAnonymousUser, fx.ValidFrame(i % 16, rng), wire);
  }
  ASSERT_TRUE(session.Feed(wire, /*now=*/0.0));
  // Backpressure, not loss: every record read was processed...
  EXPECT_EQ(session.counters().ingest.reports, 8);
  // ...but the session owes 6 tokens of debt and pauses reads while it
  // refills: 8 charged - 2 burst + 1 to resume = 0.7 s.
  EXPECT_TRUE(session.paused(0.0));
  EXPECT_DOUBLE_EQ(session.resume_at(), 0.7);
  EXPECT_FALSE(session.paused(0.71));
}

TEST(WireSessionTest, PerUserAdmissionRejectsBeforeTheSink) {
  SessionFixture fx;
  AdmissionOptions admission;
  admission.per_user_rate = 1.0;
  admission.per_user_burst = 1.0;
  UserAdmissionTable users(admission);
  WireSession session(fx.collector, &users, {}, 0, 0.0);

  Rng rng(8);
  const auto frame = fx.ValidFrame(4, rng);
  std::vector<std::uint8_t> wire;
  AppendWireRecord(21, frame, wire);
  AppendWireRecord(21, frame, wire);  // over the user's burst
  AppendWireRecord(22, frame, wire);  // a different user is unaffected
  ASSERT_TRUE(session.Feed(wire, 0.0));
  EXPECT_EQ(session.counters().ingest.reports, 2);
  EXPECT_EQ(session.counters().ingest.rate_limited, 1);
  // The rate-limited record never reached the sink's lanes.
  EXPECT_EQ(fx.collector.Drain().n, 2);
}

// ---------------------------------------------------------------------------
// The pull path: WireSession as IngestSource, one lane lock per chunk
// ---------------------------------------------------------------------------

// Keeps IngestSink's default IngestAll, so every record is pushed through
// Ingest on its own: the per-record path the collectors' one-lock-per-run
// IngestAll must reproduce exactly.
class PerRecordSink final : public IngestSink {
 public:
  explicit PerRecordSink(IngestSink& inner) : inner_(inner) {}
  IngestResult Ingest(const IngestRequest& request) override {
    return inner_.Ingest(request);
  }

 private:
  IngestSink& inner_;
};

void ExpectSameIngest(const IngestCounters& a, const IngestCounters& b) {
  EXPECT_EQ(a.reports, b.reports);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.rate_limited, b.rate_limited);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.closed_epoch, b.closed_epoch);
}

void ExpectSameSession(const SessionCounters& a, const SessionCounters& b) {
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.protocol_errors, b.protocol_errors);
  ExpectSameIngest(a.ingest, b.ingest);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void ExpectSameLedger(const privacy::LedgerReport& a,
                      const privacy::LedgerReport& b) {
  EXPECT_TRUE(SameBits({a.total_epsilon, a.worst_attribute_epsilon,
                        a.amplified_epsilon, a.mean_user_epsilon,
                        a.max_user_epsilon},
                       {b.total_epsilon, b.worst_attribute_epsilon,
                        b.amplified_epsilon, b.mean_user_epsilon,
                        b.max_user_epsilon}));
  EXPECT_TRUE(SameBits(a.per_attribute, b.per_attribute));
  EXPECT_EQ(a.fresh, b.fresh);
  EXPECT_EQ(a.memoized, b.memoized);
  EXPECT_EQ(a.users, b.users);
}

// Everything a sealed snapshot holds except its wall-clock timings.
void ExpectSameSnapshot(const EstimateSnapshot& a, const EstimateSnapshot& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_TRUE(SameBits(a.frequencies, b.frequencies));
  EXPECT_TRUE(SameBits(a.consistent, b.consistent));
  EXPECT_EQ(a.stats.reports, b.stats.reports);
  EXPECT_EQ(a.stats.bytes, b.stats.bytes);
  EXPECT_EQ(a.stats.rejected, b.stats.rejected);
  EXPECT_EQ(a.stats.duplicates, b.stats.duplicates);
  EXPECT_EQ(a.stats.rate_limited, b.stats.rate_limited);
  EXPECT_EQ(a.stats.shed, b.stats.shed);
  EXPECT_EQ(a.stats.closed_epoch, b.stats.closed_epoch);
  ExpectSameLedger(a.ledger, b.ledger);
  ExpectSameLedger(a.cumulative_ledger, b.cumulative_ledger);
}

// Feeds `wire` to `session` in random chunks of 1..max_chunk bytes, so
// records tear at every kind of boundary.
void FeedInRandomChunks(WireSession& session,
                        const std::vector<std::uint8_t>& wire,
                        std::size_t max_chunk, double now, Rng& rng) {
  std::size_t offset = 0;
  while (offset < wire.size()) {
    const std::size_t chunk = std::min(
        wire.size() - offset,
        1 + static_cast<std::size_t>(
                rng.UniformInt(static_cast<long long>(max_chunk))));
    ASSERT_TRUE(session.Feed({wire.data() + offset, chunk}, now));
    offset += chunk;
  }
}

// One epoch's traffic for one connection: attributed users (some changing
// value between epochs, so replays and fresh frames mix), anonymous
// frames, duplicates within the epoch, users sending past their admission
// burst, wrong-sized frames and random bytes at the exact frame size. A
// user always reports on the same connection, in the same order, so the
// per-user outcome sequence does not depend on how chunks interleave.
std::vector<std::uint8_t> EpochTraffic(
    const std::vector<std::vector<std::uint8_t>>& frames, int connection,
    int epoch, Rng& rng) {
  const int k = static_cast<int>(frames.size());
  std::vector<std::uint8_t> wire;
  for (int u = connection; u < 60; u += 2) {
    const int value = (u + (u % 3 == 0 ? epoch : 0)) % k;
    std::vector<std::uint8_t> frame = frames[static_cast<std::size_t>(value)];
    if (u % 13 == 4) {
      frame.pop_back();  // wrong size: kMalformed
    } else if (u % 17 == 5) {
      for (auto& b : frame) b = static_cast<std::uint8_t>(rng.UniformInt(256));
    }
    const int sends = u % 11 == 0 ? 3 : (u % 7 == 0 ? 2 : 1);
    for (int i = 0; i < sends; ++i) {
      AppendWireRecord(static_cast<std::uint64_t>(u), frame, wire);
    }
    if (u % 5 == 0) {
      AppendWireRecord(kAnonymousUser,
                       frames[static_cast<std::size_t>((u + epoch) % k)],
                       wire);
    }
  }
  return wire;
}

TEST(WireSessionTest, PullIngestMatchesPerRecordIngest) {
  for (const fo::Protocol protocol : {fo::Protocol::kGrr, fo::Protocol::kOue}) {
    SCOPED_TRACE(fo::ProtocolName(protocol));
    auto oracle = fo::MakeOracle(protocol, 16, 1.0);
    Rng rng(77);
    std::vector<std::vector<std::uint8_t>> frames;
    for (int v = 0; v < oracle->k(); ++v) {
      frames.push_back(
          fo::SerializeReport(*oracle, oracle->Randomize(v, rng)));
    }
    LongitudinalOptions options;
    options.collector.lanes = 2;

    // Pull path: the sessions hand their chunks to the collector's own
    // IngestAll. Per-record path: the same collector type behind a sink
    // that keeps the default IngestAll.
    EpochManager pull(*oracle, options);
    EpochManager per_record(*oracle, options);
    PerRecordSink per_record_sink(per_record.longitudinal());
    AdmissionOptions admission;
    admission.per_user_rate = 1.0;
    admission.per_user_burst = 2.0;  // a third send in one epoch is limited
    UserAdmissionTable pull_users(admission);
    UserAdmissionTable per_record_users(admission);
    std::vector<WireSession> pull_sessions;
    std::vector<WireSession> per_record_sessions;
    pull_sessions.reserve(2);
    per_record_sessions.reserve(2);
    for (int c = 0; c < 2; ++c) {
      pull_sessions.emplace_back(pull.longitudinal(), &pull_users,
                                 WireSessionOptions{}, c, 0.0);
      per_record_sessions.emplace_back(per_record_sink, &per_record_users,
                                       WireSessionOptions{}, c, 0.0);
    }

    Rng traffic_rng(5);
    Rng pull_chunks(101);
    Rng per_record_chunks(202);
    for (int epoch = 0; epoch < 3; ++epoch) {
      // Buckets refill between epochs; one clock value per epoch keeps
      // admission independent of the chunking.
      const double now = 10.0 * epoch;
      std::vector<std::vector<std::uint8_t>> wires;
      for (int c = 0; c < 2; ++c) {
        wires.push_back(EpochTraffic(frames, c, epoch, traffic_rng));
      }
      // Records arriving between epochs: kClosedEpoch on both paths.
      for (int c = 0; c < 2; ++c) {
        std::vector<std::uint8_t> early;
        AppendWireRecord(kAnonymousUser, frames[0], early);
        AppendWireRecord(1000 + c, frames[1], early);
        FeedInRandomChunks(pull_sessions[c], early, 64, now, pull_chunks);
        FeedInRandomChunks(per_record_sessions[c], early, 64, now,
                           per_record_chunks);
      }
      pull.OpenEpoch();
      per_record.OpenEpoch();
      for (int c = 0; c < 2; ++c) {
        FeedInRandomChunks(pull_sessions[c], wires[c], 200, now,
                           pull_chunks);
        FeedInRandomChunks(per_record_sessions[c], wires[c], 40, now,
                           per_record_chunks);
      }
      const EstimateSnapshot& a = pull.Seal();
      const EstimateSnapshot& b = per_record.Seal();
      SCOPED_TRACE(epoch);
      ExpectSameSnapshot(a, b);
      // The mix really exercised every outcome.
      EXPECT_GT(a.stats.reports, 0);
      EXPECT_GT(a.stats.rejected, 0);
      EXPECT_GT(a.stats.duplicates, 0);
      EXPECT_GT(a.stats.closed_epoch, 0);
      if (epoch > 0) {
        EXPECT_GT(a.ledger.memoized, 0);
      }
    }
    for (int c = 0; c < 2; ++c) {
      ExpectSameSession(pull_sessions[c].counters(),
                        per_record_sessions[c].counters());
      // Rate limiting happens in the session, before either sink.
      EXPECT_GT(pull_sessions[c].counters().ingest.rate_limited, 0);
      EXPECT_EQ(pull_sessions[c].buffered(), 0u);
    }

    // A chunk with a protocol error after N good records: exactly those N
    // are ingested, on both paths, and nothing after the error is.
    const int good = 5;
    std::vector<std::uint8_t> broken;
    for (int i = 0; i < good; ++i) {
      AppendWireRecord(kAnonymousUser, frames[i], broken);
    }
    broken.push_back(0x00);
    broken.push_back(0x03);  // body shorter than the user id
    for (int i = 0; i < 3; ++i) {
      AppendWireRecord(kAnonymousUser, frames[i], broken);
    }
    pull.OpenEpoch();
    per_record.OpenEpoch();
    WireSession pull_session(pull.longitudinal(), nullptr, {}, 0, 0.0);
    WireSession per_record_session(per_record_sink, nullptr, {}, 0, 0.0);
    EXPECT_FALSE(pull_session.Feed(broken, 0.0));
    EXPECT_FALSE(per_record_session.Feed(broken, 0.0));
    EXPECT_EQ(pull_session.counters().records, good);
    EXPECT_EQ(pull_session.counters().ingest.reports, good);
    EXPECT_EQ(pull_session.counters().protocol_errors, 1);
    ExpectSameSession(pull_session.counters(), per_record_session.counters());
    const EstimateSnapshot& a = pull.Seal();
    EXPECT_EQ(a.n, good);
    ExpectSameSnapshot(a, per_record.Seal());
  }
}

// A source over a fixed request list, recording every verdict.
class ListSource final : public IngestSource {
 public:
  explicit ListSource(const std::vector<IngestRequest>& requests)
      : requests_(requests) {}
  bool Next(IngestRequest& request) override {
    if (next_ == requests_.size()) return false;
    request = requests_[next_++];
    return true;
  }
  void Done(const IngestRequest&, IngestResult result) override {
    results.push_back(result);
  }
  std::vector<IngestResult> results;

 private:
  const std::vector<IngestRequest>& requests_;
  std::size_t next_ = 0;
};

TEST(ServeIngestTest, CollectorIngestAllRunsMatchPerRecordIngest) {
  // Lane hints that change within the source, including distinct hints
  // that map to the same lane (0 and 3 of 3): each run of same-lane
  // requests takes the lane once, and every verdict and staged row equals
  // per-record Ingest's.
  auto oracle = fo::MakeOracle(fo::Protocol::kOue, 16, 1.0);
  Rng rng(9);
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 40; ++i) {
    frames.push_back(
        fo::SerializeReport(*oracle, oracle->Randomize(i % 16, rng)));
    if (i % 9 == 4) frames.back().pop_back();
  }
  const int hints[] = {0, 0, 3, 1, 1, 4, 2, 0, 3, 3};
  std::vector<IngestRequest> requests;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    requests.push_back({frames[i], std::nullopt, hints[i % 10]});
  }
  Collector pulled(*oracle, CollectorOptions{.lanes = 3});
  Collector pushed(*oracle, CollectorOptions{.lanes = 3});
  ListSource source(requests);
  pulled.IngestAll(source);
  ASSERT_EQ(source.results.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const IngestResult expected = pushed.Ingest(requests[i]);
    EXPECT_EQ(source.results[i].accepted, expected.accepted) << i;
    EXPECT_EQ(source.results[i].reason, expected.reason) << i;
  }
  for (int lane = 0; lane < 3; ++lane) {
    EXPECT_EQ(pulled.staged(lane), pushed.staged(lane)) << lane;
  }
  const Collector::Drained a = pulled.Drain();
  const Collector::Drained b = pushed.Drain();
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.n, b.n);
  ExpectSameIngest(a.tallies, b.tallies);
}

TEST(WireSessionTest, SealRacingAChunkFilesEveryRecordOnce) {
  // One lane, so a Seal's drain and the chunk in flight contend for the
  // same mutex: the seal waits out the chunk, and records the chunk frames
  // after the epoch closed are kClosedEpoch rejects.
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, 8, 1.0);
  LongitudinalOptions options;
  options.collector.lanes = 1;
  // Repeats within an epoch classify by hash instead of being refused.
  options.one_report_per_epoch = false;
  LongitudinalCollector collector(*oracle, options);
  // Every record is attributed and each user always sends the same frame,
  // so a user's first accepted frame is its only fresh one: a frame
  // classified in one epoch but aggregated in another would show up as a
  // negative (seal throws) or extra anonymous share of some epoch's ledger.
  std::vector<std::uint8_t> chunk;
  const long long per_chunk = 1024;
  for (long long i = 0; i < per_chunk; ++i) {
    fo::Report report;
    report.value = static_cast<int>(i % 8);
    std::vector<std::uint8_t> frame = fo::SerializeReport(*oracle, report);
    if (i % 97 == 0) frame.push_back(0);  // wrong size: kMalformed
    AppendWireRecord(static_cast<std::uint64_t>(i), frame, chunk);
  }

  std::atomic<bool> stop{false};
  std::atomic<long long> fed{0};
  SessionCounters counters;
  std::thread producer([&] {
    WireSession session(collector, nullptr, {}, 0, 0.0);
    while (!stop.load(std::memory_order_relaxed)) {
      if (!session.Feed(chunk, 0.0)) break;
      fed.fetch_add(1, std::memory_order_relaxed);
    }
    counters = session.counters();
  });
  while (fed.load(std::memory_order_relaxed) < 2) std::this_thread::yield();

  IngestCounters sealed;
  long long accepted = 0;
  long long fresh = 0;
  int throws = 0;
  int mismatched = 0;
  auto seal = [&] {
    try {
      const EstimateSnapshot& snapshot = collector.Seal();
      accepted += snapshot.n;
      fresh += snapshot.ledger.fresh;
      sealed.reports += snapshot.stats.reports;
      sealed.bytes += snapshot.stats.bytes;
      sealed.rejected += snapshot.stats.rejected;
      sealed.duplicates += snapshot.stats.duplicates;
      sealed.rate_limited += snapshot.stats.rate_limited;
      sealed.shed += snapshot.stats.shed;
      sealed.closed_epoch += snapshot.stats.closed_epoch;
      if (snapshot.n != snapshot.stats.reports) ++mismatched;
    } catch (const std::exception&) {
      ++throws;
    }
  };
  for (int c = 0; c < 300 && throws == 0; ++c) {
    collector.OpenEpoch();
    // Seal while a chunk that started inside the epoch is in flight.
    const long long opened_at = fed.load(std::memory_order_relaxed);
    while (fed.load(std::memory_order_relaxed) < opened_at + 2) {
      std::this_thread::yield();
    }
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
  EXPECT_EQ(counters.protocol_errors, 0);
  EXPECT_EQ(counters.records, fed.load() * per_chunk);
  EXPECT_EQ(counters.records,
            counters.ingest.reports + counters.ingest.TotalRejected());
  // Each record is either in exactly one sealed epoch or a counted
  // kClosedEpoch (or malformed) reject, on the session and the sink alike.
  EXPECT_EQ(accepted, counters.ingest.reports);
  ExpectSameIngest(sealed, counters.ingest);
  EXPECT_GT(counters.ingest.reports, 0);
  // One fresh randomization per user that ever got a frame in.
  EXPECT_EQ(fresh, collector.cumulative_ledger().users);
}

// ---------------------------------------------------------------------------
// Duplicate (user, epoch) rejection and options plumbing
// ---------------------------------------------------------------------------

TEST(ServeIngestTest, DuplicateUserEpochRejectedWithReason) {
  auto oracle = fo::MakeOracle(fo::Protocol::kOue, 12, 1.0);
  LongitudinalCollector collector(*oracle, {});
  Rng rng(6);
  const auto frame =
      fo::SerializeReport(*oracle, oracle->Randomize(3, rng));

  collector.OpenEpoch();
  EXPECT_TRUE(collector.Ingest({frame, 42}).accepted);
  const IngestResult dup = collector.Ingest({frame, 42});
  EXPECT_FALSE(dup.accepted);
  EXPECT_EQ(dup.reason, RejectReason::kDuplicate);
  EXPECT_STREQ(RejectReasonName(dup.reason), "duplicate");
  // A duplicate is counted, never aggregated, and never double-charged.
  const EstimateSnapshot& first = collector.Seal();
  EXPECT_EQ(first.n, 1);
  EXPECT_EQ(first.stats.reports, 1);
  EXPECT_EQ(first.stats.duplicates, 1);
  EXPECT_EQ(first.stats.rejected, 0);  // not malformed
  EXPECT_EQ(first.ledger.fresh, 1);

  // The same frame in the NEXT epoch is a memoized replay, not a duplicate.
  collector.OpenEpoch();
  EXPECT_TRUE(collector.Ingest({frame, 42}).accepted);
  const EstimateSnapshot& second = collector.Seal();
  EXPECT_EQ(second.stats.duplicates, 0);
  EXPECT_EQ(second.ledger.memoized, 1);
}

TEST(ServeIngestTest, ReplayTableClassifiesFreshMemoizedDuplicate) {
  UserReplayTable table(4);
  const std::vector<std::uint8_t> a = {1, 2, 3};
  const std::vector<std::uint8_t> b = {4, 5, 6};
  using FrameClass = UserReplayTable::FrameClass;
  EXPECT_EQ(table.Classify(1, a, 0), FrameClass::kFresh);
  EXPECT_EQ(table.Classify(1, a, 0), FrameClass::kDuplicate);
  EXPECT_EQ(table.Classify(1, b, 0), FrameClass::kDuplicate);
  EXPECT_EQ(table.Classify(1, a, 1), FrameClass::kMemoized);
  EXPECT_EQ(table.Classify(1, b, 2), FrameClass::kFresh);
  // A duplicate records nothing: user 2's duplicate in epoch 0 must not
  // have consumed frame b's hash.
  EXPECT_EQ(table.Classify(2, a, 0), FrameClass::kFresh);
  EXPECT_EQ(table.Classify(2, b, 0), FrameClass::kDuplicate);
  EXPECT_EQ(table.Classify(2, b, 1), FrameClass::kFresh);
  // one_per_epoch off: same-epoch resubmissions classify by hash instead.
  EXPECT_EQ(table.Classify(3, a, 0, true, false), FrameClass::kFresh);
  EXPECT_EQ(table.Classify(3, a, 0, true, false), FrameClass::kMemoized);
  // A -> B -> A: the return to A is not the newest frame, so it must still
  // be found in the user's older history; then both replays, either way.
  EXPECT_EQ(table.Classify(4, a, 0), FrameClass::kFresh);
  EXPECT_EQ(table.Classify(4, b, 1), FrameClass::kFresh);
  EXPECT_EQ(table.Classify(4, a, 2), FrameClass::kMemoized);
  EXPECT_EQ(table.Classify(4, a, 3), FrameClass::kMemoized);
  EXPECT_EQ(table.Classify(4, b, 4), FrameClass::kMemoized);
  EXPECT_EQ(table.Classify(4, b, 5), FrameClass::kMemoized);
  const UserReplayTable::UserStats stats = table.Totals();
  EXPECT_EQ(stats.users, 4);
  EXPECT_EQ(stats.total_fresh, 2 + 2 + 1 + 2);
  EXPECT_EQ(stats.max_fresh, 2);
}

TEST(ServeIngestTest, FromCollectorOptionsRoundTrips) {
  CollectorOptions collector_options;
  collector_options.lanes = 3;
  collector_options.consistency = fo::ConsistencyMethod::kClampRenorm;
  collector_options.consistency_threshold = 0.25;
  const LongitudinalOptions longitudinal =
      LongitudinalOptions::FromCollector(collector_options);
  EXPECT_EQ(longitudinal.collector.lanes, 3);
  EXPECT_EQ(longitudinal.collector.consistency,
            fo::ConsistencyMethod::kClampRenorm);
  EXPECT_DOUBLE_EQ(longitudinal.collector.consistency_threshold, 0.25);
  // EpochManager runs on the converted options: the lane count and
  // consistency method must land in the sealed snapshot's pipeline.
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, 8, 1.0);
  EpochManager manager(*oracle, collector_options);
  manager.OpenEpoch();
  EXPECT_EQ(manager.lanes(), 3);
  manager.Seal();
}

// ---------------------------------------------------------------------------
// The socket server end to end (Unix-domain socket)
// ---------------------------------------------------------------------------

std::string TestSocketPath(const char* tag) {
  char path[96];
  std::snprintf(path, sizeof(path), "/tmp/ldpr_test_%s_%d.sock", tag,
                static_cast<int>(::getpid()));
  return path;
}

TEST(IngestServerTest, UdsSnapshotsBitIdenticalToInProcessPath) {
  const int k = 16;
  const long long n = 4000;
  const long long dup_every = 100;
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, k, 1.0);
  std::vector<int> values(n);
  for (long long i = 0; i < n; ++i) values[i] = static_cast<int>(i % k);
  Rng root(91);
  sim::Options encode_options;
  encode_options.threads = 1;
  const EncodedStream stream =
      EncodeScalarLoad(*oracle, values, root, encode_options);

  // Reference: the same records (duplicates included) through the
  // in-process IngestRequest path.
  LongitudinalCollector reference(*oracle, {});
  reference.OpenEpoch();
  for (long long i = 0; i < n; ++i) {
    const IngestRequest request{{stream.frame(i), stream.frame_bytes}, i};
    ASSERT_TRUE(reference.Ingest(request).accepted);
    if (i % dup_every == 0) {
      ASSERT_EQ(reference.Ingest(request).reason, RejectReason::kDuplicate);
    }
  }
  const EstimateSnapshot ref_snapshot = reference.Seal();

  // Socket path: two client connections stream the framed records (every
  // dup_every-th twice) at a live server.
  LongitudinalCollector collector(*oracle, {});
  collector.OpenEpoch();
  ServerOptions options;
  options.uds_path = TestSocketPath("e2e");
  IngestServer server(collector, options);
  server.Start();

  const std::size_t record_bytes =
      kRecordHeaderBytes + kRecordUserBytes + stream.frame_bytes;
  std::vector<std::vector<std::uint8_t>> slices;
  long long framed = 0;
  for (int c = 0; c < 2; ++c) {
    slices.push_back(FrameStreamRecords(stream, c * n / 2, (c + 1) * n / 2,
                                        /*first_user=*/0, dup_every));
    framed += static_cast<long long>(slices.back().size() / record_bytes);
  }
  std::vector<std::thread> clients;
  for (auto& slice : slices) {
    clients.emplace_back([&] {
      const SocketSendResult sent = SendOverUds(options.uds_path, slice);
      EXPECT_EQ(sent.bytes, static_cast<long long>(slice.size()));
    });
  }
  for (auto& t : clients) t.join();
  while (server.counters().sessions.records < framed) {
    std::this_thread::yield();
  }
  server.Stop();
  const EstimateSnapshot socket_snapshot = collector.Seal();

  // Bit-identical estimation pipeline output...
  EXPECT_EQ(socket_snapshot.n, ref_snapshot.n);
  EXPECT_EQ(socket_snapshot.counts, ref_snapshot.counts);
  EXPECT_EQ(socket_snapshot.frequencies, ref_snapshot.frequencies);
  EXPECT_EQ(socket_snapshot.consistent, ref_snapshot.consistent);
  // ...with every duplicate counted (not aggregated) on both paths.
  EXPECT_EQ(socket_snapshot.stats.duplicates, ref_snapshot.stats.duplicates);
  EXPECT_GT(socket_snapshot.stats.duplicates, 0);
  EXPECT_EQ(socket_snapshot.stats.reports, n);

  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.connections, 2);
  EXPECT_EQ(counters.sessions.records, framed);
  EXPECT_EQ(counters.sessions.ingest.reports, n);
  EXPECT_EQ(counters.sessions.ingest.duplicates,
            socket_snapshot.stats.duplicates);
  EXPECT_EQ(counters.sessions.protocol_errors, 0);
}

TEST(IngestServerTest, ProtocolErrorClosesOnlyTheOffendingConnection) {
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, 8, 1.0);
  Collector collector(*oracle, CollectorOptions{.lanes = 2});
  ServerOptions options;
  options.uds_path = TestSocketPath("protoerr");
  IngestServer server(collector, options);
  server.Start();

  // A garbage connection: unframeable body.
  const std::vector<std::uint8_t> garbage = {0x00, 0x01, 0xFF};
  SendOverUds(options.uds_path, garbage);
  // A good connection afterwards still ingests.
  Rng rng(2);
  std::vector<std::uint8_t> wire;
  AppendWireRecord(kAnonymousUser,
                   fo::SerializeReport(*oracle, oracle->Randomize(1, rng)),
                   wire);
  SendOverUds(options.uds_path, wire);
  while (server.counters().sessions.ingest.reports < 1) {
    std::this_thread::yield();
  }
  server.Stop();

  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.connections, 2);
  EXPECT_EQ(counters.sessions.protocol_errors, 1);
  EXPECT_EQ(counters.sessions.ingest.reports, 1);
}

// ---------------------------------------------------------------------------
// Admin scrape endpoint
// ---------------------------------------------------------------------------

// Body of a scrape response (the part after the HTTP head).
std::string HttpBody(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  EXPECT_NE(head_end, std::string::npos) << response;
  return head_end == std::string::npos ? "" : response.substr(head_end + 4);
}

// Value of an unlabeled-or-exact-labeled series in a Prometheus text body;
// -1 when the series is absent.
long long SeriesValue(const std::string& body, const std::string& series) {
  const std::string needle = series + " ";
  std::size_t pos = body.rfind("\n" + needle);
  if (pos != std::string::npos) {
    pos += 1;
  } else if (body.rfind(needle, 0) == 0) {
    pos = 0;
  } else {
    return -1;
  }
  return std::stoll(body.substr(pos + needle.size()));
}

// The live /metrics endpoint end to end: stream records (with duplicates)
// at the server over UDS, scrape over the admin UDS, and require the
// scraped ingest counters to equal the sealed snapshot's IngestCounters
// exactly — the acceptance invariant of the telemetry layer.
TEST(AdminEndpointTest, ScrapedCountersMatchSealedSnapshotExactly) {
  const int k = 16;
  const long long n = 4000;
  const long long dup_every = 100;
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, k, 1.0);
  std::vector<int> values(n);
  for (long long i = 0; i < n; ++i) values[i] = static_cast<int>(i % k);
  Rng root(17);
  sim::Options encode_options;
  encode_options.threads = 1;
  const EncodedStream stream =
      EncodeScalarLoad(*oracle, values, root, encode_options);

  obs::MetricsRegistry registry;
  LongitudinalOptions options;
  options.collector.metrics = &registry;
  LongitudinalCollector collector(*oracle, options);
  collector.OpenEpoch();

  ServerOptions server_options;
  server_options.uds_path = TestSocketPath("admin_ingest");
  server_options.admin_uds_path = TestSocketPath("admin_scrape");
  server_options.metrics = &registry;
  IngestServer server(collector, server_options);
  server.Start();

  const std::size_t record_bytes =
      kRecordHeaderBytes + kRecordUserBytes + stream.frame_bytes;
  const std::vector<std::uint8_t> wire =
      FrameStreamRecords(stream, 0, n, /*first_user=*/0, dup_every);
  const long long framed =
      static_cast<long long>(wire.size() / record_bytes);
  SendOverUds(server_options.uds_path, wire);
  while (server.counters().sessions.records < framed) {
    std::this_thread::yield();
  }

  // Scrape while the epoch is still open: the counters are already exact
  // because the collector's TotalsNow() merges live lane tallies.
  const std::string response =
      HttpGetOverUds(server_options.admin_uds_path, "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string body = HttpBody(response);

  const EstimateSnapshot snapshot = collector.Seal();
  EXPECT_EQ(SeriesValue(body, "ldpr_ingest_reports_total"),
            snapshot.stats.reports);
  EXPECT_EQ(SeriesValue(body, "ldpr_ingest_bytes_total"),
            snapshot.stats.bytes);
  EXPECT_EQ(
      SeriesValue(body, "ldpr_ingest_rejects_total{reason=\"duplicate\"}"),
      snapshot.stats.duplicates);
  EXPECT_GT(snapshot.stats.duplicates, 0);
  EXPECT_EQ(
      SeriesValue(body, "ldpr_ingest_rejects_total{reason=\"malformed\"}"),
      0);
  EXPECT_EQ(SeriesValue(body, "ldpr_server_reports_total"),
            snapshot.stats.reports);
  EXPECT_EQ(SeriesValue(body, "ldpr_server_connections_total"), 1);
  // Mid-epoch the decode-block histogram lags by the rows still staged in
  // the lane (< one block); the seal above flushed them, so a fresh scrape
  // now accounts for every accepted report block by block.
  const std::string sealed_body = HttpBody(
      HttpGetOverUds(server_options.admin_uds_path, "/metrics"));
  EXPECT_EQ(SeriesValue(sealed_body, "ldpr_decode_block_rows_sum"),
            snapshot.stats.reports);

  // The other admin routes: JSON snapshot, 404, and non-GET.
  const std::string json =
      HttpGetOverUds(server_options.admin_uds_path, "/metrics.json");
  EXPECT_EQ(json.rfind("HTTP/1.0 200 OK", 0), 0u);
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(HttpBody(json).find("\"ldpr_ingest_reports_total\""),
            std::string::npos);
  EXPECT_EQ(HttpGetOverUds(server_options.admin_uds_path, "/nope")
                .rfind("HTTP/1.0 404", 0),
            0u);

  server.Stop();
}

// A scraper that hangs up before reading its response must cost the server
// one failed send, not a SIGPIPE: this binary hosts the server, so without
// MSG_NOSIGNAL on the admin write the signal kills the whole test run.
TEST(AdminEndpointTest, EarlyCloseScrapeLeavesServerUpAndExact) {
  const int k = 8;
  const long long n = 2000;
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, k, 1.0);
  std::vector<int> values(n);
  for (long long i = 0; i < n; ++i) values[i] = static_cast<int>(i % k);
  Rng root(29);
  sim::Options encode_options;
  encode_options.threads = 1;
  const EncodedStream stream =
      EncodeScalarLoad(*oracle, values, root, encode_options);

  obs::MetricsRegistry registry;
  CollectorOptions collector_options;
  collector_options.metrics = &registry;
  Collector collector(*oracle, collector_options);

  ServerOptions server_options;
  server_options.uds_path = TestSocketPath("early_ingest");
  server_options.admin_uds_path = TestSocketPath("early_scrape");
  server_options.admin_tcp_port = 0;
  server_options.metrics = &registry;
  IngestServer server(collector, server_options);
  server.Start();

  SendOverUds(server_options.uds_path,
              FrameStreamRecords(stream, 0, n, /*first_user=*/std::nullopt));
  while (server.counters().sessions.ingest.reports < n) {
    std::this_thread::yield();
  }
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";

  // Deterministic EPIPE: the scraper shuts its read side before sending, so
  // the server's response write must fail. The server then closes the
  // connection, which the scraper sees as POLLHUP.
  {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, server_options.admin_uds_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_EQ(::shutdown(fd, SHUT_RD), 0);
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    pollfd hangup{fd, 0, 0};
    EXPECT_EQ(::poll(&hangup, 1, /*timeout_ms=*/10000), 1);
    EXPECT_NE(hangup.revents & POLLHUP, 0);
    ::close(fd);
  }

  // The RST form: a TCP scraper that aborts (SO_LINGER 0) right after its
  // request. Whether the server's write or its read sees the reset depends
  // on timing; either way it must stay up.
  {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server.admin_tcp_port()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    const linger abort{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort, sizeof(abort));
    ::close(fd);
  }

  // Still up, and a second scrape is exact.
  const std::string response =
      HttpGetOverUds(server_options.admin_uds_path, "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u) << response;
  const std::string body = HttpBody(response);
  server.Stop();
  const IngestCounters totals = collector.Drain().tallies;
  EXPECT_EQ(totals.reports, n);
  EXPECT_EQ(SeriesValue(body, "ldpr_ingest_reports_total"), totals.reports);
  EXPECT_EQ(SeriesValue(body, "ldpr_ingest_bytes_total"), totals.bytes);
}

// Scrapes hammer the admin endpoint while client connections stream: every
// response must be well-formed 200 with monotonically consistent counters,
// and the final scrape must be exact. The TSan/ASan-exercised guarantee
// that scraping mid-epoch is always safe.
TEST(AdminEndpointTest, ScrapeDuringConcurrentStreamingIsSafeAndExact) {
  const int k = 8;
  const long long n = 6000;
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, k, 1.0);
  std::vector<int> values(n);
  for (long long i = 0; i < n; ++i) values[i] = static_cast<int>(i % k);
  Rng root(23);
  sim::Options encode_options;
  encode_options.threads = 1;
  const EncodedStream stream =
      EncodeScalarLoad(*oracle, values, root, encode_options);

  obs::MetricsRegistry registry;
  Collector collector(*oracle,
                      [&] {
                        CollectorOptions o;
                        o.lanes = 2;
                        o.metrics = &registry;
                        return o;
                      }());

  ServerOptions server_options;
  server_options.uds_path = TestSocketPath("mid_ingest");
  server_options.admin_uds_path = TestSocketPath("mid_scrape");
  server_options.metrics = &registry;
  IngestServer server(collector, server_options);
  server.Start();

  std::atomic<bool> done{false};
  long long last_seen = 0;
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::string response =
          HttpGetOverUds(server_options.admin_uds_path, "/metrics");
      ASSERT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u);
      const long long seen =
          SeriesValue(HttpBody(response), "ldpr_ingest_reports_total");
      ASSERT_GE(seen, last_seen);  // counters never go backwards
      last_seen = seen;
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<std::uint8_t> wire = FrameStreamRecords(
          stream, c * n / 2, (c + 1) * n / 2, /*first_user=*/std::nullopt);
      SendOverUds(server_options.uds_path, wire);
    });
  }
  for (auto& t : clients) t.join();
  while (server.counters().sessions.ingest.reports < n) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  scraper.join();

  const std::string body = HttpBody(
      HttpGetOverUds(server_options.admin_uds_path, "/metrics"));
  EXPECT_EQ(SeriesValue(body, "ldpr_ingest_reports_total"), n);
  server.Stop();

  const IngestCounters totals = collector.Drain().tallies;
  EXPECT_EQ(totals.reports, n);
}

}  // namespace
}  // namespace ldpr::serve
