// The two socket workloads: anonymous OUE reports through the front door
// (socket_oue) and memoizing longitudinal GRR clients with per-user state
// (longitudinal_grr). Both drive a live serve::IngestServer over a
// Unix-domain socket from closed-loop client connections, one fixed-size
// epoch at a time.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "core/rng.h"
#include "core/sampling.h"
#include "data/longitudinal.h"
#include "fo/bitslice.h"
#include "fo/factory.h"
#include "fo/wire.h"
#include "serve/admission.h"
#include "serve/collector.h"
#include "serve/loadgen.h"
#include "serve/longitudinal.h"
#include "serve/server.h"
#include "serve/wire_session.h"

namespace perfbench {
namespace {

using namespace ldpr;

constexpr int kDomain = 100;
constexpr double kEpsilon = 1.0;
constexpr int kConnections = 2;
constexpr std::size_t kReadChunk = 64 << 10;
/// p90 needs ten samples beyond it.
constexpr int kMinEpochs = 100;

/// Per-user admission rate: far above the ~20 records/s an honest user
/// sends (one report per ~100 ms epoch, two when duplicated), so it never
/// rejects, but every attributed record pays the bucket lookup.
constexpr double kPerUserRate = 1e4;

std::string SocketPath(const Config& config, const char* tag) {
  return config.work_dir + "/ps" + std::to_string(::getpid()) + tag + ".sock";
}

/// Values of `n` users drawn from a Zipf(1.1) marginal over kDomain.
std::vector<std::vector<int>> ZipfRounds(int n, int rounds,
                                         std::uint64_t seed) {
  data::LongitudinalConfig config;
  config.rounds = rounds;
  config.change_probability = 0.1;
  config.drift = data::DriftKind::kStationary;
  config.seed = seed;
  return data::GenerateScalarRounds(ZipfDistribution(kDomain, 1.1), n, config);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Accepts everything: the sink WireSession::Feed is timed against, so the
/// figure is framing alone.
class AcceptAll final : public serve::IngestSink {
 public:
  serve::IngestResult Ingest(const serve::IngestRequest&) override {
    return serve::IngestResult::Accepted();
  }
};

/// ns per record of WireSession::Feed over `slices` in read-sized chunks.
double FeedNsPerRecord(const std::vector<std::vector<std::uint8_t>>& slices,
                       long long records, bool& framed_all) {
  AcceptAll sink;
  framed_all = true;
  const double seconds = MedianSeconds(3, [&] {
    ScopedSpan span("serve.wire_session.Feed", records);
    long long framed = 0;
    for (const auto& slice : slices) {
      serve::WireSession session(sink, nullptr, serve::WireSessionOptions{},
                                 0, 0.0);
      for (std::size_t at = 0; at < slice.size(); at += kReadChunk) {
        const std::size_t size = std::min(kReadChunk, slice.size() - at);
        session.Feed({slice.data() + at, size}, 0.0);
      }
      framed += session.counters().records;
    }
    framed_all = framed_all && framed == records;
  });
  return seconds * 1e9 / static_cast<double>(records);
}

/// CPUs the epochs' threads are placed on: the loop thread on CPU 0, each
/// connection's client on its own CPU after it, the thread that opens,
/// drains and seals epochs on the last.
constexpr int kPinnedCpus = kConnections + 2;

/// A live server plus the closed-loop epochs. Each epoch: open, one client
/// thread per connection streams its slice to EOF, wait (sleeping between
/// polls) until the server has framed every record, seal. The loop thread,
/// each client and the sealing thread get a CPU of their own, so runs do
/// not differ by where the scheduler happened to put them.
class SocketHarness {
 public:
  SocketHarness(serve::IngestSink& sink, const serve::ServerOptions& options)
      : server_(sink, options) {
    const std::vector<int> before = ListTasks();
    server_.Start();
    for (int tid : ListTasks()) {
      if (!std::binary_search(before.begin(), before.end(), tid)) {
        loop_tid_ = tid;
      }
    }
    if (loop_tid_ > 0) PinToCpu(loop_tid_, 0, kPinnedCpus);
  }
  ~SocketHarness() {
    const std::string path = server_.uds_path();
    server_.Stop();
    ::unlink(path.c_str());
  }
  SocketHarness(const SocketHarness&) = delete;
  SocketHarness& operator=(const SocketHarness&) = delete;

  struct Epoch {
    double wall_s = 0.0;
    double seal_s = 0.0;
    double lag_s = 0.0;  ///< last client write -> Seal() returned
    double client_cpu_s = 0.0;
    double client_wall_s = 0.0;
    bool ok = true;
  };

  template <typename Open, typename Seal>
  Epoch Run(const std::vector<std::vector<std::uint8_t>>& slices,
            long long records, Open&& open, Seal&& seal) {
    Epoch out;
    const CpuMask sealer(kConnections + 1, 1);
    const double t0 = Now();
    ScopedSpan epoch_span("serve.epoch", records);
    {
      ScopedSpan span("serve.longitudinal.OpenEpoch");
      open();
    }
    struct Client {
      double wall = 0.0;
      double cpu = 0.0;
      double done = 0.0;
      bool ok = true;
    };
    std::vector<Client> clients(slices.size());
    std::vector<std::thread> threads;
    const int parent = epoch_span.id();
    for (std::size_t c = 0; c < slices.size(); ++c) {
      threads.emplace_back([&, c, parent] {
        PinToCpu(0, 1 + static_cast<int>(c), kPinnedCpus);
        ScopedSpan span("serve.loadgen.SendOverUds",
                        static_cast<long long>(slices[c].size()), parent);
        const double cpu0 = ThreadCpuSeconds();
        const double w0 = Now();
        try {
          serve::SendOverUds(server_.uds_path(), slices[c]);
        } catch (const std::exception&) {
          clients[c].ok = false;
        }
        clients[c].done = Now();
        clients[c].wall = clients[c].done - w0;
        clients[c].cpu = ThreadCpuSeconds() - cpu0;
      });
    }
    for (auto& thread : threads) thread.join();
    double last_write = t0;
    for (const Client& client : clients) {
      last_write = std::max(last_write, client.done);
      out.client_cpu_s += client.cpu;
      out.client_wall_s += client.wall;
      out.ok = out.ok && client.ok;
    }
    target_ += records;
    {
      ScopedSpan span("serve.server.drain_wait");
      const double deadline = Now() + 30.0;
      while (server_.counters().sessions.records < target_) {
        if (Now() > deadline) {
          out.ok = false;
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    const double s0 = Now();
    {
      ScopedSpan span("serve.longitudinal.Seal");
      seal();
    }
    const double s1 = Now();
    out.wall_s = s1 - t0;
    out.seal_s = s1 - s0;
    out.lag_s = s1 - last_write;
    return out;
  }

  serve::ServerCounters counters() const { return server_.counters(); }
  double LoopCpuSeconds() const {
    return loop_tid_ > 0 ? TaskCpuSeconds(loop_tid_) : 0.0;
  }

 private:
  serve::IngestServer server_;
  int loop_tid_ = -1;
  long long target_ = 0;
};

/// Folds the epochs of one timed phase into a Phase.
class SocketPhase {
 public:
  SocketPhase(const std::string& workload, const SocketHarness& harness)
      : workload_(workload),
        harness_(harness),
        start_(harness.counters()),
        loop_cpu0_(harness.LoopCpuSeconds()) {}

  void Add(const SocketHarness::Epoch& epoch, long long records) {
    ops_.push_back({epoch.wall_s * 1e3, static_cast<double>(records)});
    seal_us_.push_back(epoch.seal_s * 1e6);
    lag_ms_.push_back(epoch.lag_s * 1e3);
    wall_s_ += epoch.wall_s;
    client_cpu_s_ += epoch.client_cpu_s;
    client_wall_s_ += epoch.client_wall_s;
  }

  Phase Finish() const {
    const serve::ServerCounters end = harness_.counters();
    Phase phase;
    SetFromOps(phase, ops_);
    phase.aliases = {
        {"ingest_reports_per_s", phase.throughput_per_s, "1/s"},
        {"epoch_ms_p50", phase.latency_ms_p50, "ms"},
        {"epoch_ms_p90", phase.latency_ms_p90, "ms"},
        {"epochs", static_cast<double>(ops_.size()), "count"},
    };
    const std::string w = "." + workload_;
    const double loop_cpu = harness_.LoopCpuSeconds() - loop_cpu0_;
    const auto& s0 = start_.sessions;
    const auto& s1 = end.sessions;
    const double wire = static_cast<double>(s1.wire_bytes - s0.wire_bytes);
    phase.layers = {
        {"serve.seal_us" + w, Median(seal_us_), "us"},
        {"serve.publish_lag_ms_p50" + w, Median(lag_ms_), "ms"},
        {"serve.server.loop_cpu_share" + w,
         wall_s_ > 0 ? loop_cpu / wall_s_ : 0.0, "ratio"},
        {"serve.client.wait_share" + w,
         client_wall_s_ > 0 ? 1.0 - client_cpu_s_ / client_wall_s_ : 0.0,
         "ratio"},
        {"serve.framing.payload_ratio" + w,
         wire > 0 ? static_cast<double>(s1.ingest.bytes - s0.ingest.bytes) /
                        wire
                  : 0.0,
         "ratio"},
        {"serve.rejects.malformed",
         static_cast<double>(s1.ingest.rejected - s0.ingest.rejected),
         "count"},
        {"serve.rejects.duplicate",
         static_cast<double>(s1.ingest.duplicates - s0.ingest.duplicates),
         "count"},
        {"serve.rejects.rate_limited",
         static_cast<double>(s1.ingest.rate_limited - s0.ingest.rate_limited),
         "count"},
        {"serve.rejects.shed",
         static_cast<double>(s1.ingest.shed - s0.ingest.shed), "count"},
        {"serve.rejects.closed_epoch",
         static_cast<double>(s1.ingest.closed_epoch - s0.ingest.closed_epoch),
         "count"},
        {"serve.protocol_errors",
         static_cast<double>(s1.protocol_errors - s0.protocol_errors),
         "count"},
    };
    return phase;
  }

 private:
  std::string workload_;
  const SocketHarness& harness_;
  serve::ServerCounters start_;
  double loop_cpu0_;
  std::vector<Op> ops_;
  std::vector<double> seal_us_;
  std::vector<double> lag_ms_;
  double wall_s_ = 0.0;
  double client_cpu_s_ = 0.0;
  double client_wall_s_ = 0.0;
};

// ---- socket_oue ----

class SocketOue final : public Workload {
 public:
  /// 2^20 reports per epoch: 30-50 ms at 20-35M reports/s, so a 20 s run
  /// seals 400-650 epochs (4-5 segments for the percentile medians), and the
  /// per-epoch connect, thread start and seal, and a millisecond-scale stall
  /// of a shared host, are a small share of every epoch.
  static constexpr long long kEpochReports = 1 << 20;

  explicit SocketOue(const Config& config)
      : config_(config),
        oracle_(fo::MakeOracle(fo::Protocol::kOue, kDomain, kEpsilon)) {}

  const char* name() const override { return "socket_oue"; }
  std::string Shape() const override {
    return "1 server loop thread + 2 UDS client connections (closed loop), "
           "anonymous, 2 collector lanes";
  }

  void Setup() override {
    harness_.reset();
    manager_.reset();
    const std::vector<int> values =
        ZipfRounds(static_cast<int>(kEpochReports), 1, config_.seed)[0];
    Rng root(config_.seed * 7919 + 17);
    {
      ScopedSpan span("serve.loadgen.EncodeScalarLoad", kEpochReports);
      const double t0 = Now();
      stream_ = serve::EncodeScalarLoad(*oracle_, values, root);
      encode_s_ = Now() - t0;
    }
    {
      ScopedSpan span("serve.loadgen.FrameStreamRecords", kEpochReports);
      slices_.clear();
      const long long per = kEpochReports / kConnections;
      for (int c = 0; c < kConnections; ++c) {
        slices_.push_back(serve::FrameStreamRecords(
            stream_, c * per, (c + 1) * per, std::nullopt));
      }
    }
    manager_ = std::make_unique<serve::EpochManager>(
        *oracle_, serve::CollectorOptions{.lanes = kConnections});
    serve::ServerOptions options;
    options.uds_path = SocketPath(config_, "o");
    options.read_chunk = kReadChunk;
    {
      ScopedSpan span("serve.server.Start");
      harness_ = std::make_unique<SocketHarness>(manager_->longitudinal(),
                                                 options);
    }
    // Warm-up repetition: first connections, first flushes, page faults.
    RunEpoch(nullptr);
  }

  Phase Run(double seconds) override {
    SocketPhase phase(name(), *harness_);
    const double start = Now();
    for (int e = 0; e < kMinEpochs || Now() - start < seconds; ++e) {
      RunEpoch(&phase);
    }
    return phase.Finish();
  }

  void Check(Outcome& outcome) override {
    // Reference: a one-lane in-process collector fed the same frames.
    serve::EpochManager reference(*oracle_,
                                  serve::CollectorOptions{.lanes = 1});
    reference.OpenEpoch();
    for (long long i = 0; i < stream_.count; ++i) {
      reference.longitudinal().Ingest(
          serve::IngestRequest{{stream_.frame(i), stream_.frame_bytes}});
    }
    const serve::EstimateSnapshot& want = reference.Seal();
    long long mismatched = 0;
    for (const serve::EstimateSnapshot& got : manager_->snapshots()) {
      outcome.Operations(kEpochReports,
                         std::llabs(kEpochReports - got.stats.reports),
                         "socket_oue reports accepted");
      const bool same = got.n == want.n && got.counts == want.counts &&
                        SameBits(got.frequencies, want.frequencies) &&
                        SameBits(got.consistent, want.consistent) &&
                        got.stats.rejected + got.stats.duplicates +
                                got.stats.rate_limited + got.stats.shed +
                                got.stats.closed_epoch ==
                            0;
      if (!same) ++mismatched;
    }
    outcome.Expect(mismatched == 0,
                   "socket_oue: " + std::to_string(mismatched) +
                       " sealed snapshots differ from the one-lane "
                       "in-process collector");
    outcome.Expect(epochs_ok_, "socket_oue: a client failed or the server "
                               "did not frame every record");
    outcome.Expect(harness_->counters().sessions.protocol_errors == 0,
                   "socket_oue: protocol errors");
  }

  void Probe(const Phase& phase, std::vector<Metric>& layers,
             Outcome& outcome) override {
    const double n = static_cast<double>(kEpochReports);
    const std::size_t frame_bytes = stream_.frame_bytes;
    bool framed_all = true;
    const double feed_ns = FeedNsPerRecord(slices_, kEpochReports, framed_all);

    fo::WireDecoder decoder(*oracle_);
    long long valid = 0;
    const double validate_ns =
        MedianSeconds(3, [&] {
          ScopedSpan span("fo.WireDecoder.Validate", kEpochReports);
          valid = 0;
          for (long long i = 0; i < stream_.count; ++i) {
            valid += decoder.Validate({stream_.frame(i), frame_bytes}) ? 1 : 0;
          }
        }) * 1e9 / n;

    // Rows laid out the way the collector stages them.
    const std::size_t stride = fo::bitslice::RowStride(frame_bytes);
    std::vector<std::uint8_t> rows(
        static_cast<std::size_t>(kEpochReports) * stride +
            fo::bitslice::kRowTailSlack,
        0);
    for (long long i = 0; i < stream_.count; ++i) {
      std::memcpy(rows.data() + static_cast<std::size_t>(i) * stride,
                  stream_.frame(i), frame_bytes);
    }
    long long decoded = 0;
    const double decode_ns =
        MedianOf(3, [&] {
          auto aggregator = oracle_->MakeAggregator();
          const double t0 = Now();
          {
            ScopedSpan span("fo.Aggregator.AccumulateWireBlock",
                            kEpochReports);
            for (long long i = 0; i < stream_.count;
                 i += fo::bitslice::kBlockRows) {
              const int count = static_cast<int>(std::min<long long>(
                  fo::bitslice::kBlockRows, stream_.count - i));
              aggregator->AccumulateWireBlock(
                  rows.data() + static_cast<std::size_t>(i) * stride, stride,
                  count);
            }
          }
          const double seconds = Now() - t0;
          decoded = aggregator->n();
          return seconds;
        }) * 1e9 / n;

    long long ingested = 0;
    const double ingest_ns =
        MedianOf(3, [&] {
          serve::Collector collector(*oracle_,
                                     serve::CollectorOptions{.lanes = 1});
          auto ingest_all = [&] {
            for (long long i = 0; i < stream_.count; ++i) {
              collector.Ingest(
                  serve::IngestRequest{{stream_.frame(i), frame_bytes}});
            }
          };
          ingest_all();  // warm: first touch of the lane
          collector.Drain();
          const double t0 = Now();
          {
            ScopedSpan span("serve.collector.Ingest", kEpochReports);
            ingest_all();
          }
          const double seconds = Now() - t0;
          ingested = collector.Drain().n;
          return seconds;
        }) * 1e9 / n;
    outcome.Expect(framed_all && valid == kEpochReports &&
                       decoded == kEpochReports && ingested == kEpochReports,
                   "socket_oue: a layer probe did not process every record");

    layers.push_back(
        {"serve.loadgen.encode_ns.socket_oue", encode_s_ * 1e9 / n, "ns"});
    layers.push_back({"serve.wire_session.feed_ns.socket_oue", feed_ns, "ns"});
    layers.push_back({"fo.validate_ns", validate_ns, "ns"});
    layers.push_back({"fo.block_decode_ns", decode_ns, "ns"});
    layers.push_back({"serve.collector.ingest_ns", ingest_ns, "ns"});

    const double e2e_ns = 1e9 / phase.throughput_per_s;
    const double seal_ns =
        ValueOf(phase.layers, "serve.seal_us.socket_oue") * 1e3 / n;
    const double residual = PrintCostModel(
        "socket_oue ingest, one loop thread", "ns per record",
        {{"serve.wire_session.feed_ns.socket_oue",
          "WireSession::Feed, 64 KiB chunks, accept-all sink", feed_ns},
         {"serve.collector.ingest_ns",
          "Collector::Ingest, one lane (validate+stage+decode)", ingest_ns},
         {"serve.seal_us.socket_oue", "EpochManager::Seal, per record",
          seal_ns}},
        e2e_ns);
    std::printf("    of which fo.validate_ns %.2f, fo.block_decode_ns %.2f\n",
                validate_ns, decode_ns);
    std::printf("  finding: layers explain socket ingest within 15%%: %s "
                "(residual %.1f%% of %.2f ns/record)\n",
                std::fabs(residual) <= 0.15 * e2e_ns ? "yes" : "no",
                100.0 * residual / e2e_ns, e2e_ns);
    layers.push_back(
        {"serve.transport.residual_ns.socket_oue", residual, "ns"});
  }

 private:
  void RunEpoch(SocketPhase* phase) {
    const SocketHarness::Epoch epoch = harness_->Run(
        slices_, kEpochReports, [&] { manager_->OpenEpoch(); },
        [&] { manager_->Seal(); });
    epochs_ok_ = epochs_ok_ && epoch.ok;
    if (phase != nullptr) phase->Add(epoch, kEpochReports);
  }

  Config config_;
  std::unique_ptr<fo::FrequencyOracle> oracle_;
  serve::EncodedStream stream_;
  std::vector<std::vector<std::uint8_t>> slices_;
  std::unique_ptr<serve::EpochManager> manager_;
  std::unique_ptr<SocketHarness> harness_;
  double encode_s_ = 0.0;
  bool epochs_ok_ = true;
};

// ---- longitudinal_grr ----

class LongitudinalGrr final : public Workload {
 public:
  static constexpr int kUsers = 200000;
  static constexpr long long kDuplicateEvery = 100;
  static constexpr int kWarmupEpochs = 2;

  explicit LongitudinalGrr(const Config& config)
      : config_(config),
        oracle_(fo::MakeOracle(fo::Protocol::kGrr, kDomain, kEpsilon)) {}

  const char* name() const override { return "longitudinal_grr"; }
  std::string Shape() const override {
    return "1 server loop thread + 2 UDS client connections (closed loop), "
           "200000 memoizing users, 2 collector lanes";
  }

  void Setup() override {
    harness_.reset();
    collector_.reset();
    clients_.reset();
    values_.clear();
    frames_.clear();
    // Rounds for every epoch the run seals: warm-up plus the timed phases
    // (the values are drawn up front so the churn process is one continuous
    // chain).
    const int rounds =
        kWarmupEpochs + config_.phases * TimedEpochs(config_.seconds);
    {
      ScopedSpan span("data.GenerateScalarRounds",
                      static_cast<long long>(rounds) * kUsers);
      values_ = ZipfRounds(kUsers, rounds, config_.seed);
    }
    clients_ = std::make_unique<serve::LongitudinalClients>(*oracle_, kUsers,
                                                            true);
    root_ = Rng(config_.seed * 7919 + 29);
    encode_s_ = 0.0;
    encoded_ = 0;
    serve::LongitudinalOptions options;
    options.schedule = serve::EpochSchedule::Sliding(4);
    options.collector.lanes = kConnections;
    collector_ = std::make_unique<serve::LongitudinalCollector>(*oracle_,
                                                                options);
    serve::ServerOptions server;
    server.uds_path = SocketPath(config_, "l");
    server.read_chunk = kReadChunk;
    server.admission.per_user_rate = kPerUserRate;
    {
      ScopedSpan span("serve.server.Start");
      harness_ = std::make_unique<SocketHarness>(*collector_, server);
    }
    // Warm-up: epoch 0 inserts every user, epoch 1 is the first steady one.
    for (int e = 0; e < kWarmupEpochs; ++e) RunEpoch(nullptr);
  }

  Phase Run(double seconds) override {
    SocketPhase phase(name(), *harness_);
    const int epochs = TimedEpochs(seconds);
    for (int e = 0; e < epochs && frames_.size() < values_.size(); ++e) {
      RunEpoch(&phase);
    }
    Phase out = phase.Finish();
    const privacy::LedgerReport& ledger = collector_->cumulative_ledger();
    out.layers.push_back({"serve.replay.memo_hit_rate",
                          ledger.MemoizationHitRate(), "ratio"});
    out.layers.push_back(
        {"serve.replay.users", static_cast<double>(ledger.users), "count"});
    return out;
  }

  void Check(Outcome& outcome) override {
    const long long dups_per_epoch =
        kConnections * ((kUsers / kConnections + kDuplicateEvery - 1) /
                        kDuplicateEvery);
    long long wrong_epochs = 0;
    for (const serve::EstimateSnapshot& got : collector_->snapshots()) {
      // Every user's first record is accepted, every injected duplicate is
      // rejected as a duplicate, nothing else is rejected.
      const long long sent = kUsers + dups_per_epoch;
      const long long right =
          std::min<long long>(got.stats.reports, kUsers) +
          std::min(got.stats.duplicates, dups_per_epoch);
      outcome.Operations(sent, sent - right,
                         "longitudinal_grr records with the expected outcome");
      if (got.n != kUsers || got.stats.reports != kUsers ||
          got.stats.duplicates != dups_per_epoch ||
          got.stats.rejected + got.stats.rate_limited + got.stats.shed +
                  got.stats.closed_epoch !=
              0) {
        ++wrong_epochs;
      }
    }
    outcome.Expect(wrong_epochs == 0,
                   "longitudinal_grr: " + std::to_string(wrong_epochs) +
                       " epochs with accepted != users, duplicates != "
                       "injected, or other rejects");

    // Server-side fresh randomizations must equal the distinct (user,
    // frame) pairs the clients sent. GRR frames are one byte, so a fresh
    // randomization can repeat an earlier frame of the same user: the
    // server then rightly sees a replay, and the clients' own fresh tally
    // is an upper bound, not an equality.
    long long distinct = 0;
    bool one_byte = true;
    std::vector<std::array<std::uint64_t, 4>> seen(kUsers);
    for (const std::vector<std::uint8_t>& round : frames_) {
      one_byte = one_byte && round.size() == static_cast<std::size_t>(kUsers);
      if (!one_byte) break;
      for (int u = 0; u < kUsers; ++u) {
        const std::uint8_t f = round[static_cast<std::size_t>(u)];
        std::uint64_t& word = seen[static_cast<std::size_t>(u)][f >> 6];
        const std::uint64_t bit = 1ull << (f & 63);
        if ((word & bit) == 0) {
          word |= bit;
          ++distinct;
        }
      }
    }
    const privacy::LedgerReport& ledger = collector_->cumulative_ledger();
    outcome.Expect(one_byte, "longitudinal_grr: GRR frames are one byte");
    outcome.Expect(ledger.fresh == distinct,
                   "longitudinal_grr: cumulative fresh " +
                       std::to_string(ledger.fresh) +
                       " != distinct (user, frame) pairs sent " +
                       std::to_string(distinct));
    outcome.Expect(ledger.fresh <= clients_->fresh_randomizations(),
                   "longitudinal_grr: cumulative fresh exceeds the clients' "
                   "fresh randomizations");
    outcome.Expect(epochs_ok_, "longitudinal_grr: a client failed or the "
                               "server did not frame every record");
    outcome.Expect(harness_->counters().sessions.protocol_errors == 0,
                   "longitudinal_grr: protocol errors");
    std::printf("  check: cumulative fresh %lld = distinct (user, frame) "
                "pairs %lld; client fresh randomizations %lld\n",
                static_cast<long long>(ledger.fresh), distinct,
                clients_->fresh_randomizations());
  }

  void Probe(const Phase& phase, std::vector<Metric>& layers,
             Outcome& outcome) override {
    // The last two rounds sent: the earlier one warms per-user state, the
    // later one (with its injected duplicates) is timed.
    const std::size_t last = frames_.size() - 1;
    serve::EncodedStream earlier = StreamOf(frames_[last - 1]);
    serve::EncodedStream later = StreamOf(frames_[last]);
    const std::vector<std::vector<std::uint8_t>> slices = Slices(later);
    std::vector<long long> users;  // record order, duplicates included
    const long long per = kUsers / kConnections;
    for (int c = 0; c < kConnections; ++c) {
      for (long long i = c * per; i < (c + 1) * per; ++i) {
        users.push_back(i);
        if ((i - c * per) % kDuplicateEvery == 0) users.push_back(i);
      }
    }
    const long long records = static_cast<long long>(users.size());
    const double n = static_cast<double>(records);

    bool framed_all = true;
    const double feed_ns = FeedNsPerRecord(slices, records, framed_all);

    serve::AdmissionOptions admission;
    admission.per_user_rate = kPerUserRate;
    serve::UserAdmissionTable table(admission);
    for (long long user : users) table.Admit(user, 0.0);
    double admit_clock = 0.0;
    long long admitted = 0;
    const double admit_ns =
        MedianSeconds(3, [&] {
          admit_clock += 1.0;  // buckets refill between passes
          ScopedSpan span("serve.admission.UserAdmissionTable.Admit", records);
          admitted = 0;
          for (long long user : users) {
            admitted += table.Admit(user, admit_clock) ? 1 : 0;
          }
        }) * 1e9 / n;

    const double classify_ns =
        MedianOf(3, [&] {
          serve::UserReplayTable replay(64);
          for (long long u = 0; u < kUsers; ++u) {
            replay.Classify(u, {earlier.frame(u), earlier.frame_bytes}, 0);
          }
          const double t0 = Now();
          ScopedSpan span("serve.replay.UserReplayTable.Classify", records);
          for (long long user : users) {
            replay.Classify(user, {later.frame(user), later.frame_bytes}, 1);
          }
          return Now() - t0;
        }) * 1e9 / n;

    long long accepted = 0;
    const double ingest_ns =
        MedianOf(3, [&] {
          serve::LongitudinalOptions options = collector_->options();
          options.collector.lanes = 1;
          serve::LongitudinalCollector collector(*oracle_, options);
          collector.OpenEpoch();
          for (long long u = 0; u < kUsers; ++u) {
            collector.Ingest(serve::IngestRequest{
                {earlier.frame(u), earlier.frame_bytes}, u});
          }
          collector.Seal();
          collector.OpenEpoch();
          const double t0 = Now();
          {
            ScopedSpan span("serve.longitudinal.Ingest", records);
            for (long long user : users) {
              collector.Ingest(serve::IngestRequest{
                  {later.frame(user), later.frame_bytes}, user});
            }
          }
          const double seconds = Now() - t0;
          accepted = collector.Seal().n;
          return seconds;
        }) * 1e9 / n;
    outcome.Expect(framed_all && admitted == records && accepted == kUsers,
                   "longitudinal_grr: a layer probe did not process every "
                   "record");

    layers.push_back({"serve.loadgen.encode_ns.longitudinal_grr",
                      encoded_ > 0 ? encode_s_ * 1e9 / encoded_ : 0.0, "ns"});
    layers.push_back(
        {"serve.wire_session.feed_ns.longitudinal_grr", feed_ns, "ns"});
    layers.push_back({"serve.admission.admit_ns", admit_ns, "ns"});
    layers.push_back({"serve.replay.classify_ns", classify_ns, "ns"});
    layers.push_back({"serve.longitudinal.ingest_ns", ingest_ns, "ns"});

    const double e2e_ns = 1e9 / phase.throughput_per_s;
    const double seal_ns =
        ValueOf(phase.layers, "serve.seal_us.longitudinal_grr") * 1e3 / n;
    const double residual = PrintCostModel(
        "longitudinal_grr ingest, one loop thread", "ns per record",
        {{"serve.wire_session.feed_ns.longitudinal_grr",
          "WireSession::Feed, 64 KiB chunks, accept-all sink", feed_ns},
         {"serve.admission.admit_ns", "UserAdmissionTable::Admit", admit_ns},
         {"serve.longitudinal.ingest_ns",
          "LongitudinalCollector::Ingest, one lane", ingest_ns},
         {"serve.seal_us.longitudinal_grr",
          "LongitudinalCollector::Seal, per record", seal_ns}},
        e2e_ns);
    std::printf("    of which serve.replay.classify_ns %.2f\n", classify_ns);
    layers.push_back(
        {"serve.transport.residual_ns.longitudinal_grr", residual, "ns"});

    // Server state for the run's traffic, measured where nothing else
    // allocates: a fresh pipeline (replay table, admission buckets, sealed
    // history) fed every round the clients sent. The live process also
    // holds the client simulator's permanent answers, so its own heap
    // growth would overstate the server's.
    const double heap0 = HeapInUseMb();
    double state_mb = 0.0;
    {
      serve::LongitudinalOptions options = collector_->options();
      options.collector.lanes = 1;
      serve::LongitudinalCollector state(*oracle_, options);
      serve::UserAdmissionTable buckets(admission);
      double clock = 0.0;
      for (const std::vector<std::uint8_t>& round : frames_) {
        state.OpenEpoch();
        clock += 1.0;
        for (long long u = 0; u < kUsers; ++u) {
          buckets.Admit(u, clock);
          state.Ingest(serve::IngestRequest{
              {round.data() + u, std::size_t{1}}, u});
        }
        state.Seal();
      }
      state_mb = HeapInUseMb() - heap0;
    }
    layers.push_back({"serve.state_mb", state_mb, "MB"});
    layers.push_back({"serve.state.bytes_per_user",
                      state_mb * 1024.0 * 1024.0 / kUsers, "B"});
    std::printf("  state after %zu epochs: %.1f MB, %.0f B per user\n",
                frames_.size(), state_mb, state_mb * 1024.0 * 1024.0 / kUsers);
  }

 private:
  /// A fixed epoch count rather than a deadline: per-user state grows with
  /// every epoch, so a faster run must not end with more of it. About
  /// `seconds` of epochs at ~8 epochs/s, never fewer than kMinEpochs.
  static int TimedEpochs(double seconds) {
    return std::max(kMinEpochs, static_cast<int>(std::lround(8.0 * seconds)));
  }

  static serve::EncodedStream StreamOf(const std::vector<std::uint8_t>& bytes) {
    serve::EncodedStream stream;
    stream.bytes = bytes;
    stream.frame_bytes = 1;
    stream.count = static_cast<long long>(bytes.size());
    return stream;
  }

  static std::vector<std::vector<std::uint8_t>> Slices(
      const serve::EncodedStream& stream) {
    std::vector<std::vector<std::uint8_t>> slices;
    const long long per = stream.count / kConnections;
    for (int c = 0; c < kConnections; ++c) {
      slices.push_back(serve::FrameStreamRecords(
          stream, c * per, (c + 1) * per, 0, kDuplicateEvery));
    }
    return slices;
  }

  void RunEpoch(SocketPhase* phase) {
    // Encoding and framing the next round happen before the epoch opens
    // and are not part of its time.
    const std::size_t round = frames_.size();
    serve::EncodedStream stream;
    {
      ScopedSpan span("serve.loadgen.LongitudinalClients.EncodeRound",
                      kUsers);
      const double t0 = Now();
      stream = clients_->EncodeRound(values_[round], root_);
      encode_s_ += Now() - t0;
      encoded_ += kUsers;
    }
    std::vector<std::vector<std::uint8_t>> slices;
    {
      ScopedSpan span("serve.loadgen.FrameStreamRecords", kUsers);
      slices = Slices(stream);
    }
    long long records = 0;
    for (const auto& slice : slices) {
      records += static_cast<long long>(slice.size()) /
                 static_cast<long long>(serve::kRecordHeaderBytes +
                                        serve::kRecordUserBytes +
                                        stream.frame_bytes);
    }
    frames_.push_back(std::move(stream.bytes));
    const SocketHarness::Epoch epoch = harness_->Run(
        slices, records, [&] { collector_->OpenEpoch(); },
        [&] { collector_->Seal(); });
    epochs_ok_ = epochs_ok_ && epoch.ok;
    if (phase != nullptr) phase->Add(epoch, records);
  }

  Config config_;
  std::unique_ptr<fo::FrequencyOracle> oracle_;
  std::vector<std::vector<int>> values_;
  std::unique_ptr<serve::LongitudinalClients> clients_;
  Rng root_;
  /// Every round's client frames, in order (the correctness reference).
  std::vector<std::vector<std::uint8_t>> frames_;
  std::unique_ptr<serve::LongitudinalCollector> collector_;
  std::unique_ptr<SocketHarness> harness_;
  double encode_s_ = 0.0;
  long long encoded_ = 0;
  bool epochs_ok_ = true;
};

}  // namespace

std::unique_ptr<Workload> MakeSocketOue(const Config& config) {
  return std::make_unique<SocketOue>(config);
}

std::unique_ptr<Workload> MakeLongitudinalGrr(const Config& config) {
  return std::make_unique<LongitudinalGrr>(config);
}

}  // namespace perfbench
