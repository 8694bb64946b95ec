// Microbenchmark (google-benchmark) for the streaming collection service:
// end-to-end ingest throughput of wire-encoded reports through a Collector
// lane (decode + validate + accumulate), the epoch seal cost, and the load
// generator's encode rate.
//
// The issue's acceptance bar: >= 1M wire-decoded reports ingested per second
// per core for GRR and OUE at k = 100 (items_per_second of
// BM_ServeIngest/grr and /oue; all five protocols are reported). OLH pays
// its k universal-hash evaluations per report server-side, SS its omega
// tallies — the same asymmetry the comm-cost model prices client-side.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "data/synthetic.h"
#include "fo/factory.h"
#include "fo/wire.h"
#include "obs/metrics.h"
#include "serve/collector.h"
#include "serve/loadgen.h"
#include "serve/longitudinal.h"
#include "serve/multidim_collector.h"
#include "serve/server.h"
#include "serve/wire_session.h"

namespace {

using namespace ldpr;

constexpr int kDomain = 100;

std::vector<int> MakeValues(long long n) {
  std::vector<int> values(n);
  for (long long i = 0; i < n; ++i) {
    values[i] = static_cast<int>((i * 37 + i / 11) % kDomain);
  }
  return values;
}

serve::EncodedStream MakeStream(const fo::FrequencyOracle& oracle,
                                long long n) {
  Rng root(1);
  sim::Options options;
  options.threads = 1;  // encode single-threaded: the bench measures ingest
  return serve::EncodeScalarLoad(oracle, MakeValues(n), root, options);
}

// One core, one lane: pure decode-and-accumulate throughput.
void BM_ServeIngest(benchmark::State& state, fo::Protocol protocol) {
  const long long n = state.range(0);
  auto oracle = fo::MakeOracle(protocol, kDomain, 1.0);
  const serve::EncodedStream stream = MakeStream(*oracle, n);
  serve::Collector collector(*oracle, serve::CollectorOptions{.lanes = 1});
  for (auto _ : state) {
    for (long long i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(collector.Ingest(
          serve::IngestRequest{{stream.frame(i), stream.frame_bytes}}));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long long>(stream.bytes.size()));
  benchmark::DoNotOptimize(collector.Drain());
}

// Multi-producer aggregate ingest: `producers` real threads, each pinned to
// its own lane (lanes == producers, IngestStream's shard -> lane mapping),
// so every thread runs the one-lane decode loop with zero lock contention
// and cache-line-isolated lane state. items_per_second is the AGGREGATE
// decoded rate across all producers; `producers` and `scaling_eff` (aggregate
// rate / producers, i.e. per-producer rate — divide by the /1 run's rate for
// parallel efficiency) are exported as counters. On a multi-core host the
// /8 run must clear 6x the /1 run for GRR and OUE (the issue's bar); on
// fewer cores than producers the threads time-share and efficiency degrades
// gracefully without affecting correctness (snapshots stay bit-identical).
// The `telemetry` variants (grr_obs / oue_obs) run the identical workload
// with a live MetricsRegistry attached — the on/off pair that proves the
// instrumentation stays off the per-report fast path (gate: on >= off /
// 1.05 in items_per_second, tools/check_bench_regression.py --pair).
void BM_ServeIngestMT(benchmark::State& state, fo::Protocol protocol,
                      bool telemetry) {
  const int producers = static_cast<int>(state.range(0));
  const long long n = 1 << 18;
  auto oracle = fo::MakeOracle(protocol, kDomain, 1.0);
  const serve::EncodedStream stream = MakeStream(*oracle, n);
  obs::MetricsRegistry registry;
  serve::CollectorOptions options;
  options.lanes = producers;
  if (telemetry) options.metrics = &registry;
  serve::Collector collector(*oracle, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::IngestStream(collector, stream, producers));
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["producers"] = producers;
  state.counters["scaling_eff"] = benchmark::Counter(
      static_cast<double>(state.iterations() * n) / producers,
      benchmark::Counter::kIsRate);
  if (telemetry) benchmark::DoNotOptimize(registry.RenderPrometheus());
  benchmark::DoNotOptimize(collector.Drain());
}

// Multidimensional ingest: `producers` real threads (serve::IngestFrames,
// lanes == producers) feeding an ACS-like population of 250k users (d = 18)
// into a MultidimCollector, as SMP[OUE] or RS+FD[GRR] tuples at eps = 1 —
// the two tuple sets of perfbench's multidim_tuples workload.
// items_per_second is the aggregate tuple rate; `scaling_eff` is the
// per-producer rate (divide by the /1 row for parallel efficiency).
struct MultidimLoad {
  data::Dataset dataset = data::AcsEmploymentLike(1, 250000.0 /
                                                        data::kAcsEmploymentN);
  multidim::Smp smp{fo::Protocol::kOue, dataset.domain_sizes(), 1.0};
  multidim::RsFd rsfd{multidim::RsFdVariant::kGrr, dataset.domain_sizes(),
                      1.0};
  serve::EncodedFrames smp_frames;
  serve::EncodedFrames rsfd_frames;

  MultidimLoad() {
    Rng root(7);
    smp_frames = serve::EncodeSmpLoad(smp, dataset, root);
    rsfd_frames = serve::EncodeRsFdLoad(rsfd, dataset, root);
  }
};

void BM_MultidimIngest(benchmark::State& state, bool smp) {
  static const MultidimLoad load;  // encoded once for every row
  const int producers = static_cast<int>(state.range(0));
  const serve::CollectorOptions options{.lanes = producers};
  serve::MultidimCollector collector =
      smp ? serve::MultidimCollector(load.smp, options)
          : serve::MultidimCollector(load.rsfd, options);
  const serve::EncodedFrames& frames =
      smp ? load.smp_frames : load.rsfd_frames;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serve::IngestFrames(collector, frames, producers));
  }
  state.SetItemsProcessed(state.iterations() * frames.count());
  state.counters["producers"] = producers;
  state.counters["scaling_eff"] = benchmark::Counter(
      static_cast<double>(state.iterations() * frames.count()) / producers,
      benchmark::Counter::kIsRate);
  benchmark::DoNotOptimize(collector.Seal());
}

// Full epoch round trip: open, ingest the stream, seal (merge + estimate +
// consistency post-processing).
void BM_ServeEpochRoundTrip(benchmark::State& state, fo::Protocol protocol) {
  const long long n = state.range(0);
  auto oracle = fo::MakeOracle(protocol, kDomain, 1.0);
  const serve::EncodedStream stream = MakeStream(*oracle, n);
  serve::EpochManager manager(*oracle, serve::CollectorOptions{.lanes = 8});
  // collector() is only reachable while an epoch is open: seal an empty
  // epoch up front to read the resolved lane count.
  manager.OpenEpoch();
  const int lanes = manager.collector().lanes();
  benchmark::DoNotOptimize(manager.Seal());
  for (auto _ : state) {
    manager.OpenEpoch();
    for (long long i = 0; i < n; ++i) {
      manager.collector().Ingest(serve::IngestRequest{
          {stream.frame(i), stream.frame_bytes},
          std::nullopt,
          static_cast<int>(i % lanes)});
    }
    benchmark::DoNotOptimize(manager.Seal());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// Seal alone: O(lanes * k) regardless of the reports ingested — the cost of
// snapshotting a live epoch.
void BM_ServeSeal(benchmark::State& state) {
  auto oracle = fo::MakeOracle(fo::Protocol::kOue, kDomain, 1.0);
  const serve::EncodedStream stream = MakeStream(*oracle, 1 << 12);
  serve::EpochManager manager(*oracle, serve::CollectorOptions{.lanes = 8});
  manager.OpenEpoch();
  const int lanes = manager.collector().lanes();
  benchmark::DoNotOptimize(manager.Seal());
  for (auto _ : state) {
    state.PauseTiming();
    manager.OpenEpoch();
    for (long long i = 0; i < stream.count; ++i) {
      manager.collector().Ingest(serve::IngestRequest{
          {stream.frame(i), stream.frame_bytes},
          std::nullopt,
          static_cast<int>(i % lanes)});
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(manager.Seal());
  }
}

// Longitudinal ingest: the per-report overhead the replay classification
// adds on top of decode-and-accumulate (frame hash + sharded per-user
// lookup), plus the seal's ledger merge and window-delta update. Both
// classification paths are exercised: the first iteration classifies every
// frame fresh, later iterations replay them all.
void BM_LongitudinalIngest(benchmark::State& state, fo::Protocol protocol) {
  const long long n = state.range(0);
  auto oracle = fo::MakeOracle(protocol, kDomain, 1.0);
  const serve::EncodedStream stream = MakeStream(*oracle, n);
  serve::LongitudinalOptions options;
  options.collector.lanes = 1;
  options.schedule = serve::EpochSchedule::Sliding(3);
  options.history_cap = 4;  // benchmark iterations must not accumulate state
  serve::LongitudinalCollector collector(*oracle, options);
  for (auto _ : state) {
    collector.OpenEpoch();
    for (long long i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(collector.Ingest(
          serve::IngestRequest{{stream.frame(i), stream.frame_bytes}, i}));
    }
    benchmark::DoNotOptimize(collector.Seal());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long long>(stream.bytes.size()));
}

// The replay table after many epochs: every user already holds 16 distinct
// frame hashes (GRR frames, one per value), and the timed epoch replays the
// newest frame for 90% of users and an older one for the rest, then seals.
// BM_LongitudinalIngest replays one stream, so its users hold a single
// hash each; this is the aged-history case a long-running collection
// reaches. All timed frames are memoized replays, so the table does not
// grow across iterations.
void BM_LongitudinalAged(benchmark::State& state, fo::Protocol protocol) {
  const long long n = state.range(0);
  constexpr int kHistory = 16;
  auto oracle = fo::MakeOracle(protocol, kDomain, 1.0);
  std::vector<std::vector<std::uint8_t>> frames;
  for (int v = 0; v < kDomain; ++v) {
    fo::Report report;
    report.value = v;
    frames.push_back(fo::SerializeReport(*oracle, report));
  }
  // User u's j-th frame; 7 is coprime to kDomain, so j < kHistory are
  // distinct values.
  auto frame = [&](long long u, long long j) {
    return std::span<const std::uint8_t>(
        frames[static_cast<std::size_t>((u + 7 * j) % kDomain)]);
  };
  serve::LongitudinalOptions options;
  options.collector.lanes = 1;
  options.history_cap = 4;  // benchmark iterations must not accumulate state
  serve::LongitudinalCollector collector(*oracle, options);
  for (int j = 0; j < kHistory; ++j) {
    collector.OpenEpoch();
    for (long long u = 0; u < n; ++u) {
      collector.Ingest(serve::IngestRequest{frame(u, j), u});
    }
    collector.Seal();
  }
  long long iteration = 0;
  for (auto _ : state) {
    collector.OpenEpoch();
    for (long long u = 0; u < n; ++u) {
      // Every 10th user replays an older frame, a different one each
      // iteration, so it never matches the previous epoch's newest frame.
      const long long j = u % 10 != 0
                              ? kHistory - 1
                              : (iteration + u / 10) % (kHistory - 1);
      benchmark::DoNotOptimize(
          collector.Ingest(serve::IngestRequest{frame(u, j), u}));
    }
    benchmark::DoNotOptimize(collector.Seal());
    ++iteration;
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// The network front door end to end: an IngestServer listening on a
// Unix-domain socket, LoadGen socket clients streaming framed wire records
// at it, one connection per client. Measures decoded reports/s through the
// full accept -> read -> frame -> validate -> stage pipeline (the issue's
// bar: >= 1M decoded reports/s per core over UDS). The client threads
// time-share the core with the loop thread on small hosts, so this is a
// strict lower bound on the server-side rate.
// As with BM_ServeIngestMT, the `telemetry` variants attach a registry to
// both the collector and the server (connection lifecycle + rejects scrape
// callback, pause histogram) — the ISSUE's non-negotiable: within 3% of the
// off run.
void BM_ServeSocketIngest(benchmark::State& state, fo::Protocol protocol,
                          bool telemetry) {
  const int connections = static_cast<int>(state.range(0));
  const long long n = 1 << 18;
  auto oracle = fo::MakeOracle(protocol, kDomain, 1.0);
  const serve::EncodedStream stream = MakeStream(*oracle, n);
  obs::MetricsRegistry registry;
  serve::CollectorOptions collector_options;
  collector_options.lanes = std::max(connections, 1);
  if (telemetry) collector_options.metrics = &registry;
  serve::Collector collector(*oracle, collector_options);
  // Pre-frame each connection's slice once; the timed region is pure
  // socket + server work.
  std::vector<std::vector<std::uint8_t>> slices;
  const long long per = n / connections;
  for (int c = 0; c < connections; ++c) {
    slices.push_back(serve::FrameStreamRecords(
        stream, c * per, (c + 1) * per, /*first_user=*/std::nullopt));
  }
  char path[64];
  std::snprintf(path, sizeof(path), "/tmp/ldpr_bench_%d.sock",
                static_cast<int>(::getpid()));
  serve::ServerOptions options;
  options.uds_path = path;
  if (telemetry) options.metrics = &registry;
  serve::IngestServer server(collector, options);
  server.Start();
  long long sent = 0;
  for (auto _ : state) {
    std::vector<std::thread> clients;
    for (int c = 0; c < connections; ++c) {
      clients.emplace_back([&, c] {
        serve::SendOverUds(server.uds_path(), slices[c]);
      });
    }
    for (auto& t : clients) t.join();
    sent += per * connections;
    // The timed region must include the server draining its sockets: spin
    // until every sent report is decoded (EOF closes lag the last read).
    while (server.counters().sessions.ingest.reports < sent) {
      std::this_thread::yield();
    }
  }
  state.SetItemsProcessed(state.iterations() * per * connections);
  state.counters["connections"] = connections;
  server.Stop();
  if (telemetry) benchmark::DoNotOptimize(registry.RenderPrometheus());
  benchmark::DoNotOptimize(collector.Drain());
}

// The socket front door's per-chunk layer without the socket: anonymous
// records framed once, then fed to WireSession::Feed in 64 KiB chunks
// (records tear across chunk boundaries as they do off a read()) into an
// EpochManager's open epoch on one lane. Each chunk is one IngestAll pass
// under one lane lock: framing, validation and staging, plus the block
// decodes the staged rows trigger. items_per_second is records ingested.
void BM_ServeFeedChunk(benchmark::State& state, fo::Protocol protocol) {
  const long long n = state.range(0);
  auto oracle = fo::MakeOracle(protocol, kDomain, 1.0);
  const serve::EncodedStream stream = MakeStream(*oracle, n);
  const std::vector<std::uint8_t> wire =
      serve::FrameStreamRecords(stream, 0, n, /*first_user=*/std::nullopt);
  serve::EpochManager manager(*oracle, serve::CollectorOptions{.lanes = 1});
  manager.OpenEpoch();
  constexpr std::size_t kChunk = 64 << 10;
  long long ingested = 0;
  for (auto _ : state) {
    serve::WireSession session(manager.longitudinal(), nullptr, {}, 0, 0.0);
    for (std::size_t at = 0; at < wire.size(); at += kChunk) {
      session.Feed({wire.data() + at, std::min(kChunk, wire.size() - at)},
                   0.0);
    }
    ingested += session.counters().ingest.reports;
  }
  if (ingested != state.iterations() * n) {
    state.SkipWithError("not every framed record was ingested");
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<long long>(wire.size()));
  benchmark::DoNotOptimize(manager.Seal());
}

// The served longitudinal path's per-chunk layer: attributed GRR records in
// 64 KiB WireSession chunks into an aged LongitudinalCollector (200k users
// holding 16 frame hashes each, as in BM_LongitudinalAged) with per-user
// admission armed on the collector's own user-state table. Each record is
// framed, validated, admitted and classified in one user lookup under the
// lane lock, then staged. 90% of users replay their newest frame and the
// rest an older one; the clock moves one second per iteration, so no
// bucket runs dry. An iteration is one epoch: open, feed, seal.
struct LongitudinalAdmit {};

void BM_ServeFeedChunk(benchmark::State& state, LongitudinalAdmit) {
  const long long n = state.range(0);
  constexpr int kHistory = 16;
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, kDomain, 1.0);
  std::vector<std::vector<std::uint8_t>> frames;
  for (int v = 0; v < kDomain; ++v) {
    fo::Report report;
    report.value = v;
    frames.push_back(fo::SerializeReport(*oracle, report));
  }
  auto frame = [&](long long u, long long j) {
    return std::span<const std::uint8_t>(
        frames[static_cast<std::size_t>((u + 7 * j) % kDomain)]);
  };
  serve::LongitudinalOptions options;
  options.collector.lanes = 1;
  options.history_cap = 4;  // benchmark iterations must not accumulate state
  serve::LongitudinalCollector collector(*oracle, options);
  for (int j = 0; j < kHistory; ++j) {
    collector.OpenEpoch();
    for (long long u = 0; u < n; ++u) {
      collector.Ingest(serve::IngestRequest{frame(u, j), u});
    }
    collector.Seal();
  }
  std::vector<std::uint8_t> wire;
  for (long long u = 0; u < n; ++u) {
    const long long j = u % 10 != 0 ? kHistory - 1 : (u / 10) % (kHistory - 1);
    serve::AppendWireRecord(static_cast<std::uint64_t>(u), frame(u, j), wire);
  }
  serve::AdmissionOptions admission;
  admission.per_user_rate = 1e4;
  collector.user_state()->EnableAdmission(admission);
  constexpr std::size_t kChunk = 64 << 10;
  double clock = 0.0;
  long long ingested = 0;
  for (auto _ : state) {
    clock += 1.0;
    collector.OpenEpoch();
    serve::WireSession session(collector, collector.user_state(), {}, 0,
                               clock);
    for (std::size_t at = 0; at < wire.size(); at += kChunk) {
      session.Feed({wire.data() + at, std::min(kChunk, wire.size() - at)},
                   clock);
    }
    ingested += session.counters().ingest.reports;
    benchmark::DoNotOptimize(collector.Seal());
  }
  if (ingested != state.iterations() * n) {
    state.SkipWithError("not every framed record was admitted and ingested");
  }
  state.SetItemsProcessed(state.iterations() * n);
}

// Client side of the pipeline: randomize + serialize (the load generator's
// per-producer work).
void BM_ServeEncode(benchmark::State& state, fo::Protocol protocol) {
  const long long n = state.range(0);
  auto oracle = fo::MakeOracle(protocol, kDomain, 1.0);
  const std::vector<int> values = MakeValues(n);
  Rng root(1);
  sim::Options options;
  options.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        serve::EncodeScalarLoad(*oracle, values, root, options));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

}  // namespace

// The acceptance pair at full width: GRR and OUE, k = 100, n = 1M.
BENCHMARK_CAPTURE(BM_ServeIngest, grr, fo::Protocol::kGrr)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServeIngest, oue, fo::Protocol::kOue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServeIngest, sue, fo::Protocol::kSue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
// OLH ingests k hash evaluations per report, SS omega tallies: smaller n
// keeps the suite quick while items_per_second stays comparable.
BENCHMARK_CAPTURE(BM_ServeIngest, ss, fo::Protocol::kSs)->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServeIngest, olh, fo::Protocol::kOlh)->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

// Scaling sweep: 1/2/4/8 producers over disjoint lanes. The /1 runs measure
// the same work as BM_ServeIngest through the fan-out harness (its overhead
// is one thread handoff per iteration).
BENCHMARK_CAPTURE(BM_ServeIngestMT, grr, fo::Protocol::kGrr, false)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ServeIngestMT, oue, fo::Protocol::kOue, false)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ServeIngestMT, ss, fo::Protocol::kSs, false)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_ServeIngestMT, olh, fo::Protocol::kOlh, false)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Telemetry-on halves of the on/off pairs (same workload, registry
// attached). Gated against their off twins by items_per_second, not
// cpu_time: the socket benches run UseRealTime with client threads.
BENCHMARK_CAPTURE(BM_ServeIngestMT, grr_obs, fo::Protocol::kGrr, true)
    ->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_ServeIngestMT, oue_obs, fo::Protocol::kOue, true)
    ->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_CAPTURE(BM_MultidimIngest, smp, true)
    ->Arg(1)->Arg(3)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_MultidimIngest, rsfd, false)
    ->Arg(1)->Arg(3)->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_CAPTURE(BM_ServeEpochRoundTrip, grr, fo::Protocol::kGrr)
    ->Arg(1 << 18)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServeEpochRoundTrip, oue, fo::Protocol::kOue)
    ->Arg(1 << 18)->Unit(benchmark::kMillisecond);

BENCHMARK(BM_ServeSeal)->Unit(benchmark::kMicrosecond);

BENCHMARK_CAPTURE(BM_LongitudinalIngest, grr, fo::Protocol::kGrr)
    ->Arg(1 << 17)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LongitudinalIngest, oue, fo::Protocol::kOue)
    ->Arg(1 << 17)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LongitudinalAged, grr, fo::Protocol::kGrr)
    ->Arg(20000)->Arg(200000)->Unit(benchmark::kMillisecond);

// Socket ingest over UDS: 1 connection (the per-core bar) and 4 (fan-in),
// plus the telemetry-on twins of the /1 runs.
BENCHMARK_CAPTURE(BM_ServeSocketIngest, grr, fo::Protocol::kGrr, false)
    ->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_ServeSocketIngest, oue, fo::Protocol::kOue, false)
    ->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_ServeSocketIngest, grr_obs, fo::Protocol::kGrr, true)
    ->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_ServeSocketIngest, oue_obs, fo::Protocol::kOue, true)
    ->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();

// The socket path's per-chunk layer (framing + one IngestAll per chunk).
BENCHMARK_CAPTURE(BM_ServeFeedChunk, grr, fo::Protocol::kGrr)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServeFeedChunk, oue, fo::Protocol::kOue)->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
// ... and the same layer on the longitudinal path with per-user admission.
BENCHMARK_CAPTURE(BM_ServeFeedChunk, longitudinal_admit, LongitudinalAdmit{})
    ->Arg(200000)->Unit(benchmark::kMillisecond);

BENCHMARK_CAPTURE(BM_ServeEncode, grr, fo::Protocol::kGrr)->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ServeEncode, oue, fo::Protocol::kOue)->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
