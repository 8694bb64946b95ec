#ifndef LDPR_SERVE_LOADGEN_H_
#define LDPR_SERVE_LOADGEN_H_

// Load generator for the collection service: synthesizes the wire traffic
// of millions of users so the Collector is exercised end to end (randomize
// -> serialize -> ingest -> seal) rather than via in-process Report objects.
//
// Producers are sharded with the simulation engine's rules (sim::ShardedRun:
// shard boundaries and Fork streams depend only on n), so a fixed root seed
// yields byte-identical traffic under any LDPR_THREADS — which is what lets
// serve_collector_test pin sealed snapshots across thread counts.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <utility>

#include "core/rng.h"
#include "data/dataset.h"
#include "serve/collector.h"
#include "serve/longitudinal.h"
#include "serve/multidim_collector.h"
#include "sim/engine.h"

namespace ldpr::serve {

/// Fixed-stride wire stream: every scalar report of one oracle occupies the
/// same number of whole bytes, so a flat buffer needs no offset table.
struct EncodedStream {
  std::vector<std::uint8_t> bytes;
  std::size_t frame_bytes = 0;
  long long count = 0;

  const std::uint8_t* frame(long long i) const {
    return bytes.data() + static_cast<std::size_t>(i) * frame_bytes;
  }
};

/// Variable-width frame stream for multidimensional tuples (SMP tuples vary
/// with the sampled attribute). offsets.size() == count + 1.
struct EncodedFrames {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> offsets{0};

  long long count() const {
    return static_cast<long long>(offsets.size()) - 1;
  }
  const std::uint8_t* frame(long long i) const {
    return bytes.data() + offsets[static_cast<std::size_t>(i)];
  }
  std::size_t frame_size(long long i) const {
    return offsets[static_cast<std::size_t>(i) + 1] -
           offsets[static_cast<std::size_t>(i)];
  }
};

/// Randomizes values[i] through `oracle` (BatchRandomize draw order) and
/// serializes each report into its slot of one flat buffer, fanned over
/// `options.threads` producers.
EncodedStream EncodeScalarLoad(const fo::FrequencyOracle& oracle,
                               const std::vector<int>& values, Rng& root,
                               const sim::Options& options = {});

/// Multidimensional loads: one wire tuple per dataset record.
EncodedFrames EncodeSplLoad(const multidim::Spl& spl,
                            const data::Dataset& dataset, Rng& root,
                            const sim::Options& options = {});
EncodedFrames EncodeSmpLoad(const multidim::Smp& smp,
                            const data::Dataset& dataset, Rng& root,
                            const sim::Options& options = {});
EncodedFrames EncodeRsFdLoad(const multidim::RsFd& rsfd,
                             const data::Dataset& dataset, Rng& root,
                             const sim::Options& options = {});
EncodedFrames EncodeRsRfdLoad(const multidim::RsRfd& rsrfd,
                              const data::Dataset& dataset, Rng& root,
                              const sim::Options& options = {});

/// Feeds every frame into the collector, producers sharded over lanes
/// (shard s ingests into lane s: zero lock contention). Each producer pulls
/// its shard through the sink's IngestAll in chunks of 4096 frames, so it
/// takes its lane mutex once per chunk and a racing seal waits for at most
/// one chunk. IngestStreamUsers and IngestFrames share this loop. Returns
/// the number of accepted reports.
long long IngestStream(Collector& collector, const EncodedStream& stream,
                       int threads = 0);

/// One timed run of the multi-producer ingest harness.
struct MtIngestResult {
  long long accepted = 0;
  double seconds = 0.0;
  double reports_per_second = 0.0;  ///< aggregate across all producers
};

/// Multi-producer ingest harness: `producers` real threads, each pinned to
/// a disjoint set of the collector's lanes (IngestStream's shard -> lane
/// mapping, one contiguous shard range per worker), with the wall-clock of
/// the whole fan-out measured — the aggregate decoded-reports/s number the
/// MT benchmarks and serve-demo report. Give the collector at least
/// `producers` lanes or producers will share lanes (still correct, just
/// contended).
MtIngestResult IngestStreamMt(Collector& collector,
                              const EncodedStream& stream, int producers);

/// IngestStream for multidimensional tuples: shard s of the frames goes to
/// lane s of the collector in IngestAll chunks. Returns the number of
/// accepted tuples.
long long IngestFrames(MultidimCollector& collector,
                       const EncodedFrames& frames, int threads = 0);

/// A fixed population of longitudinal clients holding RAPPOR-style
/// permanent answers: with memoization on, a client that reports a value it
/// has reported before replays the cached wire frame verbatim instead of
/// randomizing again — so repeated rounds leak nothing new and the server's
/// replay classification charges them eps = 0. With memoization off, every
/// round is a fresh randomization (the uniform-metric baseline whose
/// realized budget grows linearly in the number of rounds).
///
/// Rounds are sharded like EncodeScalarLoad (sim::ShardedRun), so a fixed
/// root seed yields byte-identical traffic under any LDPR_THREADS.
class LongitudinalClients {
 public:
  LongitudinalClients(const fo::FrequencyOracle& oracle, long long num_users,
                      bool memoize = true);

  /// One collection round: values[u] is user u's current true value.
  /// Frame i of the returned stream is user u = i's report.
  EncodedStream EncodeRound(const std::vector<int>& values, Rng& root,
                            const sim::Options& options = {});

  long long num_users() const {
    return static_cast<long long>(clients_.size());
  }
  bool memoize() const { return memoize_; }
  /// Client-side tallies across all rounds so far; with memoization on,
  /// they match the server's replay classification exactly (no hash
  /// collisions at these scales).
  long long fresh_randomizations() const { return fresh_; }
  long long memoized_replays() const { return memoized_; }
  const fo::FrequencyOracle& oracle() const { return oracle_; }

 private:
  struct Client {
    /// Permanent answers: (value, wire frame) pairs, first-report order.
    std::vector<std::pair<int, std::vector<std::uint8_t>>> permanent;
  };

  const fo::FrequencyOracle& oracle_;
  std::size_t frame_bytes_;
  bool memoize_;
  std::vector<Client> clients_;
  long long fresh_ = 0;
  long long memoized_ = 0;
};

/// Feeds frame i of the stream into the collector as user `first_user + i`
/// (accepted frames run through the replay classification), producers
/// sharded over lanes in IngestAll chunks like IngestStream. Returns the
/// number of accepted reports.
long long IngestStreamUsers(LongitudinalCollector& collector,
                            const EncodedStream& stream,
                            long long first_user = 0, int threads = 0);

// ---- Socket client mode: the load generator's network half, speaking the
// serve/wire_session.h record format at serve::IngestServer. ----

/// Frames stream indices [lo, hi) as wire records: frame i is attributed
/// to user `*first_user + i`, or anonymous when first_user is unset. With
/// `duplicate_every` > 0 every duplicate_every-th record is emitted twice
/// back to back (same user, same frame) — traffic that exercises the
/// server's duplicate (user, epoch) rejection.
std::vector<std::uint8_t> FrameStreamRecords(
    const EncodedStream& stream, long long lo, long long hi,
    std::optional<long long> first_user = 0,
    long long duplicate_every = 0);

struct SocketSendResult {
  long long bytes = 0;   ///< bytes written (the whole buffer on success)
  double seconds = 0.0;  ///< connect -> close wall time
};

/// Connects to the server's Unix-domain socket and streams `bytes` over a
/// blocking connection (the server's read pauses propagate here as write
/// backpressure). Throws on connect/write failure.
SocketSendResult SendOverUds(const std::string& uds_path,
                             std::span<const std::uint8_t> bytes);

/// Same over TCP to 127.0.0.1:port.
SocketSendResult SendOverTcp(int port, std::span<const std::uint8_t> bytes);

/// Blocking HTTP/1.0 GET against the server's admin scrape endpoint over
/// its Unix-domain socket: sends `GET <target> HTTP/1.0` and returns the
/// full close-delimited response (status line + headers + body). The
/// scrape client for `ldpr_cli metrics` and the admin-endpoint tests.
std::string HttpGetOverUds(const std::string& uds_path,
                           const std::string& target);

}  // namespace ldpr::serve

#endif  // LDPR_SERVE_LOADGEN_H_
