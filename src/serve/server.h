#ifndef LDPR_SERVE_SERVER_H_
#define LDPR_SERVE_SERVER_H_

// The network front door: a single-threaded event-loop (epoll on Linux,
// poll(2) elsewhere) TCP / Unix-domain-socket server that frames
// length-prefixed wire records (serve/wire_session.h format) off
// non-blocking connections into any IngestSink — the lock-striped
// Collector, the longitudinal pipeline with its replay classification, or
// the multidimensional front-end, all through the one IngestRequest API.
//
// Admission control happens in layers, each surfacing as a counted reject
// (never an exception, never silent):
//   * per-connection pacing (WireSessionOptions::conn_rate): backpressure —
//     the loop stops polling a connection for reads until its pacing debt
//     refills, so the kernel socket buffer, then the peer, absorb the
//     excess; nothing already read is dropped;
//   * per-user token buckets (AdmissionOptions::per_user_rate) and
//     duplicate (user, epoch) rejection: kRateLimited / kDuplicate. A sink
//     with a user-state table (the LongitudinalCollector) does both in one
//     lookup under the lane mutex (lock order lane mutex -> user-state
//     shard, serve/ingest.h), after validation and the open-epoch check;
//     for other sinks the session admits through a table the server owns;
//   * load shedding: at connection capacity, and under sustained overload
//     (too many connections rate-paused for longer than the grace period),
//     the lowest-priority connection (WireSession::Priority) is dropped.
//
// One loop thread owns all sockets and sessions; ingest runs on it, one
// IngestSink::IngestAll call per read chunk. The sink's lock-striped lanes
// make that safe alongside any in-process producers, and connections are
// assigned round-robin lane hints so concurrent connections decode into
// distinct lanes.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/stats.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/ingest.h"
#include "serve/wire_session.h"

namespace ldpr::serve {

struct ServerOptions {
  /// Listen on this Unix-domain socket path when non-empty (an existing
  /// socket file at the path is replaced).
  std::string uds_path;
  /// Listen on 127.0.0.1:tcp_port when >= 0 (0 = ephemeral; the resolved
  /// port is readable via tcp_port() after Start).
  int tcp_port = -1;
  /// Connection capacity. An accept beyond it sheds the lowest-priority
  /// live connection to make room.
  int max_connections = 64;
  /// Per-connection framing + pacing configuration.
  WireSessionOptions session;
  /// Per-user admission (disabled unless per_user_rate > 0).
  AdmissionOptions admission;
  /// Sustained-overload shedding: when more than `shed_paused_watermark`
  /// connections are rate-paused continuously for `shed_grace_seconds`,
  /// drop the lowest-priority connection (and restart the grace clock).
  /// Watermark < 0 disables the monitor; capacity shedding stays active.
  int shed_paused_watermark = -1;
  double shed_grace_seconds = 0.5;
  /// read(2) chunk size per readable connection per loop iteration.
  std::size_t read_chunk = 64 << 10;

  /// Admin scrape endpoint: a read-only HTTP listener (`GET /metrics` in
  /// Prometheus text, `/metrics.json`) riding the same event loop on its
  /// own socket(s), so it is safe to scrape mid-epoch and costs nothing
  /// while nobody connects. Bound when admin_uds_path is non-empty /
  /// admin_tcp_port >= 0 (0 = ephemeral, resolved via admin_tcp_port()).
  std::string admin_uds_path;
  int admin_tcp_port = -1;
  /// Telemetry sink. When set the server exports its connection lifecycle,
  /// session totals and per-reason rejects as `ldpr_server_*` series and
  /// records the pause-time histogram there. The admin endpoint renders
  /// this registry, falling back to obs::MetricsRegistry::Global() when
  /// unset.
  obs::MetricsRegistry* metrics = nullptr;
};

struct ServerCounters {
  long long connections = 0;       ///< accepted connections, lifetime
  long long closed = 0;            ///< closed (peer EOF / error / shed)
  long long shed_connections = 0;  ///< closed by load shedding
  double seconds = 0.0;            ///< wall time since Start
  /// Session totals aggregated over live and closed connections.
  SessionCounters sessions;
};

/// The socket ingest server. Start() spawns the loop thread; Stop() (or
/// destruction) joins it and closes every socket. The sink must outlive
/// the server.
class IngestServer {
 public:
  IngestServer(IngestSink& sink, const ServerOptions& options);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Binds the configured listeners (ingest and/or admin) and starts the
  /// loop thread. Throws on bind/listen failure. At least one listener must
  /// be configured; an admin-only server is legal (in-process ingest with a
  /// live scrape endpoint).
  void Start();

  /// Stops the loop, closes every connection and listener, and folds the
  /// remaining live-session counters into the totals. Idempotent.
  void Stop();

  bool running() const { return loop_.joinable(); }
  /// The bound UDS path ("" when not listening on one).
  const std::string& uds_path() const { return options_.uds_path; }
  /// The bound TCP port (-1 when not listening; resolved when ephemeral).
  int tcp_port() const { return tcp_port_; }
  /// The bound admin TCP port (-1 when not listening on one).
  int admin_tcp_port() const { return admin_tcp_port_; }

  /// Point-in-time counters: totals of closed connections plus a live
  /// snapshot of every open session.
  ServerCounters counters() const;

 private:
  struct Connection;
  struct AdminConnection;
  class Poller;

  void Loop();
  void AcceptReady(int listener_fd, double now);
  /// Reads one chunk from a connection; closes it on EOF / error /
  /// protocol error. Returns false when the connection was closed.
  bool ReadReady(int fd, double now);
  void CloseConnection(int fd, bool shed);
  /// Drops the lowest-priority connection; false when none exist.
  bool ShedLowestPriority();
  int PausedCount(double now) const;

  /// Admin endpoint plumbing, all loop-thread only: accept, buffer the
  /// request head, render once it is complete, then drain the response
  /// (partial writes resume on EPOLLOUT) and close.
  void AdminAcceptReady(int listener_fd);
  void AdminEventReady(int fd);
  void CloseAdmin(int fd);
  obs::MetricsRegistry& AdminRegistry() const;

  IngestSink& sink_;
  ServerOptions options_;
  /// Sessions' admission table: the sink's, else own_users_ (or null).
  UserStateTable* users_ = nullptr;
  std::unique_ptr<UserStateTable> own_users_;
  std::unique_ptr<Poller> poller_;

  int uds_listen_ = -1;
  int tcp_listen_ = -1;
  int tcp_port_ = -1;
  int admin_uds_listen_ = -1;
  int admin_tcp_listen_ = -1;
  int admin_tcp_port_ = -1;
  int wake_read_ = -1;
  int wake_write_ = -1;

  std::thread loop_;
  std::atomic<bool> stop_{false};
  double started_at_ = 0.0;

  /// Guards conns_ and totals_ (the loop thread versus counters()/Stop()).
  mutable std::mutex mutex_;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  ServerCounters totals_;
  long long next_lane_ = 0;
  double overload_since_ = -1.0;  ///< < 0: not currently over the watermark
  std::vector<std::uint8_t> read_buffer_;

  /// Loop-thread only (Stop touches it strictly after joining the loop).
  std::unordered_map<int, std::unique_ptr<AdminConnection>> admin_conns_;

  /// Set iff options.metrics != nullptr.
  struct Obs {
    obs::MetricsRegistry* registry = nullptr;
    std::shared_ptr<obs::Histogram> pause_seconds;
    long long callback_id = 0;
  };
  std::unique_ptr<Obs> obs_;
};

}  // namespace ldpr::serve

#endif  // LDPR_SERVE_SERVER_H_
