#ifndef LDPR_SERVE_SERVER_H_
#define LDPR_SERVE_SERVER_H_

// The network front door: an event-loop (epoll on Linux, poll(2)
// elsewhere) TCP / Unix-domain-socket server that frames
// length-prefixed wire records (serve/wire_session.h format) off
// non-blocking connections into any IngestSink — the lock-striped
// Collector, the longitudinal pipeline with its replay classification, or
// the multidimensional front-end, all through the one IngestRequest API.
//
// Admission control happens in layers, each surfacing as a counted reject
// (never an exception, never silent):
//   * per-connection pacing (WireSessionOptions::conn_rate): backpressure —
//     the owning reactor stops polling a connection for reads until its
//     pacing debt refills, so the kernel socket buffer, then the peer,
//     absorb the excess; nothing already read is dropped;
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
// The server runs R reactors, R = max(1, DefaultThreadCount() / 2) (core
// threads; LDPR_THREADS=1 gives one). Each reactor is one thread with its
// own poller, wake pipe, read buffer and connection map, and ingest runs on
// the reactor that owns the connection, one IngestSink::IngestAll call per
// read chunk. Reactor 0 also owns the listeners and the admin endpoint: the
// accept counter gives connection i lane hint i and hands it to reactor
// i % R, so with as many lanes as reactors each reactor decodes into lanes
// no other reactor touches. The sink's lock-striped lanes make concurrent
// reactors (and any in-process producers) safe either way. Only the owning
// reactor reads or closes a connection's fd; shedding picks the globally
// lowest-priority connection and posts its close to the owner.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
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
  /// read(2) chunk size per readable connection per reactor iteration.
  std::size_t read_chunk = 64 << 10;

  /// Admin scrape endpoint: a read-only HTTP listener (`GET /metrics` in
  /// Prometheus text, `/metrics.json`) riding reactor 0's event loop on
  /// its own socket(s), so it is safe to scrape mid-epoch and costs nothing
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

/// The socket ingest server. Start() spawns every reactor thread before it
/// returns; Stop() (or destruction) joins them and closes every socket. A
/// server starts once. The sink must outlive the server.
class IngestServer {
 public:
  IngestServer(IngestSink& sink, const ServerOptions& options);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Binds the configured listeners (ingest and/or admin) and starts the
  /// reactor threads. Throws on bind/listen failure. At least one listener
  /// must be configured; an admin-only server is legal (in-process ingest
  /// with a live scrape endpoint).
  void Start();

  /// Stops the reactors, ingests the bytes each live connection had already
  /// delivered, closes every connection and listener, and folds the
  /// remaining live-session counters into the totals. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Reactor threads the server runs (fixed at construction).
  int reactors() const { return reactor_count_; }
  /// The bound UDS path ("" when not listening on one).
  const std::string& uds_path() const { return options_.uds_path; }
  /// The bound TCP port (-1 when not listening; resolved when ephemeral).
  int tcp_port() const { return tcp_port_; }
  /// The bound admin TCP port (-1 when not listening on one).
  int admin_tcp_port() const { return admin_tcp_port_; }

  /// Point-in-time counters: totals of closed connections plus a live
  /// snapshot of every open session, summed over the reactors.
  ServerCounters counters() const;

 private:
  struct Connection;
  struct AdminConnection;
  class Poller;
  struct Reactor;

  void Run(Reactor& reactor);
  /// Closes the reactor's shed connections and resumes the paused ones
  /// whose pacing debt refilled; returns the wait until the next is due.
  int Housekeep(Reactor& reactor, double now);
  void AcceptReady(int listener_fd, double now);
  /// Reads one chunk from a connection and ingests it; closes the
  /// connection on EOF / error / protocol error.
  void ReadReady(Reactor& reactor, int fd, double now);
  /// Folds a connection's session into its reactor's totals; the caller
  /// holds reactor.mutex.
  void Retire(Reactor& reactor, Connection& conn, bool shed);
  /// Sheds the globally lowest-priority connection; false when none exist.
  bool ShedLowestPriority();
  /// Sustained-overload monitor (reactor 0); may lower *timeout_ms to the
  /// end of the grace period.
  void WatchOverload(double now, int* timeout_ms);
  /// One reactor's counters: its totals plus its live sessions.
  ServerCounters ReactorCounters(const Reactor& reactor) const;
  int PausedCount(double now) const;

  /// Admin endpoint plumbing, all on reactor 0: accept, buffer the request
  /// head, render once it is complete, then drain the response (partial
  /// writes resume on EPOLLOUT) and close.
  void AdminAcceptReady(int listener_fd, double now);
  void AdminEventReady(int fd, double now);
  void CloseAdmin(int fd);
  obs::MetricsRegistry& AdminRegistry() const;

  IngestSink& sink_;
  ServerOptions options_;
  int reactor_count_;
  /// Sessions' admission table: the sink's, else own_users_ (or null).
  UserStateTable* users_ = nullptr;
  std::unique_ptr<UserStateTable> own_users_;

  int uds_listen_ = -1;
  int tcp_listen_ = -1;
  int tcp_port_ = -1;
  int admin_uds_listen_ = -1;
  int admin_tcp_listen_ = -1;
  int admin_tcp_port_ = -1;

  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  double started_at_ = 0.0;
  double stopped_after_ = 0.0;  ///< seconds from Start to Stop

  /// Live connections across all reactors (capacity shedding) and how many
  /// of them are pacing-paused (the overload monitor).
  std::atomic<int> live_{0};
  std::atomic<int> paused_{0};

  /// Reactor 0 only: the accept counter (lane hint and reactor pick), the
  /// overload clock and the admin connections.
  long long accepted_ = 0;
  double overload_since_ = -1.0;  ///< < 0: not currently over the watermark
  std::unordered_map<int, std::unique_ptr<AdminConnection>> admin_conns_;

  /// Set iff options.metrics != nullptr.
  struct Obs {
    obs::MetricsRegistry* registry = nullptr;
    std::shared_ptr<obs::Histogram> pause_seconds;
    long long callback_id = 0;
  };
  std::unique_ptr<Obs> obs_;

  /// Built by Start(); kept after Stop() so counters() stays readable. The
  /// threads inside use every member above.
  std::vector<std::unique_ptr<Reactor>> reactors_;
};

}  // namespace ldpr::serve

#endif  // LDPR_SERVE_SERVER_H_
