#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <netinet/in.h>
#include <netinet/tcp.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <map>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "core/check.h"
#include "obs/http.h"

namespace ldpr::serve {

namespace {

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  LDPR_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
             "fcntl(O_NONBLOCK) failed: " << std::strerror(errno));
}

/// Binds a non-blocking listening Unix socket, replacing any stale socket
/// file at `path`.
int BindUdsListener(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  LDPR_REQUIRE(path.size() < sizeof(addr.sun_path),
               "UDS path too long: " << path);
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  LDPR_CHECK(fd >= 0, "socket(AF_UNIX) failed: " << std::strerror(errno));
  LDPR_CHECK(
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "bind(" << path << ") failed: " << std::strerror(errno));
  LDPR_CHECK(::listen(fd, 128) == 0,
             "listen failed: " << std::strerror(errno));
  SetNonBlocking(fd);
  return fd;
}

/// Binds a non-blocking loopback TCP listener; writes the resolved port
/// (meaningful when `port` was 0 = ephemeral) to *resolved_port.
int BindTcpListener(int port, int* resolved_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  LDPR_CHECK(fd >= 0, "socket(AF_INET) failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  LDPR_CHECK(
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "bind(127.0.0.1:" << port << ") failed: " << std::strerror(errno));
  LDPR_CHECK(::listen(fd, 128) == 0,
             "listen failed: " << std::strerror(errno));
  SetNonBlocking(fd);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  LDPR_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
             "getsockname failed: " << std::strerror(errno));
  *resolved_port = static_cast<int>(ntohs(bound.sin_port));
  return fd;
}

/// Admin connections a single server tolerates at once — scrapers, not
/// users; beyond this an accept is refused outright.
constexpr std::size_t kMaxAdminConnections = 16;

}  // namespace

struct IngestServer::Connection {
  Connection(int fd_in, IngestSink& sink, UserAdmissionTable* users,
             const WireSessionOptions& options, int lane, double now)
      : fd(fd_in), session(sink, users, options, lane, now) {}

  int fd;
  WireSession session;
  bool paused = false;
};

/// One admin scrape client: buffers the request head, then drains the
/// rendered response. Loop-thread only.
struct IngestServer::AdminConnection {
  explicit AdminConnection(int fd_in) : fd(fd_in) {}

  int fd;
  std::string request;
  std::string response;
  std::size_t written = 0;
  bool responding = false;  ///< request complete, response being drained
};

/// Readiness notification behind one interface: epoll(7) on Linux, poll(2)
/// elsewhere. Ingest connections only ever track read interest (the server
/// writes nothing at them); admin connections flip to write interest while
/// a response drains. A registered fd with all interest off still reports
/// hangups/errors, so a paused connection's death is noticed.
class IngestServer::Poller {
 public:
#ifdef __linux__
  Poller() : epoll_fd_(::epoll_create1(0)) {
    LDPR_CHECK(epoll_fd_ >= 0,
               "epoll_create1 failed: " << std::strerror(errno));
  }
  ~Poller() { ::close(epoll_fd_); }

  void Add(int fd) {
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    LDPR_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) == 0,
               "epoll_ctl(ADD) failed: " << std::strerror(errno));
  }

  void SetInterest(int fd, bool read, bool write) {
    epoll_event event{};
    event.events = (read ? static_cast<std::uint32_t>(EPOLLIN) : 0u) |
                   (write ? static_cast<std::uint32_t>(EPOLLOUT)
                          : 0u);  // 0 still delivers EPOLLHUP/ERR
    event.data.fd = fd;
    LDPR_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &event) == 0,
               "epoll_ctl(MOD) failed: " << std::strerror(errno));
  }
  void SetWantRead(int fd, bool want) { SetInterest(fd, want, false); }

  void Remove(int fd) { ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr); }

  void Wait(int timeout_ms, std::vector<int>& ready) {
    ready.clear();
    epoll_event events[64];
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) ready.push_back(events[i].data.fd);
  }

 private:
  int epoll_fd_;
#else
  void Add(int fd) { interest_[fd] = POLLIN; }
  void SetInterest(int fd, bool read, bool write) {
    interest_[fd] = static_cast<short>((read ? POLLIN : 0) |
                                       (write ? POLLOUT : 0));
  }
  void SetWantRead(int fd, bool want) { SetInterest(fd, want, false); }
  void Remove(int fd) { interest_.erase(fd); }

  void Wait(int timeout_ms, std::vector<int>& ready) {
    ready.clear();
    std::vector<pollfd> fds;
    fds.reserve(interest_.size());
    for (const auto& [fd, events] : interest_) {
      fds.push_back(pollfd{fd, events, 0});
    }
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n <= 0) return;
    for (const pollfd& p : fds) {
      if (p.revents & (POLLIN | POLLOUT | POLLHUP | POLLERR | POLLNVAL)) {
        ready.push_back(p.fd);
      }
    }
  }

 private:
  std::map<int, short> interest_;
#endif
};

IngestServer::IngestServer(IngestSink& sink, const ServerOptions& options)
    : sink_(sink), options_(options) {
  if (options_.admission.per_user_rate > 0.0) {
    users_ = std::make_unique<UserAdmissionTable>(options_.admission);
  }
  read_buffer_.resize(options_.read_chunk);
}

IngestServer::~IngestServer() { Stop(); }

void IngestServer::Start() {
  LDPR_REQUIRE(!loop_.joinable(), "server already started");
  LDPR_REQUIRE(!options_.uds_path.empty() || options_.tcp_port >= 0 ||
                   !options_.admin_uds_path.empty() ||
                   options_.admin_tcp_port >= 0,
               "server needs a UDS path or a TCP port to listen on");

  poller_ = std::make_unique<Poller>();
  if (!options_.uds_path.empty()) {
    uds_listen_ = BindUdsListener(options_.uds_path);
    poller_->Add(uds_listen_);
  }
  if (options_.tcp_port >= 0) {
    tcp_listen_ = BindTcpListener(options_.tcp_port, &tcp_port_);
    poller_->Add(tcp_listen_);
  }
  if (!options_.admin_uds_path.empty()) {
    admin_uds_listen_ = BindUdsListener(options_.admin_uds_path);
    poller_->Add(admin_uds_listen_);
  }
  if (options_.admin_tcp_port >= 0) {
    admin_tcp_listen_ =
        BindTcpListener(options_.admin_tcp_port, &admin_tcp_port_);
    poller_->Add(admin_tcp_listen_);
  }

  int pipe_fds[2];
  LDPR_CHECK(::pipe(pipe_fds) == 0,
             "pipe failed: " << std::strerror(errno));
  wake_read_ = pipe_fds[0];
  wake_write_ = pipe_fds[1];
  SetNonBlocking(wake_read_);
  SetNonBlocking(wake_write_);
  poller_->Add(wake_read_);

  if (options_.metrics) {
    obs_ = std::make_unique<Obs>();
    obs_->registry = options_.metrics;
    obs_->pause_seconds = options_.metrics->GetHistogram(
        "ldpr_conn_pause_seconds", "",
        "Pacing pauses imposed on connections (token-bucket backpressure)",
        1, obs::HistogramUnit::kSeconds);
    // Lifecycle and session totals come straight out of counters() at
    // scrape time — the record path already maintains them.
    obs_->callback_id = options_.metrics->RegisterCallback(
        [this](std::vector<obs::Sample>& out) {
          const ServerCounters sc = counters();
          const auto counter = [&out](const char* name, long long value,
                                      const char* help) {
            out.push_back({name, "", static_cast<double>(value),
                           obs::MetricKind::kCounter, help});
          };
          counter("ldpr_server_connections_total", sc.connections,
                  "Connections accepted, lifetime");
          counter("ldpr_server_closed_total", sc.closed,
                  "Connections closed (peer EOF / error / shed)");
          counter("ldpr_server_shed_connections_total", sc.shed_connections,
                  "Connections closed by load shedding");
          counter("ldpr_server_records_total", sc.sessions.records,
                  "Wire records framed off connections");
          counter("ldpr_server_wire_bytes_total", sc.sessions.wire_bytes,
                  "Bytes read off connections");
          counter("ldpr_server_protocol_errors_total",
                  sc.sessions.protocol_errors,
                  "Connections dropped for malformed framing");
          counter("ldpr_server_reports_total", sc.sessions.ingest.reports,
                  "Reports the sessions saw accepted by the sink");
          ForEachRejectField(
              sc.sessions.ingest, [&out](const char* name, long long value) {
                out.push_back({"ldpr_server_rejects_total",
                               std::string("reason=\"") + name + "\"",
                               static_cast<double>(value),
                               obs::MetricKind::kCounter,
                               "Records refused at the front door, by "
                               "reject reason"});
              });
          out.push_back({"ldpr_server_live_connections", "",
                         static_cast<double>(sc.connections - sc.closed),
                         obs::MetricKind::kGauge, "Connections open now"});
          out.push_back({"ldpr_server_paused_connections", "",
                         static_cast<double>(PausedCount(MonotonicSeconds())),
                         obs::MetricKind::kGauge,
                         "Connections currently pacing-paused"});
          out.push_back({"ldpr_server_uptime_seconds", "", sc.seconds,
                         obs::MetricKind::kGauge,
                         "Wall seconds since Start()"});
        });
  }

  stop_.store(false, std::memory_order_relaxed);
  started_at_ = MonotonicSeconds();
  loop_ = std::thread([this] { Loop(); });
}

void IngestServer::Stop() {
  if (!loop_.joinable()) return;
  stop_.store(true, std::memory_order_relaxed);
  const char byte = 1;
  [[maybe_unused]] const auto ignored = ::write(wake_write_, &byte, 1);
  loop_.join();

  if (obs_) {
    obs_->registry->UnregisterCallback(obs_->callback_id);
    obs_.reset();
  }
  for (auto& [fd, conn] : admin_conns_) {
    poller_->Remove(fd);
    ::close(fd);
  }
  admin_conns_.clear();

  std::lock_guard<std::mutex> guard(mutex_);
  for (auto& [fd, conn] : conns_) {
    totals_.sessions.Merge(conn->session.counters());
    ++totals_.closed;
    poller_->Remove(fd);
    ::close(fd);
  }
  conns_.clear();
  for (int* listener : {&uds_listen_, &tcp_listen_, &admin_uds_listen_,
                        &admin_tcp_listen_, &wake_read_, &wake_write_}) {
    if (*listener >= 0) ::close(*listener);
    *listener = -1;
  }
  if (!options_.uds_path.empty()) ::unlink(options_.uds_path.c_str());
  if (!options_.admin_uds_path.empty())
    ::unlink(options_.admin_uds_path.c_str());
  totals_.seconds = MonotonicSeconds() - started_at_;
  poller_.reset();
}

ServerCounters IngestServer::counters() const {
  std::lock_guard<std::mutex> guard(mutex_);
  ServerCounters out = totals_;
  for (const auto& [fd, conn] : conns_) {
    out.sessions.Merge(conn->session.counters());
  }
  if (loop_.joinable()) out.seconds = MonotonicSeconds() - started_at_;
  return out;
}

void IngestServer::Loop() {
  std::vector<int> ready;
  while (!stop_.load(std::memory_order_relaxed)) {
    int timeout_ms = 200;
    {
      const double now = MonotonicSeconds();
      std::lock_guard<std::mutex> guard(mutex_);
      // Resume connections whose pacing debt refilled; wake for the next
      // one due.
      for (auto& [fd, conn] : conns_) {
        if (!conn->paused) continue;
        const double delay = conn->session.resume_at() - now;
        if (delay <= 0.0) {
          conn->paused = false;
          poller_->SetWantRead(fd, true);
        } else {
          const int ms = static_cast<int>(delay * 1000.0) + 1;
          if (ms < timeout_ms) timeout_ms = ms;
        }
      }
      // Sustained-overload monitor: too many connections rate-paused for
      // longer than the grace period sheds the lowest-priority one.
      if (options_.shed_paused_watermark >= 0) {
        int paused = 0;
        for (const auto& [fd, conn] : conns_) {
          if (conn->paused) ++paused;
        }
        if (paused > options_.shed_paused_watermark) {
          if (overload_since_ < 0.0) overload_since_ = now;
          if (now - overload_since_ >= options_.shed_grace_seconds) {
            ShedLowestPriority();
            overload_since_ = now;
          }
        } else {
          overload_since_ = -1.0;
        }
      }
    }
    poller_->Wait(timeout_ms, ready);
    const double now = MonotonicSeconds();
    for (int fd : ready) {
      if (fd == wake_read_) {
        char drain[64];
        while (::read(wake_read_, drain, sizeof(drain)) > 0) {
        }
      } else if (fd == uds_listen_ || fd == tcp_listen_) {
        AcceptReady(fd, now);
      } else if (fd == admin_uds_listen_ || fd == admin_tcp_listen_) {
        AdminAcceptReady(fd);
      } else if (admin_conns_.count(fd) != 0) {
        AdminEventReady(fd);
      } else {
        ReadReady(fd, now);
      }
    }
  }
}

void IngestServer::AcceptReady(int listener_fd, double now) {
  while (true) {
    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (drained) or transient error
    SetNonBlocking(fd);
    std::lock_guard<std::mutex> guard(mutex_);
    if (static_cast<int>(conns_.size()) >= options_.max_connections &&
        !ShedLowestPriority()) {
      ::close(fd);  // capacity and nothing sheddable: refuse
      continue;
    }
    const int lane = static_cast<int>(next_lane_++ %
                                      static_cast<long long>(1 << 20));
    conns_.emplace(fd, std::make_unique<Connection>(
                           fd, sink_, users_.get(), options_.session, lane,
                           now));
    ++totals_.connections;
    poller_->Add(fd);
  }
}

bool IngestServer::ReadReady(int fd, double now) {
  // One chunk per readiness event keeps connections fair under load; the
  // level-triggered poller re-reports the fd while bytes remain.
  const ssize_t n = ::read(fd, read_buffer_.data(), read_buffer_.size());
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return true;
    }
    CloseConnection(fd, /*shed=*/false);
    return false;
  }
  if (n == 0) {  // peer closed
    CloseConnection(fd, /*shed=*/false);
    return false;
  }
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = conns_.find(fd);
  if (it == conns_.end()) return false;
  Connection& conn = *it->second;
  if (!conn.session.Feed({read_buffer_.data(), static_cast<std::size_t>(n)},
                         now)) {
    // Protocol error: fold the session's counters in and drop the peer.
    totals_.sessions.Merge(conn.session.counters());
    ++totals_.closed;
    poller_->Remove(fd);
    ::close(fd);
    conns_.erase(it);
    return false;
  }
  if (conn.session.paused(now) && !conn.paused) {
    conn.paused = true;
    poller_->SetWantRead(fd, false);
    if (obs_)
      obs_->pause_seconds->RecordSeconds(conn.session.resume_at() - now);
  }
  return true;
}

void IngestServer::AdminAcceptReady(int listener_fd) {
  while (true) {
    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (drained) or transient error
    if (admin_conns_.size() >= kMaxAdminConnections) {
      ::close(fd);
      continue;
    }
    SetNonBlocking(fd);
    admin_conns_.emplace(fd, std::make_unique<AdminConnection>(fd));
    poller_->Add(fd);
  }
}

void IngestServer::AdminEventReady(int fd) {
  auto it = admin_conns_.find(fd);
  if (it == admin_conns_.end()) return;
  AdminConnection& conn = *it->second;
  if (!conn.responding) {
    const ssize_t n = ::read(fd, read_buffer_.data(), read_buffer_.size());
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      CloseAdmin(fd);
      return;
    }
    if (n == 0) {  // peer gave up mid-request
      CloseAdmin(fd);
      return;
    }
    conn.request.append(reinterpret_cast<const char*>(read_buffer_.data()),
                        static_cast<std::size_t>(n));
    if (conn.request.size() > obs::kMaxAdminRequestBytes) {
      CloseAdmin(fd);
      return;
    }
    if (!obs::HttpHeaderComplete(conn.request)) return;
    // Render on the loop thread: registry callbacks take the lane / server
    // mutexes briefly, so a mid-epoch scrape sees exact counters without
    // ever blocking on a slow scraper (writes below stay non-blocking).
    conn.response = obs::HandleAdminRequest(conn.request, AdminRegistry());
    conn.responding = true;
    poller_->SetInterest(fd, /*read=*/false, /*write=*/true);
  }
  while (conn.written < conn.response.size()) {
    // A scraper that hangs up early must cost an EPIPE, not a SIGPIPE.
    const ssize_t n = ::send(fd, conn.response.data() + conn.written,
                             conn.response.size() - conn.written,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      CloseAdmin(fd);
      return;
    }
    conn.written += static_cast<std::size_t>(n);
  }
  CloseAdmin(fd);  // response fully drained; close-delimited like HTTP/1.0
}

void IngestServer::CloseAdmin(int fd) {
  auto it = admin_conns_.find(fd);
  if (it == admin_conns_.end()) return;
  poller_->Remove(fd);
  ::close(fd);
  admin_conns_.erase(it);
}

obs::MetricsRegistry& IngestServer::AdminRegistry() const {
  return options_.metrics ? *options_.metrics : obs::MetricsRegistry::Global();
}

void IngestServer::CloseConnection(int fd, bool shed) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  totals_.sessions.Merge(it->second->session.counters());
  ++totals_.closed;
  if (shed) ++totals_.shed_connections;
  poller_->Remove(fd);
  ::close(fd);
  conns_.erase(it);
}

bool IngestServer::ShedLowestPriority() {
  // Caller holds mutex_.
  int victim = -1;
  double lowest = 0.0;
  for (const auto& [fd, conn] : conns_) {
    const double priority = conn->session.Priority();
    if (victim < 0 || priority < lowest) {
      victim = fd;
      lowest = priority;
    }
  }
  if (victim < 0) return false;
  auto it = conns_.find(victim);
  totals_.sessions.Merge(it->second->session.counters());
  ++totals_.closed;
  ++totals_.shed_connections;
  poller_->Remove(victim);
  ::close(victim);
  conns_.erase(it);
  return true;
}

int IngestServer::PausedCount(double now) const {
  std::lock_guard<std::mutex> guard(mutex_);
  int paused = 0;
  for (const auto& [fd, conn] : conns_) {
    if (conn->session.paused(now)) ++paused;
  }
  return paused;
}

}  // namespace ldpr::serve
