#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <netinet/in.h>
#include <netinet/tcp.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "core/check.h"
#include "core/parallel.h"
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

void MergeCounters(const ServerCounters& from, ServerCounters& into) {
  into.connections += from.connections;
  into.closed += from.closed;
  into.shed_connections += from.shed_connections;
  into.sessions.Merge(from.sessions);
}

/// Admin connections a single server holds at once — scrapers, not users.
/// At the cap an accept evicts the connection idle longest with its request
/// head incomplete, so idle sockets cannot lock scrapers out; it refuses
/// the newcomer only when every slot is draining a response.
constexpr std::size_t kMaxAdminConnections = 16;

}  // namespace

struct IngestServer::Connection {
  Connection(int fd_in, IngestSink& sink, UserStateTable* users,
             const WireSessionOptions& options, int lane, double now)
      : fd(fd_in), session(sink, users, options, lane, now) {}

  int fd;
  WireSession session;
  bool paused = false;
  /// Picked for shedding: its session is already folded into the totals,
  /// it ingests nothing more, and its owner closes it on the next wake.
  bool shed = false;
};

/// One admin scrape client: buffers the request head, then drains the
/// rendered response. Reactor 0 only.
struct IngestServer::AdminConnection {
  AdminConnection(int fd_in, double now) : fd(fd_in), last_read(now) {}

  int fd;
  double last_read;  ///< accept or latest request bytes
  std::string request;
  std::string response;
  std::size_t written = 0;
  bool responding = false;  ///< request complete, response being drained
};

/// Readiness notification behind one interface: epoll(7) on Linux, poll(2)
/// elsewhere. Ingest connections only ever track read interest (the server
/// writes nothing at them); admin connections flip to write interest while
/// a response drains. A registered fd with all interest off still reports
/// hangups/errors, so a paused connection's death is noticed. Add may be
/// called from another thread (reactor 0 hands connections off); the other
/// calls come from the owning reactor.
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
  // A poll(2) set is rebuilt per Wait, so an fd added from another thread
  // is watched from the owner's next wake on.
  void Add(int fd) { Set(fd, POLLIN); }
  void SetInterest(int fd, bool read, bool write) {
    Set(fd, static_cast<short>((read ? POLLIN : 0) | (write ? POLLOUT : 0)));
  }
  void SetWantRead(int fd, bool want) { SetInterest(fd, want, false); }
  void Remove(int fd) {
    std::lock_guard<std::mutex> guard(mutex_);
    interest_.erase(fd);
  }

  void Wait(int timeout_ms, std::vector<int>& ready) {
    ready.clear();
    std::vector<pollfd> fds;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      fds.reserve(interest_.size());
      for (const auto& [fd, events] : interest_) {
        fds.push_back(pollfd{fd, events, 0});
      }
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
  void Set(int fd, short events) {
    std::lock_guard<std::mutex> guard(mutex_);
    interest_[fd] = events;
  }

  std::mutex mutex_;
  std::map<int, short> interest_;
#endif
};

/// One event loop: a thread with its own poller, wake pipe, read buffer and
/// connections. The owning thread alone reads, pauses, resumes and closes
/// its connections; other threads take `mutex` to hand one in (reactor 0's
/// accept), to shed one (reactor 0) or to read counters.
struct IngestServer::Reactor {
  Reactor(int index_in, std::size_t read_chunk)
      : index(index_in), read_buffer(read_chunk) {
    int pipe_fds[2];
    LDPR_CHECK(::pipe(pipe_fds) == 0,
               "pipe failed: " << std::strerror(errno));
    wake_read = pipe_fds[0];
    wake_write = pipe_fds[1];
    SetNonBlocking(wake_read);
    SetNonBlocking(wake_write);
    poller.Add(wake_read);
  }
  ~Reactor() {
    ::close(wake_read);
    ::close(wake_write);
  }
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void Wake() const {
    const char byte = 1;
    [[maybe_unused]] const auto ignored = ::write(wake_write, &byte, 1);
  }

  int index;  ///< 0 owns the listeners and the admin endpoint
  Poller poller;
  int wake_read = -1;
  int wake_write = -1;
  std::vector<std::uint8_t> read_buffer;

  /// Guards conns and totals.
  mutable std::mutex mutex;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  /// Connections handed to this reactor, and the closed ones' sessions.
  ServerCounters totals;

  std::thread thread;
};

IngestServer::IngestServer(IngestSink& sink, const ServerOptions& options)
    : sink_(sink),
      options_(options),
      reactor_count_(std::max(1, DefaultThreadCount() / 2)) {
  if (options_.admission.per_user_rate > 0.0) {
    users_ = sink.user_state();
    if (users_ != nullptr) {
      users_->EnableAdmission(options_.admission);
    } else {
      own_users_ = std::make_unique<UserStateTable>(options_.admission);
      users_ = own_users_.get();
    }
  }
}

IngestServer::~IngestServer() { Stop(); }

void IngestServer::Start() {
  LDPR_REQUIRE(reactors_.empty(), "server already started");
  LDPR_REQUIRE(!options_.uds_path.empty() || options_.tcp_port >= 0 ||
                   !options_.admin_uds_path.empty() ||
                   options_.admin_tcp_port >= 0,
               "server needs a UDS path or a TCP port to listen on");

  for (int r = 0; r < reactor_count_; ++r) {
    reactors_.push_back(std::make_unique<Reactor>(r, options_.read_chunk));
  }
  Poller& front = reactors_.front()->poller;
  if (!options_.uds_path.empty()) {
    uds_listen_ = BindUdsListener(options_.uds_path);
    front.Add(uds_listen_);
  }
  if (options_.tcp_port >= 0) {
    tcp_listen_ = BindTcpListener(options_.tcp_port, &tcp_port_);
    front.Add(tcp_listen_);
  }
  if (!options_.admin_uds_path.empty()) {
    admin_uds_listen_ = BindUdsListener(options_.admin_uds_path);
    front.Add(admin_uds_listen_);
  }
  if (options_.admin_tcp_port >= 0) {
    admin_tcp_listen_ =
        BindTcpListener(options_.admin_tcp_port, &admin_tcp_port_);
    front.Add(admin_tcp_listen_);
  }

  if (options_.metrics) {
    obs_ = std::make_unique<Obs>();
    obs_->registry = options_.metrics;
    obs_->pause_seconds = options_.metrics->GetHistogram(
        "ldpr_conn_pause_seconds", "",
        "Pacing pauses imposed on connections (token-bucket backpressure)",
        reactor_count_, obs::HistogramUnit::kSeconds);
    // Lifecycle and session totals come straight out of the reactors'
    // counters at scrape time — the record path already maintains them.
    obs_->callback_id = options_.metrics->RegisterCallback(
        [this](std::vector<obs::Sample>& out) {
          ServerCounters sc;
          for (std::size_t r = 0; r < reactors_.size(); ++r) {
            const ServerCounters rc = ReactorCounters(*reactors_[r]);
            MergeCounters(rc, sc);
            out.push_back({"ldpr_server_reactor_records_total",
                           "reactor=\"" + std::to_string(r) + "\"",
                           static_cast<double>(rc.sessions.records),
                           obs::MetricKind::kCounter,
                           "Wire records framed off connections, by the "
                           "reactor that owns them"});
          }
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
          out.push_back({"ldpr_server_reactors", "",
                         static_cast<double>(reactors_.size()),
                         obs::MetricKind::kGauge,
                         "Reactor threads (event loops) serving "
                         "connections"});
          out.push_back({"ldpr_server_uptime_seconds", "",
                         MonotonicSeconds() - started_at_,
                         obs::MetricKind::kGauge,
                         "Wall seconds since Start()"});
        });
  }

  stop_.store(false, std::memory_order_relaxed);
  started_at_ = MonotonicSeconds();
  running_.store(true, std::memory_order_release);
  // Every reactor starts here, from the caller's thread: a reactor started
  // later by another reactor would inherit that reactor's CPU affinity.
  for (auto& reactor : reactors_) {
    reactor->thread = std::thread([this, &r = *reactor] { Run(r); });
  }
}

void IngestServer::Stop() {
  if (!running()) return;
  stop_.store(true, std::memory_order_relaxed);
  for (auto& reactor : reactors_) reactor->Wake();
  for (auto& reactor : reactors_) reactor->thread.join();

  if (obs_) {
    obs_->registry->UnregisterCallback(obs_->callback_id);
    obs_.reset();
  }
  for (auto& [fd, conn] : admin_conns_) ::close(fd);
  admin_conns_.clear();

  // Ingest what peers had already delivered before folding their sessions:
  // a record sent before Stop() must not be lost because another reactor
  // happened to reach its own connections first. Reading stops at the bytes
  // queued now, so a peer that keeps writing cannot hold Stop() up.
  for (auto& reactor : reactors_) {
    std::lock_guard<std::mutex> guard(reactor->mutex);
    std::vector<std::uint8_t>& buffer = reactor->read_buffer;
    for (auto& [fd, conn] : reactor->conns) {
      if (conn->shed) {
        ::close(fd);
        continue;
      }
      int queued = 0;
      if (::ioctl(fd, FIONREAD, &queued) != 0) queued = 0;
      const double now = MonotonicSeconds();
      while (queued > 0) {
        const ssize_t n = ::read(
            fd, buffer.data(),
            std::min(buffer.size(), static_cast<std::size_t>(queued)));
        if (n <= 0 ||
            !conn->session.Feed({buffer.data(), static_cast<std::size_t>(n)},
                                now)) {
          break;
        }
        queued -= static_cast<int>(n);
      }
      Retire(*reactor, *conn, /*shed=*/false);
      ::close(fd);
    }
    reactor->conns.clear();
  }
  for (int* listener : {&uds_listen_, &tcp_listen_, &admin_uds_listen_,
                        &admin_tcp_listen_}) {
    if (*listener >= 0) ::close(*listener);
    *listener = -1;
  }
  if (!options_.uds_path.empty()) ::unlink(options_.uds_path.c_str());
  if (!options_.admin_uds_path.empty())
    ::unlink(options_.admin_uds_path.c_str());
  stopped_after_ = MonotonicSeconds() - started_at_;
  running_.store(false, std::memory_order_release);
}

ServerCounters IngestServer::ReactorCounters(const Reactor& reactor) const {
  std::lock_guard<std::mutex> guard(reactor.mutex);
  ServerCounters out = reactor.totals;
  for (const auto& [fd, conn] : reactor.conns) {
    if (!conn->shed) out.sessions.Merge(conn->session.counters());
  }
  return out;
}

ServerCounters IngestServer::counters() const {
  ServerCounters out;
  for (const auto& reactor : reactors_) {
    MergeCounters(ReactorCounters(*reactor), out);
  }
  out.seconds =
      running() ? MonotonicSeconds() - started_at_ : stopped_after_;
  return out;
}

void IngestServer::Run(Reactor& reactor) {
  const bool front = reactor.index == 0;
  std::vector<int> ready;
  while (!stop_.load(std::memory_order_relaxed)) {
    int timeout_ms = Housekeep(reactor, MonotonicSeconds());
    if (front && options_.shed_paused_watermark >= 0) {
      WatchOverload(MonotonicSeconds(), &timeout_ms);
    }
    reactor.poller.Wait(timeout_ms, ready);
    const double now = MonotonicSeconds();
    for (int fd : ready) {
      if (fd == reactor.wake_read) {
        char drain[64];
        while (::read(reactor.wake_read, drain, sizeof(drain)) > 0) {
        }
      } else if (front && (fd == uds_listen_ || fd == tcp_listen_)) {
        AcceptReady(fd, now);
      } else if (front &&
                 (fd == admin_uds_listen_ || fd == admin_tcp_listen_)) {
        AdminAcceptReady(fd, now);
      } else if (front && admin_conns_.count(fd) != 0) {
        AdminEventReady(fd, now);
      } else {
        ReadReady(reactor, fd, now);
      }
    }
  }
}

int IngestServer::Housekeep(Reactor& reactor, double now) {
  int timeout_ms = 200;
  std::lock_guard<std::mutex> guard(reactor.mutex);
  for (auto it = reactor.conns.begin(); it != reactor.conns.end();) {
    Connection& conn = *it->second;
    if (conn.shed) {
      reactor.poller.Remove(conn.fd);
      ::close(conn.fd);
      it = reactor.conns.erase(it);
      continue;
    }
    if (conn.paused) {
      const double delay = conn.session.resume_at() - now;
      if (delay <= 0.0) {
        conn.paused = false;
        paused_.fetch_sub(1, std::memory_order_relaxed);
        reactor.poller.SetWantRead(conn.fd, true);
      } else {
        timeout_ms = std::min(timeout_ms, static_cast<int>(delay * 1000.0) + 1);
      }
    }
    ++it;
  }
  return timeout_ms;
}

void IngestServer::WatchOverload(double now, int* timeout_ms) {
  if (paused_.load(std::memory_order_relaxed) <=
      options_.shed_paused_watermark) {
    overload_since_ = -1.0;
    return;
  }
  if (overload_since_ < 0.0) overload_since_ = now;
  const double due = overload_since_ + options_.shed_grace_seconds;
  if (now >= due) {
    ShedLowestPriority();
    overload_since_ = now;
  } else {
    *timeout_ms = std::min(*timeout_ms,
                           static_cast<int>((due - now) * 1000.0) + 1);
  }
}

void IngestServer::AcceptReady(int listener_fd, double now) {
  while (true) {
    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (drained) or transient error
    SetNonBlocking(fd);
    if (live_.load(std::memory_order_relaxed) >= options_.max_connections &&
        !ShedLowestPriority()) {
      ::close(fd);  // capacity and nothing sheddable: refuse
      continue;
    }
    const long long index = accepted_++;
    Reactor& target = *reactors_[static_cast<std::size_t>(
        index % static_cast<long long>(reactors_.size()))];
    const int lane = static_cast<int>(index % (1LL << 20));
    live_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> guard(target.mutex);
      target.conns.emplace(fd, std::make_unique<Connection>(
                                   fd, sink_, users_, options_.session, lane,
                                   now));
      ++target.totals.connections;
    }
    target.poller.Add(fd);
    // An epoll set watches the fd at once; a poll(2) set from its next wait.
    if (target.index != 0) target.Wake();
  }
}

void IngestServer::ReadReady(Reactor& reactor, int fd, double now) {
  std::lock_guard<std::mutex> guard(reactor.mutex);
  // A closed fd's number may already be reused by a connection another
  // reactor owns: only a connection in this reactor's map is read.
  auto it = reactor.conns.find(fd);
  if (it == reactor.conns.end()) return;
  Connection& conn = *it->second;
  if (conn.shed) return;  // Housekeep closes it on this reactor's next pass
  // One chunk per readiness event keeps connections fair under load; the
  // level-triggered poller re-reports the fd while bytes remain.
  const ssize_t n =
      ::read(fd, reactor.read_buffer.data(), reactor.read_buffer.size());
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return;
  }
  // EOF, a read error or a protocol error: fold the session in and close.
  if (n <= 0 ||
      !conn.session.Feed(
          {reactor.read_buffer.data(), static_cast<std::size_t>(n)}, now)) {
    Retire(reactor, conn, /*shed=*/false);
    reactor.poller.Remove(fd);
    ::close(fd);
    reactor.conns.erase(it);
    return;
  }
  if (conn.session.paused(now) && !conn.paused) {
    conn.paused = true;
    paused_.fetch_add(1, std::memory_order_relaxed);
    reactor.poller.SetWantRead(fd, false);
    if (obs_)
      obs_->pause_seconds->RecordSeconds(conn.session.resume_at() - now,
                                         reactor.index);
  }
}

void IngestServer::Retire(Reactor& reactor, Connection& conn, bool shed) {
  reactor.totals.sessions.Merge(conn.session.counters());
  ++reactor.totals.closed;
  if (shed) ++reactor.totals.shed_connections;
  live_.fetch_sub(1, std::memory_order_relaxed);
  if (conn.paused) {
    conn.paused = false;
    paused_.fetch_sub(1, std::memory_order_relaxed);
  }
}

bool IngestServer::ShedLowestPriority() {
  // Hold every reactor's mutex, taken in index order (the only order in
  // which any thread holds two), so the pick is global and the victim
  // cannot ingest between being picked and being folded.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(reactors_.size());
  Reactor* owner = nullptr;
  Connection* victim = nullptr;
  double lowest = 0.0;
  for (auto& reactor : reactors_) {
    locks.emplace_back(reactor->mutex);
    for (const auto& [fd, conn] : reactor->conns) {
      if (conn->shed) continue;
      const double priority = conn->session.Priority();
      if (victim == nullptr || priority < lowest) {
        owner = reactor.get();
        victim = conn.get();
        lowest = priority;
      }
    }
  }
  if (victim == nullptr) return false;
  Retire(*owner, *victim, /*shed=*/true);
  victim->shed = true;
  locks.clear();
  owner->Wake();  // only the owner closes the fd
  return true;
}

int IngestServer::PausedCount(double now) const {
  int paused = 0;
  for (const auto& reactor : reactors_) {
    std::lock_guard<std::mutex> guard(reactor->mutex);
    for (const auto& [fd, conn] : reactor->conns) {
      if (!conn->shed && conn->session.paused(now)) ++paused;
    }
  }
  return paused;
}

void IngestServer::AdminAcceptReady(int listener_fd, double now) {
  while (true) {
    const int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (drained) or transient error
    if (admin_conns_.size() >= kMaxAdminConnections) {
      const AdminConnection* idlest = nullptr;
      for (const auto& [admin_fd, conn] : admin_conns_) {
        if (!conn->responding &&
            (idlest == nullptr || conn->last_read < idlest->last_read)) {
          idlest = conn.get();
        }
      }
      if (idlest == nullptr) {  // every slot is draining a response
        ::close(fd);
        continue;
      }
      CloseAdmin(idlest->fd);
    }
    SetNonBlocking(fd);
    admin_conns_.emplace(fd, std::make_unique<AdminConnection>(fd, now));
    reactors_.front()->poller.Add(fd);
  }
}

void IngestServer::AdminEventReady(int fd, double now) {
  auto it = admin_conns_.find(fd);
  if (it == admin_conns_.end()) return;
  AdminConnection& conn = *it->second;
  std::vector<std::uint8_t>& buffer = reactors_.front()->read_buffer;
  if (!conn.responding) {
    const ssize_t n = ::read(fd, buffer.data(), buffer.size());
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      CloseAdmin(fd);
      return;
    }
    if (n == 0) {  // peer gave up mid-request
      CloseAdmin(fd);
      return;
    }
    conn.last_read = now;
    conn.request.append(reinterpret_cast<const char*>(buffer.data()),
                        static_cast<std::size_t>(n));
    if (conn.request.size() > obs::kMaxAdminRequestBytes) {
      CloseAdmin(fd);
      return;
    }
    if (!obs::HttpHeaderComplete(conn.request)) return;
    // Render on reactor 0: registry callbacks take the lane / reactor
    // mutexes briefly, so a mid-epoch scrape sees exact counters without
    // ever blocking on a slow scraper (writes below stay non-blocking).
    conn.response = obs::HandleAdminRequest(conn.request, AdminRegistry());
    conn.responding = true;
    reactors_.front()->poller.SetInterest(fd, /*read=*/false,
                                          /*write=*/true);
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
  reactors_.front()->poller.Remove(fd);
  ::close(fd);
  admin_conns_.erase(it);
}

obs::MetricsRegistry& IngestServer::AdminRegistry() const {
  return options_.metrics ? *options_.metrics : obs::MetricsRegistry::Global();
}

}  // namespace ldpr::serve
