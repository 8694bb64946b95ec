#include "serve/loadgen.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <netinet/in.h>
#include <netinet/tcp.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>

#include "core/check.h"
#include "core/parallel.h"
#include "fo/wire.h"
#include "serve/wire_session.h"

namespace ldpr::serve {

namespace {

/// Shared shape of the multidim encoders: one frame per dataset record,
/// shard-local buffers concatenated in shard order so the stream is
/// identical to a serial encode of users 0..n-1.
EncodedFrames EncodeRecordFrames(
    const data::Dataset& dataset, Rng& root, const sim::Options& options,
    const std::function<std::vector<std::uint8_t>(const std::vector<int>&,
                                                  Rng&)>& encode) {
  const long long n = dataset.n();
  LDPR_REQUIRE(n >= 1, "load generation requires a non-empty dataset");
  const int shards = sim::ResolveShardCount(n, options);
  std::vector<std::vector<std::uint8_t>> shard_bytes(shards);
  std::vector<std::vector<std::size_t>> shard_sizes(shards);
  sim::ShardedRun(n, root, options,
                  [&](int shard, long long lo, long long hi, Rng& rng) {
                    std::vector<int> record(dataset.d());
                    for (long long user = lo; user < hi; ++user) {
                      for (int j = 0; j < dataset.d(); ++j) {
                        record[j] = dataset.value(static_cast<int>(user), j);
                      }
                      const std::vector<std::uint8_t> frame =
                          encode(record, rng);
                      shard_bytes[shard].insert(shard_bytes[shard].end(),
                                                frame.begin(), frame.end());
                      shard_sizes[shard].push_back(frame.size());
                    }
                  });
  EncodedFrames out;
  for (int s = 0; s < shards; ++s) {
    out.bytes.insert(out.bytes.end(), shard_bytes[s].begin(),
                     shard_bytes[s].end());
    for (std::size_t size : shard_sizes[s]) {
      out.offsets.push_back(out.offsets.back() + size);
    }
  }
  return out;
}

long long FrameCount(const EncodedStream& stream) { return stream.count; }
long long FrameCount(const EncodedFrames& frames) { return frames.count(); }

std::span<const std::uint8_t> FrameAt(const EncodedStream& stream,
                                      long long i) {
  return {stream.frame(i), stream.frame_bytes};
}

std::span<const std::uint8_t> FrameAt(const EncodedFrames& frames,
                                      long long i) {
  return {frames.frame(i), frames.frame_size(i)};
}

/// Frames [next, end) of an encoded stream as one IngestSource chunk, all
/// on one lane; frame i is user first_user + i when attributed. Counts the
/// accepted verdicts.
template <typename Frames>
class FrameChunk final : public IngestSource {
 public:
  FrameChunk(const Frames& frames, long long next, long long end, int lane,
             std::optional<long long> first_user)
      : frames_(frames),
        next_(next),
        end_(end),
        lane_(lane),
        first_user_(first_user) {}

  bool Next(IngestRequest& request) override {
    if (next_ == end_) return false;
    request.frame = FrameAt(frames_, next_);
    request.user = first_user_.has_value()
                       ? std::optional<long long>(*first_user_ + next_)
                       : std::nullopt;
    request.lane = lane_;
    ++next_;
    return true;
  }
  void Done(const IngestRequest&, IngestResult result) override {
    accepted_ += result.accepted ? 1 : 0;
  }
  long long accepted() const { return accepted_; }

 private:
  const Frames& frames_;
  long long next_;
  const long long end_;
  const int lane_;
  const std::optional<long long> first_user_;
  long long accepted_ = 0;
};

/// Frames per IngestAll call: a Seal racing a producer waits for at most
/// one chunk's run under the lane mutex.
constexpr long long kProducerChunk = 4096;

/// The one in-process producer loop behind IngestStream, IngestStreamUsers
/// and IngestFrames: `shards` contiguous shards of the stream (shard s on
/// lane s, so producers on distinct lanes never contend), each fed to
/// sink.IngestAll in chunks of kProducerChunk frames, fanned over
/// `threads` workers. Returns the number of accepted frames.
template <typename Frames>
long long Produce(IngestSink& sink, const Frames& frames, int shards,
                  std::optional<long long> first_user, int threads) {
  std::vector<long long> accepted(shards, 0);
  ParallelForShards(
      FrameCount(frames), shards,
      [&](int shard, long long lo, long long hi) {
        long long ok = 0;
        for (long long begin = lo; begin < hi; begin += kProducerChunk) {
          FrameChunk<Frames> chunk(frames, begin,
                                   std::min(hi, begin + kProducerChunk),
                                   shard, first_user);
          sink.IngestAll(chunk);
          ok += chunk.accepted();
        }
        accepted[shard] = ok;
      },
      threads);
  long long total = 0;
  for (long long a : accepted) total += a;
  return total;
}

}  // namespace

EncodedStream EncodeScalarLoad(const fo::FrequencyOracle& oracle,
                               const std::vector<int>& values, Rng& root,
                               const sim::Options& options) {
  const long long n = static_cast<long long>(values.size());
  LDPR_REQUIRE(n >= 1, "load generation requires at least one value");
  EncodedStream out;
  out.count = n;
  out.frame_bytes =
      static_cast<std::size_t>((fo::SerializedReportBits(oracle) + 7) / 8);
  out.bytes.assign(static_cast<std::size_t>(n) * out.frame_bytes, 0);
  sim::ShardedRun(
      n, root, options,
      [&](int /*shard*/, long long lo, long long hi, Rng& rng) {
        std::size_t offset = static_cast<std::size_t>(lo) * out.frame_bytes;
        oracle.BatchRandomize(
            values.data() + lo, static_cast<std::size_t>(hi - lo), rng,
            [&](const fo::Report& report) {
              const std::vector<std::uint8_t> frame =
                  fo::SerializeReport(oracle, report);
              std::copy(frame.begin(), frame.end(),
                        out.bytes.begin() + offset);
              offset += out.frame_bytes;
            });
      });
  return out;
}

EncodedFrames EncodeSplLoad(const multidim::Spl& spl,
                            const data::Dataset& dataset, Rng& root,
                            const sim::Options& options) {
  return EncodeRecordFrames(
      dataset, root, options, [&](const std::vector<int>& record, Rng& rng) {
        return SerializeSplReports(spl, spl.RandomizeUser(record, rng));
      });
}

EncodedFrames EncodeSmpLoad(const multidim::Smp& smp,
                            const data::Dataset& dataset, Rng& root,
                            const sim::Options& options) {
  return EncodeRecordFrames(
      dataset, root, options, [&](const std::vector<int>& record, Rng& rng) {
        return SerializeSmpReport(smp, smp.RandomizeUser(record, rng));
      });
}

EncodedFrames EncodeRsFdLoad(const multidim::RsFd& rsfd,
                             const data::Dataset& dataset, Rng& root,
                             const sim::Options& options) {
  return EncodeRecordFrames(
      dataset, root, options, [&](const std::vector<int>& record, Rng& rng) {
        return SerializeRsFdReport(rsfd, rsfd.RandomizeUser(record, rng));
      });
}

EncodedFrames EncodeRsRfdLoad(const multidim::RsRfd& rsrfd,
                              const data::Dataset& dataset, Rng& root,
                              const sim::Options& options) {
  return EncodeRecordFrames(
      dataset, root, options, [&](const std::vector<int>& record, Rng& rng) {
        return SerializeRsRfdReport(rsrfd, rsrfd.RandomizeUser(record, rng));
      });
}

LongitudinalClients::LongitudinalClients(const fo::FrequencyOracle& oracle,
                                         long long num_users, bool memoize)
    : oracle_(oracle),
      frame_bytes_(
          static_cast<std::size_t>((fo::SerializedReportBits(oracle) + 7) / 8)),
      memoize_(memoize) {
  LDPR_REQUIRE(num_users >= 1,
               "longitudinal clients need at least one user, got "
                   << num_users);
  clients_.resize(static_cast<std::size_t>(num_users));
}

EncodedStream LongitudinalClients::EncodeRound(const std::vector<int>& values,
                                               Rng& root,
                                               const sim::Options& options) {
  const long long n = num_users();
  LDPR_REQUIRE(static_cast<long long>(values.size()) == n,
               "round needs one value per user: got " << values.size()
                                                      << " for " << n);
  EncodedStream out;
  out.count = n;
  out.frame_bytes = frame_bytes_;
  out.bytes.assign(static_cast<std::size_t>(n) * frame_bytes_, 0);
  const int shards = sim::ResolveShardCount(n, options);
  std::vector<long long> shard_fresh(shards, 0);
  std::vector<long long> shard_memoized(shards, 0);
  sim::ShardedRun(
      n, root, options,
      [&](int shard, long long lo, long long hi, Rng& rng) {
        for (long long user = lo; user < hi; ++user) {
          std::uint8_t* slot =
              out.bytes.data() + static_cast<std::size_t>(user) * frame_bytes_;
          Client& client = clients_[static_cast<std::size_t>(user)];
          const int value = values[static_cast<std::size_t>(user)];
          if (memoize_) {
            bool replayed = false;
            for (const auto& [cached_value, frame] : client.permanent) {
              if (cached_value == value) {
                std::copy(frame.begin(), frame.end(), slot);
                ++shard_memoized[shard];
                replayed = true;
                break;
              }
            }
            if (replayed) continue;
          }
          const std::vector<std::uint8_t> frame =
              fo::SerializeReport(oracle_, oracle_.Randomize(value, rng));
          std::copy(frame.begin(), frame.end(), slot);
          ++shard_fresh[shard];
          if (memoize_) client.permanent.emplace_back(value, frame);
        }
      });
  for (int s = 0; s < shards; ++s) {
    fresh_ += shard_fresh[s];
    memoized_ += shard_memoized[s];
  }
  return out;
}

long long IngestStreamUsers(LongitudinalCollector& collector,
                            const EncodedStream& stream, long long first_user,
                            int threads) {
  return Produce(collector, stream, collector.lanes(), first_user, threads);
}

long long IngestStream(Collector& collector, const EncodedStream& stream,
                       int threads) {
  return Produce(collector, stream, collector.lanes(), std::nullopt, threads);
}

MtIngestResult IngestStreamMt(Collector& collector,
                              const EncodedStream& stream, int producers) {
  LDPR_REQUIRE(producers >= 1, "multi-producer ingest needs >= 1 producer");
  MtIngestResult out;
  const double start = MonotonicSeconds();
  out.accepted = IngestStream(collector, stream, producers);
  out.seconds = MonotonicSeconds() - start;
  out.reports_per_second =
      out.seconds > 0.0 ? static_cast<double>(out.accepted) / out.seconds : 0.0;
  return out;
}

long long IngestFrames(MultidimCollector& collector,
                       const EncodedFrames& frames, int threads) {
  return Produce(collector, frames, collector.lanes(), std::nullopt, threads);
}

std::vector<std::uint8_t> FrameStreamRecords(
    const EncodedStream& stream, long long lo, long long hi,
    std::optional<long long> first_user, long long duplicate_every) {
  LDPR_REQUIRE(lo >= 0 && hi <= stream.count && lo <= hi,
               "record range [" << lo << ", " << hi
                                << ") outside the stream's " << stream.count
                                << " frames");
  std::vector<std::uint8_t> out;
  const std::size_t record_bytes =
      kRecordHeaderBytes + kRecordUserBytes + stream.frame_bytes;
  out.reserve(static_cast<std::size_t>(hi - lo) * record_bytes +
              (duplicate_every > 0
                   ? static_cast<std::size_t>((hi - lo) / duplicate_every + 1) *
                         record_bytes
                   : 0));
  for (long long i = lo; i < hi; ++i) {
    const std::uint64_t user =
        first_user.has_value()
            ? static_cast<std::uint64_t>(*first_user + i)
            : kAnonymousUser;
    const std::span<const std::uint8_t> frame{stream.frame(i),
                                              stream.frame_bytes};
    AppendWireRecord(user, frame, out);
    if (duplicate_every > 0 && (i - lo) % duplicate_every == 0) {
      AppendWireRecord(user, frame, out);
    }
  }
  return out;
}

namespace {

// A peer that closes early must surface as EPIPE, not kill the process with
// SIGPIPE.
#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

SocketSendResult SendAll(int fd, std::span<const std::uint8_t> bytes,
                         const char* what) {
  const double start = MonotonicSeconds();
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      LDPR_CHECK(false, what << " send failed after " << sent
                             << " bytes: " << std::strerror(err));
    }
    sent += static_cast<std::size_t>(n);
  }
  ::close(fd);
  SocketSendResult out;
  out.bytes = static_cast<long long>(sent);
  out.seconds = MonotonicSeconds() - start;
  return out;
}

}  // namespace

SocketSendResult SendOverUds(const std::string& uds_path,
                             std::span<const std::uint8_t> bytes) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  LDPR_REQUIRE(uds_path.size() < sizeof(addr.sun_path),
               "UDS path too long: " << uds_path);
  std::strncpy(addr.sun_path, uds_path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  LDPR_CHECK(fd >= 0, "socket(AF_UNIX) failed: " << std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    LDPR_CHECK(false, "connect(" << uds_path
                                 << ") failed: " << std::strerror(err));
  }
  return SendAll(fd, bytes, "UDS");
}

SocketSendResult SendOverTcp(int port, std::span<const std::uint8_t> bytes) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  LDPR_CHECK(fd >= 0, "socket(AF_INET) failed: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    LDPR_CHECK(false, "connect(127.0.0.1:" << port
                                           << ") failed: "
                                           << std::strerror(err));
  }
  return SendAll(fd, bytes, "TCP");
}

std::string HttpGetOverUds(const std::string& uds_path,
                           const std::string& target) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  LDPR_REQUIRE(uds_path.size() < sizeof(addr.sun_path),
               "UDS path too long: " << uds_path);
  std::strncpy(addr.sun_path, uds_path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  LDPR_CHECK(fd >= 0, "socket(AF_UNIX) failed: " << std::strerror(errno));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    LDPR_CHECK(false, "connect(" << uds_path
                                 << ") failed: " << std::strerror(err));
  }
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, kSendFlags);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      LDPR_CHECK(false, "admin request write failed: "
                            << std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // close-delimited response
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

}  // namespace ldpr::serve
