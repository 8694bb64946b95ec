#include "serve/wire_session.h"

#include "core/check.h"

namespace ldpr::serve {

namespace {

std::uint64_t ReadBe64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

void AppendWireRecord(std::uint64_t user, std::span<const std::uint8_t> frame,
                      std::vector<std::uint8_t>& out) {
  const std::size_t body = kRecordUserBytes + frame.size();
  LDPR_REQUIRE(body <= 0xFFFF, "wire record body of " << body
                                   << " bytes exceeds the u16 length prefix");
  out.push_back(static_cast<std::uint8_t>(body >> 8));
  out.push_back(static_cast<std::uint8_t>(body & 0xFF));
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>((user >> (8 * i)) & 0xFF));
  }
  out.insert(out.end(), frame.begin(), frame.end());
}

WireSession::WireSession(IngestSink& sink, UserStateTable* users,
                         const WireSessionOptions& options, int lane,
                         double now)
    : sink_(sink),
      admit_(users == sink.user_state() ? nullptr : users),
      options_(options),
      pacing_(options.conn_rate, options.conn_burst, now),
      lane_(lane) {}

bool WireSession::Feed(std::span<const std::uint8_t> data, double now) {
  counters_.wire_bytes += static_cast<long long>(data.size());
  // Hot path: no torn tail pending, so records are framed straight out of
  // the caller's chunk with zero copies; only a torn tail (or a chunk
  // arriving while one is pending) touches the reassembly buffer.
  const std::uint8_t* p;
  std::size_t n;
  if (buffer_.empty()) {
    p = data.data();
    n = data.size();
  } else {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
    p = buffer_.data();
    n = buffer_.size();
  }
  cursor_ = p;
  end_ = p + n;
  now_ = now;
  protocol_error_ = false;
  sink_.IngestAll(*this);
  if (protocol_error_) {
    ++counters_.protocol_errors;
    buffer_.clear();
    return false;
  }
  const std::size_t off = static_cast<std::size_t>(cursor_ - p);
  if (!buffer_.empty()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(off));
  } else if (off < n) {
    buffer_.assign(p + off, p + n);
  }
  // Pacing backpressure: everything read was processed; stop reading until
  // the bucket can cover at least one more record.
  resume_at_ = now + pacing_.DelayUntil(now, 1.0);
  return true;
}

bool WireSession::Next(IngestRequest& request) {
  while (static_cast<std::size_t>(end_ - cursor_) >= kRecordHeaderBytes) {
    const std::size_t body = (static_cast<std::size_t>(cursor_[0]) << 8) |
                             static_cast<std::size_t>(cursor_[1]);
    if (body < kRecordUserBytes ||
        body - kRecordUserBytes > options_.max_frame) {
      protocol_error_ = true;
      return false;
    }
    if (static_cast<std::size_t>(end_ - cursor_) <
        kRecordHeaderBytes + body) {
      return false;  // torn tail: Feed keeps it for the next chunk
    }
    const std::uint8_t* record = cursor_ + kRecordHeaderBytes;
    cursor_ = record + body;
    ++counters_.records;
    pacing_.Charge(now_);
    const std::uint64_t user_id = ReadBe64(record);
    request.frame = {record + kRecordUserBytes, body - kRecordUserBytes};
    request.lane = lane_;
    if (user_id == kAnonymousUser) {
      request.user.reset();
      return true;
    }
    request.user = static_cast<long long>(user_id);
    if (admit_ == nullptr) request.now = now_;  // the sink admits
    if (admit_ == nullptr || admit_->Admit(*request.user, now_)) return true;
    CountReject(counters_.ingest, RejectReason::kRateLimited);
  }
  return false;
}

void WireSession::Done(const IngestRequest& request, IngestResult result) {
  if (result.accepted) {
    ++counters_.ingest.reports;
    counters_.ingest.bytes += static_cast<long long>(request.frame.size());
  } else {
    CountReject(counters_.ingest, result.reason);
  }
}

}  // namespace ldpr::serve
