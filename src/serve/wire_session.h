#ifndef LDPR_SERVE_WIRE_SESSION_H_
#define LDPR_SERVE_WIRE_SESSION_H_

// Per-connection framing + admission state of the socket front door.
//
// Wire record format (the unit one client submission occupies on a
// connection; all integers big-endian):
//
//   u16 body_length | u64 user_id | frame bytes (body_length - 8 of them)
//
// body_length counts everything after itself, so a record occupies
// 2 + body_length bytes. user_id == kAnonymousUser marks an unattributed
// frame (ingested with request.user unset); the frame bytes are one
// sanitized report in the exact wire codec (fo/wire) and are handed to the
// IngestSink untouched — a wrong-sized or malformed frame is that sink's
// counted kMalformed reject, and the connection survives. Only unframeable
// input is a protocol error that kills the connection: a body too short to
// hold the user id, or longer than the session's max_body bound.
//
// A WireSession owns the torn-frame reassembly buffer (bounded: complete
// records are consumed per Feed, so at most one partial record is ever
// buffered), the per-connection pacing bucket (backpressure: records
// already read are never dropped, but the session tells the server when to
// stop reading), and the per-reason counters the server aggregates. It
// performs no I/O — Feed takes whatever read() produced, which is what
// makes torn-frame handling fuzzable without sockets.
//
// A session is the IngestSource of its own read chunks: Feed points a
// framing cursor at the chunk and hands the session to
// IngestSink::IngestAll, whose Next frames, paces and admits one record at
// a time and whose Done tallies the sink's verdict. So the lane-striped
// collectors take one lane mutex per chunk, and the per-user Admit runs
// under it: the lock order is lane mutex -> admission shard -> replay shard
// (serve/ingest.h).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/stats.h"
#include "serve/admission.h"
#include "serve/ingest.h"

namespace ldpr::serve {

/// user_id sentinel for frames not attributed to any user.
inline constexpr std::uint64_t kAnonymousUser = ~0ull;
/// Bytes of the record length prefix (u16 BE).
inline constexpr std::size_t kRecordHeaderBytes = 2;
/// Bytes of the user id field (u64 BE), first in every record body.
inline constexpr std::size_t kRecordUserBytes = 8;

/// Appends one framed record to `out` (the client half of the format).
/// frame.size() must fit the u16 body length alongside the user id.
void AppendWireRecord(std::uint64_t user, std::span<const std::uint8_t> frame,
                      std::vector<std::uint8_t>& out);

struct WireSessionOptions {
  /// Protocol bound on body_length - kRecordUserBytes (the frame bytes). A
  /// record announcing more is a protocol error: the server serves one
  /// oracle whose reports are a few bytes, so a large length is an attack
  /// or a desynchronized peer, and closing beats buffering it.
  std::size_t max_frame = 1 << 12;
  /// Per-connection sustained record rate (records/second); <= 0 unlimited.
  /// Enforced as backpressure, never rejects: every record read is
  /// processed, and the session reports when reading should resume.
  double conn_rate = 0.0;
  /// Per-connection burst allowance (pacing bucket capacity).
  double conn_burst = 4096.0;
};

struct SessionCounters {
  /// Complete records framed off the connection (accepted + rejected).
  long long records = 0;
  /// Raw connection bytes consumed (framing overhead included).
  long long wire_bytes = 0;
  /// Unframeable input (0 or 1 per session: the connection closes on it).
  long long protocol_errors = 0;
  /// Per-reason ingest outcome of the framed records: reports/bytes count
  /// accepted frames; rejects are split malformed / duplicate /
  /// rate-limited / shed / closed-epoch (rate_limited here is the per-USER
  /// admission table — per-connection pacing pauses reads instead).
  IngestCounters ingest;

  void Merge(const SessionCounters& other) {
    records += other.records;
    wire_bytes += other.wire_bytes;
    protocol_errors += other.protocol_errors;
    ingest.Merge(other.ingest);
  }
};

class WireSession final : private IngestSource {
 public:
  /// `sink` and `users` (nullable: no per-user admission) must outlive the
  /// session. `lane` is the lane hint every request from this connection
  /// carries — the server assigns connections round-robin so concurrent
  /// connections land on distinct collector lanes. `now` seeds the pacing
  /// bucket's clock.
  WireSession(IngestSink& sink, UserAdmissionTable* users,
              const WireSessionOptions& options, int lane, double now);

  /// Consumes one read() chunk: frames complete records (ingesting each,
  /// in one IngestAll pass), buffers a torn tail for the next chunk.
  /// Returns false on a protocol error — the caller must close the
  /// connection; the records framed before the error are ingested, nothing
  /// after it is. `now` timestamps every record in the chunk (one clock
  /// read per chunk keeps the per-record cost flat).
  bool Feed(std::span<const std::uint8_t> data, double now);

  /// Earliest time reading should resume; paused() while the pacing debt
  /// from already-processed records is still refilling.
  double resume_at() const { return resume_at_; }
  bool paused(double now) const { return resume_at_ > now; }

  /// Shed priority: the server drops the lowest first. Sessions earn credit
  /// per accepted report and lose it fourfold per reject, so under
  /// overload the abusive or desynchronized connections go first and a
  /// well-behaved high-volume reporter goes last.
  double Priority() const {
    return static_cast<double>(counters_.ingest.reports) -
           4.0 * static_cast<double>(counters_.ingest.TotalRejected()) -
           static_cast<double>(buffer_.size());
  }

  const SessionCounters& counters() const { return counters_; }
  /// Bytes of the buffered partial record (< one whole record by
  /// construction — the bounded read buffer).
  std::size_t buffered() const { return buffer_.size(); }
  int lane() const { return lane_; }

 private:
  /// IngestSource over the chunk Feed is consuming. Next frames records
  /// from cursor_ (counting, pacing and per-user admission; rate-limited
  /// records are tallied and skipped) and stops at a torn tail or a
  /// protocol error; Done tallies the sink's verdict.
  bool Next(IngestRequest& request) override;
  void Done(const IngestRequest& request, IngestResult result) override;

  IngestSink& sink_;
  UserAdmissionTable* users_;
  WireSessionOptions options_;
  TokenBucket pacing_;
  int lane_;
  std::vector<std::uint8_t> buffer_;  ///< torn record tail
  SessionCounters counters_;
  double resume_at_ = 0.0;
  // Framing cursor over the chunk in flight (valid only inside Feed).
  const std::uint8_t* cursor_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  double now_ = 0.0;
  bool protocol_error_ = false;
};

}  // namespace ldpr::serve

#endif  // LDPR_SERVE_WIRE_SESSION_H_
