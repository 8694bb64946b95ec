#ifndef LDPR_SERVE_INGEST_H_
#define LDPR_SERVE_INGEST_H_

// The collection service's single ingest entry point.
//
// Every surface that accepts sanitized wire reports — the per-epoch
// Collector, the longitudinal pipeline, the multidimensional front-end and
// the socket server feeding any of them — implements one API:
//
//   IngestResult IngestSink::Ingest(const IngestRequest&)
//
// A request carries the wire frame, an optional user attribution (per-user
// admission and replay/duplicate classification need one), a lane hint and
// an optional admission clock; the result is accept/reject plus an
// enumerable reject reason. Rejects are *counted*, never thrown: admission
// control and codec strictness (WireDecoder's exact-serializer-image
// acceptance) surface through the same RejectReason, so a deployment can
// alert on each class independently.
//
// A transport that frames many records per read (WireSession, one socket
// read chunk at a time) hands the sink the whole chunk instead:
//
//   void IngestSink::IngestAll(IngestSource&)
//
// The sink pulls requests with IngestSource::Next until it returns false
// and reports each outcome with IngestSource::Done, in order, before the
// next pull. The default loops Next -> Ingest -> Done; the lane-striped
// collectors override it to take a lane mutex once per run of same-lane
// requests. Either way every request gets what Ingest would have returned,
// and each is framed, ingested and tallied in one pass over the chunk.
//
// Lock order. An overriding sink calls Next and Done while it holds a lane
// mutex, so whatever a source does in them nests inside it. The only order
// across the serve layer is lane mutex -> user-state shard (UserStateTable,
// consulted by the sink's gate or by a source admitting through a table of
// its own), and no shard mutex is held while taking a lane mutex. A source
// must not call back into the sink from Next or Done.

#include <cstdint>
#include <optional>
#include <span>

#include "core/stats.h"

namespace ldpr::serve {

class UserStateTable;

/// Why an ingest surface refused a frame. Every reject is counted under its
/// reason (IngestCounters / ServerCounters); kNone never appears on a
/// reject.
enum class RejectReason : std::uint8_t {
  kNone = 0,     ///< accepted
  kMalformed,    ///< not an exact serializer image (WireDecoder::Validate)
  kDuplicate,    ///< user already delivered a report this epoch
  kRateLimited,  ///< per-user token bucket empty
  kShed,         ///< dropped by overload shedding
  kClosedEpoch,  ///< no epoch open to ingest into
};

inline const char* RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kMalformed:
      return "malformed";
    case RejectReason::kDuplicate:
      return "duplicate";
    case RejectReason::kRateLimited:
      return "rate-limited";
    case RejectReason::kShed:
      return "shed";
    case RejectReason::kClosedEpoch:
      return "closed-epoch";
  }
  return "unknown";
}

/// Counts one reject into the matching IngestCounters field.
inline void CountReject(IngestCounters& counters, RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      break;
    case RejectReason::kMalformed:
      ++counters.rejected;
      break;
    case RejectReason::kDuplicate:
      ++counters.duplicates;
      break;
    case RejectReason::kRateLimited:
      ++counters.rate_limited;
      break;
    case RejectReason::kShed:
      ++counters.shed;
      break;
    case RejectReason::kClosedEpoch:
      ++counters.closed_epoch;
      break;
  }
}

/// One wire report on its way into a sink.
struct IngestRequest {
  /// The report's exact wire image (WireDecoder acceptance rules).
  std::span<const std::uint8_t> frame{};
  /// Reporting user, when the transport attributes one. Anonymous frames
  /// are charged as fresh randomizations and never replay/duplicate
  /// classified.
  std::optional<long long> user{};
  /// Lane hint; sinks take it modulo their lane count. Producers that pin
  /// themselves to distinct lanes never contend.
  int lane = 0;
  /// Arrival time (seconds) for per-user admission in the sink. Requests
  /// without one (in-process producers) are never rate limited.
  std::optional<double> now{};
};

struct IngestResult {
  bool accepted = false;
  RejectReason reason = RejectReason::kNone;

  explicit operator bool() const { return accepted; }

  static constexpr IngestResult Accepted() {
    return IngestResult{true, RejectReason::kNone};
  }
  static constexpr IngestResult Rejected(RejectReason why) {
    return IngestResult{false, why};
  }
};

/// A pull stream of requests, such as one transport read chunk. The calling
/// contract and the lock order are at the top of this file.
class IngestSource {
 public:
  /// Fills `request` with the next request and returns true, or returns
  /// false when the stream has none left. The request's frame must stay
  /// valid until the matching Done.
  virtual bool Next(IngestRequest& request) = 0;
  /// The sink's verdict on the request the last Next produced.
  virtual void Done(const IngestRequest& request, IngestResult result) = 0;

 protected:
  ~IngestSource() = default;
};

/// The one ingest interface. Implementations are thread-safe per their own
/// documentation (the collectors stripe over lanes); Ingest never throws on
/// malformed or inadmissible frames — those come back as counted rejects.
class IngestSink {
 public:
  virtual ~IngestSink() = default;

  virtual IngestResult Ingest(const IngestRequest& request) = 0;

  /// Ingests every request `source` yields, reporting each result through
  /// source.Done before pulling the next. Overrides must give each request
  /// the result Ingest would have given it.
  virtual void IngestAll(IngestSource& source) {
    IngestRequest request;
    while (source.Next(request)) source.Done(request, Ingest(request));
  }

  /// The table this sink admits and classifies attributed requests through
  /// (nullptr: none). A transport arms admission there and sets `now`.
  virtual UserStateTable* user_state() { return nullptr; }
};

}  // namespace ldpr::serve

#endif  // LDPR_SERVE_INGEST_H_
