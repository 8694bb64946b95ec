#ifndef LDPR_SERVE_LANES_H_
#define LDPR_SERVE_LANES_H_

// The lock-striped lane set both collectors ingest through. Each lane holds
// its mutex, its IngestCounters and the collector's own per-lane state (the
// `State` base: the scalar Collector's aggregator and wire decoder, the
// multidim collector's per-attribute rows and counts). A collector supplies
// only its locked per-request body and its per-lane seal step.

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "core/check.h"
#include "core/parallel.h"
#include "core/stats.h"
#include "serve/ingest.h"

namespace ldpr::serve {

/// Cache-line isolated (alignas pads sizeof to a 64-byte multiple too):
/// producers pinned to disjoint lanes touch disjoint lines, so the lane
/// mutexes and hot tallies never false-share — without this, adjacent
/// heap-allocated lanes can land on one line and ingest throughput stops
/// scaling with producer threads.
template <typename State>
struct alignas(64) Lane : State {
  using State::State;

  std::mutex mutex;
  IngestCounters tallies;

  /// Tallies a verdict (caller holds the mutex) and returns it.
  IngestResult Accept(std::size_t bytes) {
    ++tallies.reports;
    tallies.bytes += static_cast<long long>(bytes);
    return IngestResult::Accepted();
  }
  IngestResult Reject(RejectReason reason) {
    CountReject(tallies, reason);
    return IngestResult::Rejected(reason);
  }
};

template <typename State>
class LaneSet {
 public:
  using LaneType = Lane<State>;

  LaneSet() = default;  // no lanes; move a built set in before use

  /// Builds `count` lanes (<= 0: one per worker thread) with `make()`, which
  /// returns a std::unique_ptr<LaneType>. Lane count never affects sealed
  /// results.
  template <typename Make>
  LaneSet(int count, Make&& make) {
    static_assert(alignof(LaneType) >= 64,
                  "lanes must start on their own cache line");
    static_assert(sizeof(LaneType) % 64 == 0,
                  "lane padding must cover whole cache lines");
    if (count <= 0) count = DefaultThreadCount();
    LDPR_CHECK(count >= 1, "collector needs at least one lane");
    for (int i = 0; i < count; ++i) lanes_.push_back(make());
  }

  int size() const { return static_cast<int>(lanes_.size()); }
  /// The lane a request's hint maps to: `hint % size()`.
  LaneType& For(int hint) const {
    return *lanes_[static_cast<std::size_t>(hint) % lanes_.size()];
  }

  /// Runs `body(lane, request)` under the mutex of the request's lane.
  template <typename Body>
  IngestResult Ingest(const IngestRequest& request, Body&& body) const {
    LaneType& lane = For(request.lane);
    std::lock_guard<std::mutex> guard(lane.mutex);
    return body(lane, request);
  }

  /// Ingest over a whole source: the lane mutex is taken once per run of
  /// consecutive requests that map to the same lane, and each request gets
  /// `body(lane, request)`. source.Next and source.Done run under that mutex
  /// (lock order in serve/ingest.h), so a seal racing the source waits for
  /// the run in progress to end.
  template <typename Body>
  void IngestAll(IngestSource& source, Body&& body) const {
    IngestRequest request;
    bool more = source.Next(request);
    while (more) {
      const int hint = request.lane;
      LaneType& lane = For(hint);
      std::lock_guard<std::mutex> guard(lane.mutex);
      do {
        source.Done(request, body(lane, request));
        more = source.Next(request);
        // Same hint, same lane: skips the modulo on the usual run.
      } while (more &&
               (request.lane == hint || &For(request.lane) == &lane));
    }
  }

  /// The seal side: under the mutex of each lane in [first, last) (last <
  /// 0: every lane) runs `drain(lane)`, then moves the lane's tallies into
  /// the returned sum.
  template <typename Fn>
  IngestCounters Drain(Fn&& drain, int first = 0, int last = -1) const {
    IngestCounters sum;
    for (int i = first; i < (last < 0 ? size() : last); ++i) {
      LaneType& lane = *lanes_[static_cast<std::size_t>(i)];
      std::lock_guard<std::mutex> guard(lane.mutex);
      drain(lane);
      sum.Merge(lane.tallies);
      lane.tallies = IngestCounters{};
    }
    return sum;
  }

 private:
  std::vector<std::unique_ptr<LaneType>> lanes_;
};

}  // namespace ldpr::serve

#endif  // LDPR_SERVE_LANES_H_
