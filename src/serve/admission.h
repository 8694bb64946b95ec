#ifndef LDPR_SERVE_ADMISSION_H_
#define LDPR_SERVE_ADMISSION_H_

// Admission control for the network front door: TokenBucket paces a
// connection; per-user buckets live next to the user's replay history in
// the user-state table (serve/user_state.h). Buckets take the time as a
// parameter, so refill arithmetic is exactly testable (serve_server_test
// drives epoch boundaries with a synthetic clock) and the server reads the
// clock once per read chunk, not per record.

#include "serve/user_state.h"

namespace ldpr::serve {

/// Classic token bucket: capacity `burst` tokens, refilled continuously at
/// `rate` tokens/second. rate <= 0 means unlimited (every TryAcquire
/// succeeds, nothing is tracked). Starts full.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate, double burst, double now = 0.0)
      : rate_(rate), burst_(burst), tokens_(burst), last_(now) {}

  /// Takes `tokens` if available at time `now`; false leaves the bucket
  /// untouched (no debt accumulates).
  bool TryAcquire(double now, double tokens = 1.0) {
    if (rate_ <= 0.0) return true;
    Refill(now);
    if (tokens_ < tokens) return false;
    tokens_ -= tokens;
    return true;
  }

  /// Unconditionally takes `tokens` at `now`, letting the balance go
  /// negative (debt). Connection pacing charges every record it already
  /// read — honest backpressure never drops read data — then pauses reads
  /// until the debt refills, so the sustained rate converges to `rate`
  /// exactly whatever the read-chunk granularity.
  void Charge(double now, double tokens = 1.0) {
    if (rate_ <= 0.0) return;
    Refill(now);
    tokens_ -= tokens;
  }

  /// Tokens available at `now` (after refill; does not consume).
  double Available(double now) const {
    return rate_ <= 0.0 ? burst_ : Refilled(tokens_, last_, now, rate_, burst_);
  }

  /// The refill arithmetic on a bare balance (`tokens` as of `last`), also
  /// used by the per-user buckets of serve/user_state.h.
  static double Refilled(double tokens, double last, double now, double rate,
                         double burst) {
    const double elapsed = now > last ? now - last : 0.0;
    const double refilled = tokens + elapsed * rate;
    return refilled < burst ? refilled : burst;
  }

  /// Seconds past `now` until `tokens` will be available (0 when they
  /// already are). Unlimited buckets are always ready.
  double DelayUntil(double now, double tokens = 1.0) const {
    if (rate_ <= 0.0) return 0.0;
    const double available = Available(now);
    if (available >= tokens) return 0.0;
    return (tokens - available) / rate_;
  }

 private:
  void Refill(double now) {
    if (now <= last_) return;  // clock went backwards / same instant: no-op
    tokens_ = Available(now);
    last_ = now;
  }

  double rate_ = 0.0;  ///< tokens per second; <= 0 = unlimited
  double burst_ = 0.0;
  double tokens_ = 0.0;
  double last_ = 0.0;
};

}  // namespace ldpr::serve

#endif  // LDPR_SERVE_ADMISSION_H_
