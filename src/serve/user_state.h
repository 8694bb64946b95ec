#ifndef LDPR_SERVE_USER_STATE_H_
#define LDPR_SERVE_USER_STATE_H_

// Per-user server state: one sharded table, one node per user holding the
// user's admission token bucket and replay history, so a served record
// costs one lookup under one shard mutex. Shards depend only on the user id
// and their count is fixed, so ledgers merge identically under any threads.

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

namespace ldpr::serve {

inline constexpr int kDefaultUserShards = 64;

struct AdmissionOptions {
  double per_user_rate = 0.0;   ///< reports/second; <= 0 disables the check
  double per_user_burst = 8.0;  ///< bucket capacity
};

class UserStateTable {
 public:
  explicit UserStateTable(int shards = kDefaultUserShards)
      : UserStateTable(AdmissionOptions{}, shards) {}
  explicit UserStateTable(const AdmissionOptions& admission,
                          int shards = kDefaultUserShards);

  /// Sets the table-wide per-user rate and burst. Not synchronized with
  /// ingest: call it before any clocked request reaches the table.
  void EnableAdmission(const AdmissionOptions& admission) {
    admission_ = admission;
  }
  bool enabled() const { return admission_.per_user_rate > 0.0; }

  enum class FrameClass : std::uint8_t {
    kFresh,       ///< new randomization: charged eps, hash recorded
    kMemoized,    ///< replays a frame this user already sent: eps = 0
    kDuplicate,   ///< second report within the epoch: inadmissible
    kRateLimited  ///< the user's token bucket is empty: inadmissible
  };

  /// The fused per-record call, in this order. Admission: with a clock and
  /// admission enabled, spend one token (buckets start full at the user's
  /// first clocked record) or kRateLimited. Duplicate: with
  /// `one_per_epoch`, a user already recorded in `epoch` is kDuplicate (the
  /// token stays spent). Replay: with `trust_replays`, a frame the user
  /// sent before is kMemoized, else kFresh (hash recorded); without, always
  /// kFresh. Rejects leave the history untouched. Epochs must be presented
  /// non-decreasing per user.
  FrameClass AdmitAndClassify(long long user, std::optional<double> now,
                              std::span<const std::uint8_t> frame,
                              long long epoch, bool trust_replays,
                              bool one_per_epoch);
  /// Admission alone (true without storing anything when not enabled).
  bool Admit(long long user, double now);
  /// Classification alone: AdmitAndClassify without a clock.
  FrameClass Classify(long long user, std::span<const std::uint8_t> frame,
                      long long epoch, bool trust_replays = true,
                      bool one_per_epoch = true) {
    return AdmitAndClassify(user, std::nullopt, frame, epoch, trust_replays,
                            one_per_epoch);
  }

  struct EpochTallies {
    long long fresh = 0;
    long long memoized = 0;
  };
  /// Merges and resets the per-shard epoch tallies (called at seal).
  EpochTallies SealEpoch();

  struct UserStats {
    long long users = 0;        ///< distinct users ever classified
    long long total_fresh = 0;  ///< fresh randomizations across all users
    long long max_fresh = 0;    ///< worst user's fresh count
    long long resident = 0;     ///< users holding a node, admitted or not
  };
  /// Summed from per-shard running totals: O(shards), no walk over users.
  UserStats Totals() const;
  long long users() const { return Totals().resident; }

 private:
  struct User {
    std::vector<std::uint64_t> hashes;  ///< distinct frames sent, in order
    /// Hash of the newest classified frame, a member of `hashes` once that
    /// is non-empty: the usual replay skips the history scan.
    std::uint64_t last_hash = 0;
    long long fresh = 0;
    long long last_epoch = -1;  ///< newest epoch with a classified report
    /// Token balance at its last refill; -inf refills to a full bucket.
    double tokens = 0.0;
    double refilled_at = -std::numeric_limits<double>::infinity();
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<long long, User> users;
    EpochTallies epoch;
    /// Running totals: users are never evicted and fresh counts only grow,
    /// so the running max is exact.
    UserStats totals;
  };

  Shard& ShardFor(long long user) {
    const long long n = static_cast<long long>(shards_.size());
    return *shards_[static_cast<std::size_t>((user % n + n) % n)];
  }
  /// TokenBucket::TryAcquire(now) on the node. Caller holds the shard lock.
  bool AdmitLocked(User& entry, double now) const;

  AdmissionOptions admission_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

// Names of the two tables this one replaced, kept only for the benchmark
// probes that still construct them; the next benchmark change retargets
// those probes at UserStateTable and deletes these aliases.
using UserAdmissionTable = UserStateTable;
using UserReplayTable = UserStateTable;

}  // namespace ldpr::serve

#endif  // LDPR_SERVE_USER_STATE_H_
