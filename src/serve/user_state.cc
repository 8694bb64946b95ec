#include "serve/user_state.h"

#include <algorithm>

#include "core/check.h"
#include "core/hash.h"
#include "serve/admission.h"

namespace ldpr::serve {

// Fixed seed: frame hashes only need to agree with themselves in one table.
constexpr std::uint64_t kFrameHashSeed = 0x1d9ULL;

UserStateTable::UserStateTable(const AdmissionOptions& admission, int shards)
    : admission_(admission) {
  LDPR_REQUIRE(shards >= 1,
               "user-state table needs at least one shard, got " << shards);
  shards_.reserve(shards);
  for (int i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

bool UserStateTable::AdmitLocked(User& entry, double now) const {
  entry.tokens = TokenBucket::Refilled(entry.tokens, entry.refilled_at, now,
                                       admission_.per_user_rate,
                                       admission_.per_user_burst);
  entry.refilled_at = std::max(entry.refilled_at, now);
  if (entry.tokens < 1.0) return false;
  entry.tokens -= 1.0;
  return true;
}

bool UserStateTable::Admit(long long user, double now) {
  if (!enabled()) return true;
  Shard& shard = ShardFor(user);
  std::lock_guard<std::mutex> guard(shard.mutex);
  return AdmitLocked(shard.users[user], now);
}

UserStateTable::FrameClass UserStateTable::AdmitAndClassify(
    long long user, std::optional<double> now,
    std::span<const std::uint8_t> frame, long long epoch, bool trust_replays,
    bool one_per_epoch) {
  Shard& shard = ShardFor(user);
  std::lock_guard<std::mutex> guard(shard.mutex);
  User& entry = shard.users[user];
  if (now.has_value() && enabled() && !AdmitLocked(entry, *now)) {
    return FrameClass::kRateLimited;
  }
  if (one_per_epoch && entry.last_epoch == epoch) return FrameClass::kDuplicate;
  if (entry.last_epoch < 0) ++shard.totals.users;
  entry.last_epoch = epoch;
  if (trust_replays) {
    const std::uint64_t hash =
        XxHash64(frame.data(), frame.size(), kFrameHashSeed);
    // last_hash is one of `hashes`: checking it first only skips the scan.
    const bool replay =
        (!entry.hashes.empty() && hash == entry.last_hash) ||
        std::find(entry.hashes.begin(), entry.hashes.end(), hash) !=
            entry.hashes.end();
    entry.last_hash = hash;
    if (replay) {
      ++shard.epoch.memoized;
      return FrameClass::kMemoized;
    }
    entry.hashes.push_back(hash);
  }
  ++entry.fresh;
  ++shard.epoch.fresh;
  ++shard.totals.total_fresh;
  shard.totals.max_fresh = std::max(shard.totals.max_fresh, entry.fresh);
  return FrameClass::kFresh;
}

UserStateTable::EpochTallies UserStateTable::SealEpoch() {
  EpochTallies tallies;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard->mutex);
    tallies.fresh += shard->epoch.fresh;
    tallies.memoized += shard->epoch.memoized;
    shard->epoch = {};
  }
  return tallies;
}

UserStateTable::UserStats UserStateTable::Totals() const {
  UserStats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard->mutex);
    stats.users += shard->totals.users;
    stats.total_fresh += shard->totals.total_fresh;
    stats.max_fresh = std::max(stats.max_fresh, shard->totals.max_fresh);
    stats.resident += static_cast<long long>(shard->users.size());
  }
  return stats;
}

}  // namespace ldpr::serve
