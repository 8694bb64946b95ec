#ifndef LDPR_SIM_ENGINE_H_
#define LDPR_SIM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/check.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "fo/frequency_oracle.h"

namespace ldpr::sim {

/// How RunCollection simulates the n clients.
enum class Mode {
  /// Per-user randomization fused with support counting; per shard stream
  /// this is bit-identical to scalar Randomize + AccumulateSupport calls.
  kStreaming,
  /// Per-shard closed-form sampling of the aggregate support counts from the
  /// shard's true-value histogram — O(k) RNG draws per shard instead of
  /// O(users). Per-cell distribution-exact; see
  /// fo::Aggregator::AccumulateHistogram for the cross-cell caveat.
  kClosedForm,
};

/// Knobs for the sharded simulation engine. Defaults reproduce one result
/// for one seed regardless of the machine: shard boundaries and shard RNG
/// streams depend only on n (never on the thread count or LDPR_THREADS).
struct Options {
  int threads = 0;     ///< ParallelFor workers; 0 = LDPR_THREADS / cores.
  int num_shards = 0;  ///< 0 = AutoShardCount(n).
  Mode mode = Mode::kStreaming;
};

/// Deterministic shard count for n users — a function of n only.
int AutoShardCount(long long n);

/// options.num_shards, or AutoShardCount(n) when unset.
int ResolveShardCount(long long n, const Options& options);

/// Runs fn(shard, begin, end, rng) over ResolveShardCount(n, options)
/// contiguous user ranges in parallel. Shard s draws from an independent
/// stream Forked off one Split of `root`, so a fixed root seed gives
/// identical results under any thread count; `root` advances by exactly one
/// Split per call, so successive ShardedRun calls see fresh streams.
void ShardedRun(
    long long n, Rng& root, const Options& options,
    const std::function<void(int, long long, long long, Rng&)>& fn);

/// Runs fn(cell) for every cell in [0, num_cells) across the worker pool.
/// The experiment layer's GridRunner uses this to parallelize (grid-point,
/// trial) cells: fn must derive all of its randomness from the cell index
/// (deterministic per-cell RNG construction), so results are independent of
/// scheduling. Nested ShardedRun/ParallelFor calls inside fn run inline
/// (core/parallel's nesting guard), so cell-level parallelism composes with
/// per-user sharding without oversubscribing the machine.
void RunCells(long long num_cells, const std::function<void(long long)>& fn,
              int threads = 0);

/// Sharded counting sweep: runs counter(begin, end, rng) per shard (same
/// stream/sharding rules as ShardedRun) and returns the summed tallies.
/// Collapses the tally-vector + merge boilerplate of Monte-Carlo drivers.
long long ShardedTally(
    long long n, Rng& root, const Options& options,
    const std::function<long long(long long, long long, Rng&)>& counter);

/// Outcome of one simulated collection round.
struct CollectionResult {
  std::vector<long long> counts;  ///< merged support counts, size k
  long long n = 0;                ///< number of simulated reports
  std::vector<double> estimate;   ///< Eq. (2) frequency estimate
};

/// Simulates one eps-LDP collection of `values` through `oracle`: users are
/// sharded across the worker pool, each shard accumulates into its own
/// fo::Aggregator on an independent RNG stream, and the shard aggregators
/// are merged before estimating. No per-user Report vector is materialized
/// in either mode.
CollectionResult RunCollection(const fo::FrequencyOracle& oracle,
                               const std::vector<int>& values, Rng& root,
                               const Options& options = {});

/// Simulates a multidimensional collection with solution S (multidim::Spl,
/// Smp, or a fake-data solution: RsFd, RsRfd, RsFdAdaptive, RsRfdAdaptive,
/// which share multidim::FakeData::StreamAggregator): shards the dataset's
/// users, accumulates one S::StreamAggregator per shard, merges, and
/// estimates. Streaming only —
/// the multidim estimators need per-user attribute sampling. Returns the
/// per-attribute frequency estimates.
template <typename Solution>
std::vector<std::vector<double>> RunMultidim(const Solution& solution,
                                             const data::Dataset& dataset,
                                             Rng& root,
                                             const Options& options = {}) {
  using Agg = typename Solution::StreamAggregator;
  const long long n = dataset.n();
  LDPR_REQUIRE(n >= 1, "RunMultidim requires a non-empty dataset");
  const int shards = ResolveShardCount(n, options);
  std::vector<std::unique_ptr<Agg>> parts(shards);
  ShardedRun(n, root, options,
             [&](int shard, long long lo, long long hi, Rng& rng) {
               auto agg = std::make_unique<Agg>(solution);
               std::vector<int> record(dataset.d());
               for (long long user = lo; user < hi; ++user) {
                 for (int j = 0; j < dataset.d(); ++j) {
                   record[j] = dataset.value(static_cast<int>(user), j);
                 }
                 agg->AccumulateRecord(record, rng);
               }
               parts[shard] = std::move(agg);
             });
  for (int s = 1; s < shards; ++s) parts[0]->Merge(*parts[s]);
  return parts[0]->Estimate();
}

}  // namespace ldpr::sim

#endif  // LDPR_SIM_ENGINE_H_
