#include "attack/plausible_deniability.h"

#include <algorithm>

#include "core/check.h"
#include "fo/factory.h"
#include "sim/engine.h"

namespace ldpr::attack {

double EmpiricalAttackAccPercent(const fo::FrequencyOracle& oracle,
                                 const std::vector<int>& values, Rng& rng) {
  LDPR_REQUIRE(!values.empty(), "requires at least one value");
  // Sharded randomize-and-attack sweep; per-shard tallies merge at the end.
  const long long correct = sim::ShardedTally(
      static_cast<long long>(values.size()), rng, sim::Options{},
      [&](long long lo, long long hi, Rng& r) {
        long long c = 0;
        for (long long u = lo; u < hi; ++u) {
          if (oracle.RandomizeAndPredict(values[u], r) == values[u]) ++c;
        }
        return c;
      });
  return 100.0 * static_cast<double>(correct) / values.size();
}

double MonteCarloAttackAcc(const fo::FrequencyOracle& oracle, int trials,
                           Rng& rng) {
  LDPR_REQUIRE(trials >= 1, "requires trials >= 1");
  const long long correct = sim::ShardedTally(
      trials, rng, sim::Options{}, [&](long long lo, long long hi, Rng& r) {
        long long c = 0;
        for (long long t = lo; t < hi; ++t) {
          int v = static_cast<int>(r.UniformInt(oracle.k()));
          if (oracle.RandomizeAndPredict(v, r) == v) ++c;
        }
        return c;
      });
  return static_cast<double>(correct) / trials;
}

double MonteCarloProfileAcc(fo::Protocol protocol, double epsilon,
                            const std::vector<int>& domain_sizes,
                            bool uniform_metric, int trials, Rng& rng) {
  LDPR_REQUIRE(trials >= 1, "requires trials >= 1");
  const int d = static_cast<int>(domain_sizes.size());
  LDPR_REQUIRE(d >= 1, "requires >= 1 attribute");

  std::vector<std::unique_ptr<fo::FrequencyOracle>> oracles;
  oracles.reserve(d);
  for (int k : domain_sizes) {
    oracles.push_back(fo::MakeOracle(protocol, k, epsilon));
  }

  const long long complete = sim::ShardedTally(
      trials, rng, sim::Options{},
      [&](long long lo, long long hi, Rng& r) {
        long long c = 0;
        std::vector<int> order(d), truth(d), sampled(d), predicted(d);
        for (long long t = lo; t < hi; ++t) {
          // Random true profile.
          for (int j = 0; j < d; ++j) {
            truth[j] = static_cast<int>(r.UniformInt(domain_sizes[j]));
          }
          // Attribute sequence across #surveys = d collections.
          if (uniform_metric) {
            for (int j = 0; j < d; ++j) order[j] = j;
            r.Shuffle(&order);
            sampled = order;
          } else {
            for (int j = 0; j < d; ++j) {
              sampled[j] = static_cast<int>(r.UniformInt(d));
            }
          }
          // Complete-profile reconstruction requires every attribute to be
          // sampled (automatic in the uniform case) and every prediction to
          // be correct; memoization means a repeated attribute adds no fresh
          // information.
          std::fill(predicted.begin(), predicted.end(), -1);
          for (int s = 0; s < d; ++s) {
            const int a = sampled[s];
            if (predicted[a] != -1) continue;  // memoized repeat
            predicted[a] = oracles[a]->RandomizeAndPredict(truth[a], r);
          }
          bool all_correct = true;
          for (int j = 0; j < d; ++j) {
            if (predicted[j] != truth[j]) {
              all_correct = false;
              break;
            }
          }
          if (all_correct) ++c;
        }
        return c;
      });
  return static_cast<double>(complete) / trials;
}

}  // namespace ldpr::attack
