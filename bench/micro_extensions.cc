// Microbenchmarks (google-benchmark) for the extension subsystems: the wire
// codec round-trip per protocol, the pool-inference posterior update, the
// naive-Bayes trainer/predictor, the uniqueness profiler, the
// re-identification matcher and the ledger simulation. Throughput
// baselines, not paper figures.

#include <benchmark/benchmark.h>

#include "attack/pool.h"
#include "attack/profiling.h"
#include "attack/reident.h"
#include "attack/uniqueness.h"
#include "core/rng.h"
#include "data/synthetic.h"
#include "fo/factory.h"
#include "fo/wire.h"
#include "ml/naive_bayes.h"
#include "privacy/accountant.h"

namespace {

using namespace ldpr;

void BM_WireRoundTrip(benchmark::State& state, fo::Protocol protocol) {
  const int k = static_cast<int>(state.range(0));
  auto oracle = fo::MakeOracle(protocol, k, 1.0);
  Rng rng(1);
  fo::Report report = oracle->Randomize(0, rng);
  for (auto _ : state) {
    std::vector<std::uint8_t> bytes = fo::SerializeReport(*oracle, report);
    fo::Report decoded = fo::DeserializeReport(*oracle, bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK_CAPTURE(BM_WireRoundTrip, grr, fo::Protocol::kGrr)->Arg(74);
BENCHMARK_CAPTURE(BM_WireRoundTrip, olh, fo::Protocol::kOlh)->Arg(74);
BENCHMARK_CAPTURE(BM_WireRoundTrip, ss, fo::Protocol::kSs)->Arg(74);
BENCHMARK_CAPTURE(BM_WireRoundTrip, oue, fo::Protocol::kOue)->Arg(74);

void BM_PoolPosterior(benchmark::State& state) {
  const int k = 16;
  const int reports = static_cast<int>(state.range(0));
  auto oracle = fo::MakeOracle(fo::Protocol::kOue, k, 2.0);
  attack::PoolInferenceAttacker attacker(*oracle,
                                         attack::ContiguousPools(k, 4));
  Rng rng(2);
  std::vector<fo::Report> history;
  for (int t = 0; t < reports; ++t) {
    history.push_back(oracle->Randomize(t % 4, rng));
  }
  for (auto _ : state) {
    auto posterior = attacker.Posterior(history);
    benchmark::DoNotOptimize(posterior);
  }
}
BENCHMARK(BM_PoolPosterior)->Arg(1)->Arg(30)->Arg(180);

void BM_NaiveBayesTrain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  std::vector<std::vector<int>> rows;
  std::vector<int> labels;
  for (int i = 0; i < n; ++i) {
    std::vector<int> row(18);
    for (int& f : row) f = static_cast<int>(rng.UniformInt(16));
    rows.push_back(std::move(row));
    labels.push_back(static_cast<int>(rng.UniformInt(18)));
  }
  for (auto _ : state) {
    ml::NaiveBayes model;
    model.Train(rows, labels, 18);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_NaiveBayesTrain)->Arg(2000)->Arg(10000);

void BM_UniquenessProfile(benchmark::State& state) {
  data::Dataset ds = data::AdultLike(4, 0.2);
  for (auto _ : state) {
    attack::UniquenessProfile profile = attack::ComputeUniqueness(ds);
    benchmark::DoNotOptimize(profile);
  }
}
BENCHMARK(BM_UniquenessProfile);

// The Section 3.2.4 matcher at fig02's defaults: Adult-like n = 9,044,
// FK-RI, 3,000 targets, profiles from 5 SMP surveys at eps = 4. Items are
// (target, background record) pairs, the unit of perfbench paper_figures'
// reident_pairs_per_s.
void BM_ReidentAccuracy(benchmark::State& state, fo::Protocol protocol) {
  const data::Dataset ds = data::AdultLike(4, 0.2);
  Rng rng(6);
  const attack::SurveyPlan plan = attack::MakeSurveyPlan(ds.d(), 5, rng);
  auto channel = attack::MakeLdpChannel(protocol, ds.domain_sizes(), 4.0);
  const std::vector<attack::Profile> profiles =
      attack::SimulateSmpProfiling(ds, *channel, plan,
                                   attack::PrivacyMetricMode::kUniform, rng)
          .back();
  const std::vector<bool> bk = attack::MakeBackgroundAttributes(
      ds.d(), attack::ReidentModel::kFullKnowledge, rng);
  attack::ReidentConfig config;
  config.max_targets = 3000;
  for (auto _ : state) {
    Rng trial(7);
    auto result = attack::ReidentAccuracy(profiles, ds, bk, config, trial);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * config.max_targets *
                          static_cast<std::int64_t>(ds.n()));
}
BENCHMARK_CAPTURE(BM_ReidentAccuracy, grr, fo::Protocol::kGrr)->UseRealTime();
BENCHMARK_CAPTURE(BM_ReidentAccuracy, ss, fo::Protocol::kSs)->UseRealTime();
BENCHMARK_CAPTURE(BM_ReidentAccuracy, sue, fo::Protocol::kSue)->UseRealTime();
BENCHMARK_CAPTURE(BM_ReidentAccuracy, olh, fo::Protocol::kOlh)->UseRealTime();
BENCHMARK_CAPTURE(BM_ReidentAccuracy, oue, fo::Protocol::kOue)->UseRealTime();

// SMP profiling at BM_ReidentAccuracy's settings: Adult-like n = 9,044,
// 5 surveys at eps = 4, uniform metric. BM_SmpProfiling is the step
// exp::SmpReidentTrial runs (the flat log); BM_SmpSnapshots adds the
// materialized per-prefix profiles of SimulateSmpProfiling. Items are
// (user, survey) reports.
void SmpProfilingBench(benchmark::State& state, fo::Protocol protocol,
                       bool snapshots) {
  const data::Dataset ds = data::AdultLike(4, 0.2);
  Rng rng(6);
  const attack::SurveyPlan plan = attack::MakeSurveyPlan(ds.d(), 5, rng);
  auto channel = attack::MakeLdpChannel(protocol, ds.domain_sizes(), 4.0);
  for (auto _ : state) {
    Rng trial(7);
    if (snapshots) {
      auto profiles = attack::SimulateSmpProfiling(
          ds, *channel, plan, attack::PrivacyMetricMode::kUniform, trial);
      benchmark::DoNotOptimize(profiles);
    } else {
      auto log = attack::SimulateSmpProfileLog(
          ds, *channel, plan, attack::PrivacyMetricMode::kUniform, trial);
      benchmark::DoNotOptimize(log);
    }
  }
  state.SetItemsProcessed(state.iterations() * plan.num_surveys() *
                          static_cast<std::int64_t>(ds.n()));
}
void BM_SmpProfiling(benchmark::State& state, fo::Protocol protocol) {
  SmpProfilingBench(state, protocol, /*snapshots=*/false);
}
void BM_SmpSnapshots(benchmark::State& state, fo::Protocol protocol) {
  SmpProfilingBench(state, protocol, /*snapshots=*/true);
}
BENCHMARK_CAPTURE(BM_SmpProfiling, grr, fo::Protocol::kGrr)->UseRealTime();
BENCHMARK_CAPTURE(BM_SmpProfiling, ss, fo::Protocol::kSs)->UseRealTime();
BENCHMARK_CAPTURE(BM_SmpProfiling, sue, fo::Protocol::kSue)->UseRealTime();
BENCHMARK_CAPTURE(BM_SmpProfiling, olh, fo::Protocol::kOlh)->UseRealTime();
BENCHMARK_CAPTURE(BM_SmpProfiling, oue, fo::Protocol::kOue)->UseRealTime();
BENCHMARK_CAPTURE(BM_SmpSnapshots, grr, fo::Protocol::kGrr)->UseRealTime();
BENCHMARK_CAPTURE(BM_SmpSnapshots, oue, fo::Protocol::kOue)->UseRealTime();

void BM_LedgerSimulation(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    auto summary =
        privacy::SimulateSmpLedgers(10, 12, 1.0, true, 1000, rng);
    benchmark::DoNotOptimize(summary);
  }
}
BENCHMARK(BM_LedgerSimulation);

}  // namespace

BENCHMARK_MAIN();
