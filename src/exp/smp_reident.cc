#include "exp/smp_reident.h"

#include <memory>

#include "core/check.h"
#include "exp/grid_runner.h"

namespace ldpr::exp {

std::vector<double> SmpReidentTrial(const data::Dataset& dataset,
                                    const SmpReidentOptions& options,
                                    Rng& rng) {
  LDPR_REQUIRE(options.num_surveys >= 2, "need at least 2 surveys");
  const int prefixes = options.num_surveys - 1;  // prefixes 2..num_surveys

  attack::SurveyPlan plan =
      attack::MakeSurveyPlan(dataset.d(), options.num_surveys, rng);

  std::unique_ptr<attack::AttackChannel> channel;
  if (options.channel == ChannelKind::kLdp) {
    channel = attack::MakeLdpChannel(options.protocol, dataset.domain_sizes(),
                                     options.x);
  } else {
    channel = attack::MakePieChannel(options.protocol, dataset.domain_sizes(),
                                     options.x, dataset.n());
  }

  // One log, matched at every prefix: the draws and results of matching
  // each materialized snapshot, without building one.
  const attack::ProfileLog log = attack::SimulateSmpProfileLog(
      dataset, *channel, plan, options.mode, rng);

  std::vector<bool> bk =
      attack::MakeBackgroundAttributes(dataset.d(), options.model, rng);
  attack::ReidentConfig config;
  config.top_k = options.top_k;
  config.max_targets = options.reident_targets;

  // [prefix][ki] accumulators, flattened into output order afterwards.
  std::vector<std::vector<double>> rid_acc(
      prefixes, std::vector<double>(options.top_k.size(), 0.0));
  for (int s = 2; s <= options.num_surveys; ++s) {
    auto result = attack::ReidentAccuracy(log, s, dataset, bk, config, rng);
    for (std::size_t ki = 0; ki < options.top_k.size(); ++ki) {
      rid_acc[s - 2][ki] = result.rid_acc_percent[ki];
    }
  }

  std::vector<double> out;
  out.reserve(options.top_k.size() * prefixes);
  for (std::size_t ki = 0; ki < options.top_k.size(); ++ki) {
    for (int s = 2; s <= options.num_surveys; ++s) {
      out.push_back(rid_acc[s - 2][ki]);
    }
  }
  return out;
}

void RunSmpReidentFigure(Context& ctx, const std::string& bench_name,
                         const data::Dataset& dataset,
                         const std::vector<fo::Protocol>& protocols,
                         ChannelKind channel, const std::vector<double>& xs,
                         attack::PrivacyMetricMode mode,
                         attack::ReidentModel model) {
  const RunProfile& profile = ctx.profile();
  ctx.EmitRunConfig(bench_name, dataset.n(), dataset.d());
  const char* x_name = channel == ChannelKind::kLdp ? "epsilon" : "beta";
  ctx.out().Comment(StrPrintf("# baseline: top-1 = %.4f%%, top-10 = %.4f%%",
                              attack::BaselineRidAcc(1, dataset.n()),
                              attack::BaselineRidAcc(10, dataset.n())));

  SmpReidentOptions options;
  options.channel = channel;
  options.mode = mode;
  options.model = model;
  options.num_surveys = profile.Count(5, 3);
  options.reident_targets = profile.reident_targets;
  const int prefixes = options.num_surveys - 1;
  const int columns = static_cast<int>(options.top_k.size()) * prefixes;

  const std::vector<double> grid = profile.Grid(xs);
  for (fo::Protocol protocol : profile.Shortlist(protocols)) {
    options.protocol = protocol;

    TableSpec spec;
    spec.section = StrPrintf("protocol = %s", fo::ProtocolName(protocol));
    spec.header = StrPrintf("%-8s", x_name);
    spec.x_name = x_name;
    for (int k : options.top_k) {
      for (int s = 2; s <= options.num_surveys; ++s) {
        spec.header += StrPrintf(" top%d_sv%d", k, s);
        spec.columns.push_back(StrPrintf("top%d_sv%d", k, s));
      }
    }
    ctx.out().BeginTable(spec);

    // Legacy per-point seeding: seed = 1000, ++seed per grid point; trial t
    // consumed the t-th Split() of Rng(seed).
    const auto means = RunGrid(
        static_cast<int>(grid.size()), profile.runs, columns,
        [&](int point, int trial) {
          SmpReidentOptions cell = options;
          cell.x = grid[point];
          Rng rng =
              SplitStream(1000 + static_cast<std::uint64_t>(point) + 1, trial);
          return SmpReidentTrial(dataset, cell, rng);
        });

    for (std::size_t p = 0; p < grid.size(); ++p) {
      std::vector<Cell> cells;
      cells.push_back(Cell::Number("%-8.3f", grid[p]));
      for (double v : means[p]) cells.push_back(Cell::Number(" %8.4f", v));
      ctx.out().Row(cells);
    }
  }
}

}  // namespace ldpr::exp
