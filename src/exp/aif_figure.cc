#include "exp/aif_figure.h"

#include <utility>

#include "exp/grid_runner.h"
#include "exp/grids.h"

namespace ldpr::exp {

namespace {

/// One RS+FD-family protocol (multidim::FakeData) as an attacked solution.
template <typename Protocol>
class FakeDataSolution : public AifSolution {
 public:
  template <typename... Args>
  explicit FakeDataSolution(Args&&... args)
      : protocol_(std::forward<Args>(args)...) {}

  attack::MultidimClient Client() const override {
    return [this](const std::vector<int>& rec, Rng& r) {
      return protocol_.RandomizeUser(rec, r);
    };
  }
  attack::MultidimEstimator Estimator() const override {
    return [this](const std::vector<multidim::MultidimReport>& reps) {
      return protocol_.Estimate(reps);
    };
  }

 private:
  Protocol protocol_;
};

}  // namespace

AifSolutionFactory MakeRsFdFactory(multidim::RsFdVariant variant,
                                   const data::Dataset& dataset) {
  const std::vector<int> k = dataset.domain_sizes();
  return [variant, k](double eps, Rng&) {
    return std::make_unique<FakeDataSolution<multidim::RsFd>>(variant, k,
                                                              eps);
  };
}

AifSolutionFactory MakeRsRfdFactory(multidim::RsRfdVariant variant,
                                    data::PriorKind prior_kind,
                                    const data::Dataset& dataset,
                                    int prior_n) {
  const data::Dataset* ds = &dataset;
  return [variant, prior_kind, ds, prior_n](double eps, Rng& rng) {
    auto priors = data::BuildPriors(*ds, prior_kind, rng,
                                    /*total_central_eps=*/0.1, prior_n);
    return std::make_unique<FakeDataSolution<multidim::RsRfd>>(
        variant, ds->domain_sizes(), eps, std::move(priors));
  };
}

std::vector<AifPanel> PaperAifPanels() {
  return {
      {attack::AifModel::kNk, {{1.0, 0.0}, {3.0, 0.0}, {5.0, 0.0}}},
      {attack::AifModel::kPk, {{0.0, 0.1}, {0.0, 0.3}, {0.0, 0.5}}},
      {attack::AifModel::kHm, {{1.0, 0.1}, {3.0, 0.3}, {5.0, 0.5}}},
  };
}

void RunAifFigure(Context& ctx, const std::string& bench_name,
                  const data::Dataset& dataset,
                  const std::vector<AifCurve>& curves,
                  const std::vector<AifPanel>& panels) {
  const RunProfile& profile = ctx.profile();
  ctx.EmitRunConfig(bench_name, dataset.n(), dataset.d());
  ctx.out().Comment(
      StrPrintf("# baseline AIF-ACC = %.3f%%", 100.0 / dataset.d()));
  const int runs = profile.runs;

  const std::vector<double> grid = profile.Grid(EpsilonGrid());
  for (const AifPanel& panel : profile.Shortlist(panels)) {
    for (const AifCurve& curve : profile.Shortlist(curves)) {
      const int settings = static_cast<int>(panel.settings.size());

      TableSpec spec;
      spec.section = StrPrintf("model = %s, protocol = %s",
                               attack::AifModelName(panel.model),
                               curve.label.c_str());
      spec.header = StrPrintf("%-8s", "epsilon");
      spec.x_name = "epsilon";
      for (const auto& [s, npk] : panel.settings) {
        std::string cell;
        if (panel.model == attack::AifModel::kNk) {
          cell = StrPrintf("    s=%.0fn", s);
        } else if (panel.model == attack::AifModel::kPk) {
          cell = StrPrintf(" npk=%.1fn", npk);
        } else {
          cell = StrPrintf(" s%.0f_n%.1f", s, npk);
        }
        spec.header += cell;
        const std::size_t b = cell.find_first_not_of(' ');
        spec.columns.push_back(cell.substr(b));
      }
      ctx.out().BeginTable(spec);

      // Legacy seeding: one counter per (panel, curve) table, starting at
      // 20230 and pre-incremented per trial, trials nested inside the
      // (epsilon, setting) sweep: Rng(++seed * 7919 + run).
      const auto means = RunGrid(
          static_cast<int>(grid.size()), runs, settings,
          [&](int point, int trial) {
            std::vector<double> row(settings);
            for (int si = 0; si < settings; ++si) {
              const std::uint64_t seed =
                  20230 +
                  (static_cast<std::uint64_t>(point) * settings + si) * runs +
                  trial + 1;
              Rng rng(seed * 7919 + static_cast<std::uint64_t>(trial));
              const auto& [s, npk] = panel.settings[si];
              auto solution = curve.factory(grid[point], rng);
              attack::AifConfig config;
              config.model = panel.model;
              config.synthetic_multiplier =
                  panel.model == attack::AifModel::kPk ? 1.0 : s;
              config.compromised_fraction =
                  panel.model == attack::AifModel::kNk ? 0.1 : npk;
              config.gbdt = profile.gbdt;
              row[si] = attack::RunAifAttack(dataset, solution->Client(),
                                             solution->Estimator(), config,
                                             rng)
                            .aif_acc_percent;
            }
            return row;
          });

      for (std::size_t p = 0; p < grid.size(); ++p) {
        std::vector<Cell> cells;
        cells.push_back(Cell::Number("%-8.1f", grid[p]));
        for (double v : means[p]) cells.push_back(Cell::Number(" %8.3f", v));
        ctx.out().Row(cells);
      }
    }
  }
}

}  // namespace ldpr::exp
