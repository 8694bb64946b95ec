// paper_figures: the reproduction path, no serve layer. Each repetition is
// one warm fig05 run at the paper's n (3,236,107 ACS users, fast profile,
// golden settings) and one SMP re-identification trial per protocol for all
// five protocols at fig02's defaults (Adult-like n = 9,044, 3,000 targets,
// 5 surveys, FK-RI, uniform metric).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "attack/profiling.h"
#include "attack/reident.h"
#include "bench.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "data/priors.h"
#include "data/synthetic.h"
#include "exp/datasets.h"
#include "exp/emitter.h"
#include "exp/experiment.h"
#include "exp/grids.h"
#include "exp/profile.h"
#include "exp/smp_reident.h"
#include "multidim/closed_form.h"
#include "multidim/rsfd.h"
#include "multidim/rsrfd.h"
#include "sim/closed_form.h"

namespace perfbench {
namespace {

using namespace ldpr;

constexpr std::uint64_t kAcsSeed = 2023;  // fig05's dataset seed
constexpr double kAdultScale = 0.2;       // fig02's default scale
constexpr double kReidentEpsilon = 4.0;   // mid-grid of fig02's epsilons
constexpr int kSurveys = 5;
constexpr int kTargets = 3000;
constexpr int kMinRepetitions = 2;
constexpr std::array<fo::Protocol, 5> kProtocols = {
    fo::Protocol::kGrr, fo::Protocol::kSs, fo::Protocol::kSue,
    fo::Protocol::kOlh, fo::Protocol::kOue};

class PaperFigures final : public Workload {
 public:
  explicit PaperFigures(const Config& config) : config_(config) {}

  const char* name() const override { return "paper_figures"; }
  std::string Shape() const override {
    return "fig05 grid cells and attack shards over the worker pool, no "
           "serve layer";
  }

  void Setup() override {
    fig05_.clear();
    reident_.clear();
    // Every set-up repetition synthesizes from scratch.
    exp::ClearDatasetCache();
    {
      ScopedSpan span("data.synthesize.acs_paper_n");
      const double t0 = Now();
      acs_ = &exp::GetDataset(exp::DatasetKind::kAcsEmployment, kAcsSeed,
                              data::kAcsEmploymentPaperScale);
      synthesize_s_ = Now() - t0;
    }
    {
      ScopedSpan span("data.synthesize.adult");
      adult_ = &exp::GetDataset(exp::DatasetKind::kAdult, config_.seed,
                                kAdultScale);
    }
    // Warm-up repetition: the first run after synthesis pays page faults
    // and allocator growth the warm runs do not.
    fig05_.push_back(RunFig05());
    reident_.push_back(RunReidentSet());
  }

  /// Latency is one warm fig05 run; throughput is re-identification pairs
  /// matched per second over the trial sets.
  Phase Run(double seconds) override {
    std::vector<Op> fig05_ops;
    std::vector<Op> set_ops;
    const double start = Now();
    for (int r = 0; r < kMinRepetitions || Now() - start < seconds; ++r) {
      double t0 = Now();
      fig05_.push_back(RunFig05());
      fig05_ops.push_back({(Now() - t0) * 1e3, 0.0});
      t0 = Now();
      reident_.push_back(RunReidentSet());
      set_ops.push_back({(Now() - t0) * 1e3, PairsPerSet()});
    }
    Phase phase;
    SetFromOps(phase, fig05_ops);
    Phase sets;
    SetFromOps(sets, set_ops);
    phase.throughput_per_s = sets.throughput_per_s;
    phase.aliases = {
        {"experiment_s", phase.latency_ms_p50 / 1e3, "s"},
        {"reident_s", sets.latency_ms_p50 / 1e3, "s"},
        {"reident_pairs_per_s", phase.throughput_per_s, "1/s"},
        {"repetitions", static_cast<double>(fig05_ops.size()), "count"},
    };
    return phase;
  }

  void Check(Outcome& outcome) override {
    const std::string golden05 =
        ReadFile(config_.repo_root + "/tests/golden/fig05_fast_papern.txt");
    long long drifted = 0;
    for (const std::string& csv : fig05_) {
      if (golden05.empty() || csv != golden05) ++drifted;
    }
    outcome.Operations(static_cast<long long>(fig05_.size()), drifted,
                       "paper_figures fig05 runs equal to "
                       "tests/golden/fig05_fast_papern.txt");

    const std::string golden02 =
        ReadFile(config_.repo_root + "/tests/golden/fig02.txt");
    outcome.Expect(!golden02.empty() && RunFig02Golden() == golden02,
                   "paper_figures: fig02 at golden settings differs from "
                   "tests/golden/fig02.txt");

    long long wrong_trials = 0;
    for (const auto& set : reident_) {
      for (std::size_t p = 0; p < set.size(); ++p) {
        const bool same = set[p] == reident_.front()[p];
        bool sane = set[p].size() == 2 * (kSurveys - 1);
        for (int s = 0; sane && s < kSurveys - 1; ++s) {
          const double top1 = set[p][static_cast<std::size_t>(s)];
          const double top10 =
              set[p][static_cast<std::size_t>(kSurveys - 1 + s)];
          sane = top1 >= 0.0 && top10 <= 100.0 && top10 >= top1;
        }
        if (!same || !sane) ++wrong_trials;
      }
    }
    outcome.Operations(
        static_cast<long long>(reident_.size() * kProtocols.size()),
        wrong_trials,
        "paper_figures re-identification trials deterministic with "
        "0 <= top-1 <= top-10 <= 100");
  }

  void Probe(const Phase& phase, std::vector<Metric>& layers,
             Outcome& outcome) override {
    const data::Dataset& ds = *acs_;
    const long long n = ds.n();
    multidim::AttributeHistograms hists;
    const double hist_s = MedianSeconds(3, [&] {
      ScopedSpan span("sim.BuildAttributeHistograms", n);
      hists = sim::BuildAttributeHistograms(ds);
    });
    const double marg_s = MedianSeconds(3, [&] {
      ScopedSpan span("data.Dataset.Marginals", n);
      (void)ds.Marginals();
    });
    Rng rng(config_.seed * 7919 + 61);
    std::vector<std::vector<double>> laplace;
    const double laplace_s = MedianSeconds(3, [&] {
      ScopedSpan span("data.BuildPriors.laplace", n);
      laplace = data::BuildPriors(ds, data::PriorKind::kCorrectLaplace, rng);
    });
    const double dirichlet_s = MedianSeconds(3, [&] {
      ScopedSpan span("data.BuildPriors.dirichlet");
      (void)data::BuildPriors(ds, data::PriorKind::kIncorrectDirichlet, rng);
    });

    // fig05's six columns at one grid point, each estimated closed form.
    const double eps = std::log(4.0);
    struct Variant {
      const char* metric;
      double seconds;
    };
    std::vector<Variant> variants;
    auto time_variant = [&](const char* metric, const auto& protocol) {
      variants.push_back({metric, MedianSeconds(5, [&] {
                            ScopedSpan span("multidim.EstimateClosedForm");
                            (void)multidim::EstimateClosedForm(protocol, hists,
                                                               n, rng);
                          })});
    };
    time_variant("multidim.closed_form_us.rfd_grr",
                 multidim::RsRfd(multidim::RsRfdVariant::kGrr,
                                 ds.domain_sizes(), eps, laplace));
    time_variant("multidim.closed_form_us.rfd_sue_r",
                 multidim::RsRfd(multidim::RsRfdVariant::kSueR,
                                 ds.domain_sizes(), eps, laplace));
    time_variant("multidim.closed_form_us.rfd_oue_r",
                 multidim::RsRfd(multidim::RsRfdVariant::kOueR,
                                 ds.domain_sizes(), eps, laplace));
    time_variant("multidim.closed_form_us.fd_grr",
                 multidim::RsFd(multidim::RsFdVariant::kGrr, ds.domain_sizes(),
                                eps));
    time_variant("multidim.closed_form_us.fd_sue_r",
                 multidim::RsFd(multidim::RsFdVariant::kSueR,
                                ds.domain_sizes(), eps));
    time_variant("multidim.closed_form_us.fd_oue_r",
                 multidim::RsFd(multidim::RsFdVariant::kOueR,
                                ds.domain_sizes(), eps));

    layers.push_back({"data.synthesize_s", synthesize_s_, "s"});
    layers.push_back({"sim.histograms_ms", hist_s * 1e3, "ms"});
    layers.push_back({"data.marginals_ms", marg_s * 1e3, "ms"});
    layers.push_back({"data.priors_ms.laplace", laplace_s * 1e3, "ms"});
    layers.push_back({"data.priors_ms.dirichlet", dirichlet_s * 1e3, "ms"});
    double closed_form_s = 0.0;
    for (const Variant& v : variants) {
      layers.push_back({v.metric, v.seconds * 1e6, "us"});
      closed_form_s += v.seconds;
    }

    // Calls on the critical path of one fig05 run: two panels (Laplace,
    // Dirichlet priors), each one histogram pass and one marginals pass on
    // the calling thread, then the grid's cells on the worker pool, each
    // cell three prior draws and six closed-form columns; a worker runs
    // ceil(points / workers) cells one after another.
    const double points =
        static_cast<double>(exp::LogUtilityEpsilonGrid().size());
    const double waves = std::ceil(points / DefaultThreadCount());
    const double experiment_s = phase.latency_ms_p50 / 1e3;
    const double residual = PrintCostModel(
        "fig05 at paper n (one warm run)", "s per run",
        {{"sim.histograms_ms", "sim::BuildAttributeHistograms x 2",
          2 * hist_s},
         {"data.marginals_ms", "Dataset::Marginals x 2", 2 * marg_s},
         {"data.priors_ms.laplace", "BuildPriors(Laplace) x 3 per cell wave",
          3 * waves * laplace_s},
         {"data.priors_ms.dirichlet",
          "BuildPriors(Dirichlet) x 3 per cell wave", 3 * waves * dirichlet_s},
         {"multidim.closed_form_us.*",
          "EstimateClosedForm, 6 columns per cell wave, 2 panels",
          2 * waves * closed_form_s}},
        experiment_s);
    layers.push_back({"exp.residual_s", residual, "s"});

    ProbeAttack(phase, layers, outcome);
  }

 private:
  static exp::SmpReidentOptions ReidentOptions(fo::Protocol protocol) {
    exp::SmpReidentOptions options;
    options.protocol = protocol;
    options.channel = exp::ChannelKind::kLdp;
    options.x = kReidentEpsilon;
    options.num_surveys = kSurveys;
    options.mode = attack::PrivacyMetricMode::kUniform;
    options.model = attack::ReidentModel::kFullKnowledge;
    options.reident_targets = kTargets;
    return options;
  }

  Rng TrialRng(std::size_t protocol) const {
    return Rng(config_.seed * 1000003 + protocol);
  }

  double PairsPerSet() const {
    const double targets = std::min<double>(kTargets, adult_->n());
    return static_cast<double>(kProtocols.size()) * (kSurveys - 1) * targets *
           static_cast<double>(adult_->n());
  }

  std::string RunFig05() const {
    ScopedSpan span("exp.RunExperiment.fig05");
    const exp::ExperimentSpec* spec = exp::Registry::Instance().Find("fig05");
    if (spec == nullptr) return {};
    // The golden settings: one run per grid point, no scale override (the
    // fast profile then runs at the paper's n); the run-config preamble
    // also prints the re-identification target count.
    exp::RunProfile profile;
    profile.runs = 1;
    profile.reident_targets = 100;
    profile.fidelity = exp::RunProfile::Fidelity::kFast;
    profile.has_scale_override = false;
    std::string csv;
    exp::CsvEmitter emitter(&csv);
    exp::RunExperiment(*spec, emitter, profile);
    return csv;
  }

  /// fig02 under the environment tests/golden/fig02.txt was pinned with.
  static std::string RunFig02Golden() {
    const exp::ExperimentSpec* spec = exp::Registry::Instance().Find("fig02");
    if (spec == nullptr) return {};
    const std::array<std::pair<const char*, const char*>, 6> pinned = {{
        {"LDPR_RUNS", "1"},
        {"LDPR_SCALE", "0.02"},
        {"LDPR_REIDENT_TARGETS", "100"},
        {"LDPR_GBDT_ROUNDS", "2"},
        {"LDPR_GBDT_DEPTH", "2"},
        {"LDPR_FIG01_TRIALS", "500"},
    }};
    for (const auto& [key, value] : pinned) setenv(key, value, 1);
    const exp::RunProfile profile = exp::RunProfile::FromEnv();
    for (const auto& [key, value] : pinned) unsetenv(key);
    std::string csv;
    exp::CsvEmitter emitter(&csv);
    exp::RunExperiment(*spec, emitter, profile);
    return csv;
  }

  std::vector<std::vector<double>> RunReidentSet() const {
    ScopedSpan span("exp.SmpReidentTrial.set");
    std::vector<std::vector<double>> out;
    for (std::size_t p = 0; p < kProtocols.size(); ++p) {
      ScopedSpan trial("exp.SmpReidentTrial");
      Rng rng = TrialRng(p);
      out.push_back(
          exp::SmpReidentTrial(*adult_, ReidentOptions(kProtocols[p]), rng));
    }
    return out;
  }

  /// The trial's steps as public attack calls on the same RNG stream, so
  /// the layer timings cover exactly the timed trials' work.
  void ProbeAttack(const Phase& phase, std::vector<Metric>& layers,
                   Outcome& outcome) {
    const data::Dataset& ds = *adult_;
    std::vector<double> profiling_ms;
    std::vector<double> reident_ms;
    bool same = true;
    for (std::size_t p = 0; p < kProtocols.size(); ++p) {
      const exp::SmpReidentOptions options = ReidentOptions(kProtocols[p]);
      Rng rng = TrialRng(p);
      const attack::SurveyPlan plan =
          attack::MakeSurveyPlan(ds.d(), options.num_surveys, rng);
      const auto channel = attack::MakeLdpChannel(
          options.protocol, ds.domain_sizes(), options.x);
      double t0 = Now();
      std::vector<std::vector<attack::Profile>> snapshots;
      {
        ScopedSpan span("attack.SimulateSmpProfiling", ds.n());
        snapshots = attack::SimulateSmpProfiling(ds, *channel, plan,
                                                 options.mode, rng);
      }
      profiling_ms.push_back((Now() - t0) * 1e3);
      const std::vector<bool> bk =
          attack::MakeBackgroundAttributes(ds.d(), options.model, rng);
      attack::ReidentConfig config;
      config.top_k = options.top_k;
      config.max_targets = options.reident_targets;
      std::vector<double> top1;
      for (int s = 2; s <= options.num_surveys; ++s) {
        t0 = Now();
        ScopedSpan span("attack.ReidentAccuracy", ds.n());
        const attack::ReidentResult result =
            attack::ReidentAccuracy(snapshots[s - 1], ds, bk, config, rng);
        reident_ms.push_back((Now() - t0) * 1e3);
        top1.push_back(result.rid_acc_percent[0]);
      }
      for (int s = 0; s < options.num_surveys - 1; ++s) {
        same = same && top1[static_cast<std::size_t>(s)] ==
                           reident_.front()[p][static_cast<std::size_t>(s)];
      }
    }
    outcome.Expect(same, "paper_figures: the attack probe's RID-ACC differs "
                         "from SmpReidentTrial on the same stream");
    const double reident_call_ms = Median(reident_ms);
    const double targets = std::min<double>(kTargets, ds.n());
    layers.push_back({"attack.profiling_ms", Median(profiling_ms), "ms"});
    layers.push_back({"attack.reident_ms", reident_call_ms, "ms"});
    layers.push_back({"attack.reident_pairs_per_s",
                      targets * ds.n() / (reident_call_ms / 1e3), "1/s"});
    const double set_s = PairsPerSet() / phase.throughput_per_s;
    double profiling_total = 0.0;
    double reident_total = 0.0;
    for (double ms : profiling_ms) profiling_total += ms / 1e3;
    for (double ms : reident_ms) reident_total += ms / 1e3;
    PrintCostModel(
        "five-protocol re-identification set", "s per set",
        {{"attack.profiling_ms", "attack::SimulateSmpProfiling x 5",
          profiling_total},
         {"attack.reident_ms", "attack::ReidentAccuracy x 4 prefixes x 5",
          reident_total}},
        set_s);
  }

  Config config_;
  const data::Dataset* acs_ = nullptr;
  const data::Dataset* adult_ = nullptr;
  double synthesize_s_ = 0.0;
  std::vector<std::string> fig05_;
  std::vector<std::vector<std::vector<double>>> reident_;
};

}  // namespace

std::unique_ptr<Workload> MakePaperFigures(const Config& config) {
  return std::make_unique<PaperFigures>(config);
}

}  // namespace perfbench
