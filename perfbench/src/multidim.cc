// multidim_tuples: an ACS-like population encoded once as SMP[OUE] and
// RS+FD[GRR] wire tuples; each epoch three in-process producers on disjoint
// lanes ingest both sets (serve::IngestFrames) and both collectors seal.
// No socket and no per-user state: this is the MultidimCollector workload.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench.h"
#include "core/rng.h"
#include "data/synthetic.h"
#include "multidim/rsfd.h"
#include "multidim/smp.h"
#include "serve/loadgen.h"
#include "serve/multidim_collector.h"

namespace perfbench {
namespace {

using namespace ldpr;

constexpr int kProducers = 3;
constexpr double kEpsilon = 1.0;
constexpr int kMinEpochs = 100;
/// Epochs per collector instance. Ingest speed depends on where a
/// collector's lanes land in memory (one instance stays in one mode for its
/// lifetime; instances differ by up to ~40% per epoch), so the timed phase
/// builds fresh collectors this often and a run samples dozens of
/// placements instead of one.
constexpr int kEpochsPerPlacement = 10;
/// ~250k users at the ACS generator's d = 18 attributes.
constexpr double kUsers = 250000.0;

bool SameEstimates(const serve::MultidimSnapshot& a,
                   const serve::MultidimSnapshot& b) {
  if (a.n != b.n || a.estimates.size() != b.estimates.size()) return false;
  for (std::size_t j = 0; j < a.estimates.size(); ++j) {
    const auto& x = a.estimates[j];
    const auto& y = b.estimates[j];
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

class MultidimTuples final : public Workload {
 public:
  explicit MultidimTuples(const Config& config) : config_(config) {}

  const char* name() const override { return "multidim_tuples"; }
  std::string Shape() const override {
    return "3 in-process producers on 3 disjoint lanes per collector, no "
           "socket";
  }

  void Setup() override {
    smp_collector_.reset();
    rsfd_collector_.reset();
    sealed_.clear();
    {
      ScopedSpan span("data.AcsEmploymentLike");
      dataset_ = std::make_unique<data::Dataset>(data::AcsEmploymentLike(
          config_.seed, kUsers / data::kAcsEmploymentN));
    }
    smp_ = std::make_unique<multidim::Smp>(
        fo::Protocol::kOue, dataset_->domain_sizes(), kEpsilon);
    rsfd_ = std::make_unique<multidim::RsFd>(
        multidim::RsFdVariant::kGrr, dataset_->domain_sizes(), kEpsilon);
    Rng root(config_.seed * 7919 + 43);
    const double t0 = Now();
    {
      ScopedSpan span("serve.loadgen.EncodeSmpLoad", dataset_->n());
      smp_frames_ = serve::EncodeSmpLoad(*smp_, *dataset_, root);
    }
    {
      ScopedSpan span("serve.loadgen.EncodeRsFdLoad", dataset_->n());
      rsfd_frames_ = serve::EncodeRsFdLoad(*rsfd_, *dataset_, root);
    }
    encode_s_ = Now() - t0;
    smp_collector_ = MakeCollector(true, kProducers);
    rsfd_collector_ = MakeCollector(false, kProducers);
    RunEpoch();  // warm-up repetition
  }

  Phase Run(double seconds) override {
    // IngestFrames starts its producers per call and they inherit this
    // thread's CPU mask: one CPU per producer, the same set every run.
    const CpuMask mask(1, kProducers);
    std::vector<Op> ops;
    std::vector<double> seal_us;
    const double tuples =
        static_cast<double>(smp_frames_.count() + rsfd_frames_.count());
    const double start = Now();
    for (int e = 0; e < kMinEpochs || Now() - start < seconds; ++e) {
      if (e % kEpochsPerPlacement == 0) {
        smp_collector_ = MakeCollector(true, kProducers);
        rsfd_collector_ = MakeCollector(false, kProducers);
      }
      const Epoch epoch = RunEpoch();
      ops.push_back({epoch.wall_s * 1e3, tuples});
      seal_us.push_back(epoch.seal_s * 1e6);
    }
    Phase phase;
    SetFromOps(phase, ops);
    phase.aliases = {
        {"ingest_reports_per_s", phase.throughput_per_s, "1/s"},
        {"epoch_ms_p50", phase.latency_ms_p50, "ms"},
        {"epoch_ms_p90", phase.latency_ms_p90, "ms"},
        {"epochs", static_cast<double>(ops.size()), "count"},
    };
    phase.layers = {{"serve.seal_us.multidim_tuples", Median(seal_us), "us"}};
    return phase;
  }

  void Check(Outcome& outcome) override {
    // Reference: one lane, one producer, same frames.
    const serve::CollectorOptions one{.lanes = 1};
    serve::MultidimCollector smp_ref(*smp_, one);
    serve::MultidimCollector rsfd_ref(*rsfd_, one);
    serve::IngestFrames(smp_ref, smp_frames_, 1);
    serve::IngestFrames(rsfd_ref, rsfd_frames_, 1);
    const serve::MultidimSnapshot smp_want = smp_ref.Seal();
    const serve::MultidimSnapshot rsfd_want = rsfd_ref.Seal();
    const long long n = dataset_->n();
    long long mismatched = 0;
    for (const auto& [smp, rsfd] : sealed_) {
      outcome.Operations(2 * n, std::llabs(n - smp.n) + std::llabs(n - rsfd.n),
                         "multidim_tuples tuples accepted");
      if (!SameEstimates(smp, smp_want) || !SameEstimates(rsfd, rsfd_want) ||
          smp.n != smp_frames_.count() || rsfd.n != rsfd_frames_.count()) {
        ++mismatched;
      }
    }
    outcome.Expect(mismatched == 0,
                   "multidim_tuples: " + std::to_string(mismatched) +
                       " epochs differ between 3 producers/lanes and 1");
  }

  void Probe(const Phase& phase, std::vector<Metric>& layers,
             Outcome& outcome) override {
    const double n = static_cast<double>(dataset_->n());
    const double smp_ns = IngestNs(true, outcome);
    const double rsfd_ns = IngestNs(false, outcome);
    const double smp_eff = ScalingEfficiency(true, smp_ns);
    const double rsfd_eff = ScalingEfficiency(false, rsfd_ns);
    layers.push_back({"serve.loadgen.encode_ns.multidim_tuples",
                      encode_s_ * 1e9 / (2.0 * n), "ns"});
    layers.push_back({"serve.multidim.ingest_ns.smp", smp_ns, "ns"});
    layers.push_back({"serve.multidim.ingest_ns.rsfd", rsfd_ns, "ns"});
    layers.push_back({"serve.multidim.scaling_eff.smp", smp_eff, "ratio"});
    layers.push_back({"serve.multidim.scaling_eff.rsfd", rsfd_eff, "ratio"});

    // Aggregate rate ~= 3 producers x one-producer rate x scaling_eff, per
    // set; an epoch ingests both sets back to back, so per tuple pair the
    // model cost is the sum of both sets' effective per-tuple costs.
    const double e2e_ns = 1e9 / phase.throughput_per_s;
    const double seal_ns =
        ValueOf(phase.layers, "serve.seal_us.multidim_tuples") * 1e3 /
        (2.0 * n);
    PrintCostModel(
        "multidim_tuples ingest, 3 producers", "ns per tuple (wall)",
        {{"serve.multidim.ingest_ns.smp",
          "MultidimCollector::Ingest / (3 x scaling_eff), half the tuples",
          smp_ns / (kProducers * smp_eff) / 2.0},
         {"serve.multidim.ingest_ns.rsfd",
          "MultidimCollector::Ingest / (3 x scaling_eff), half the tuples",
          rsfd_ns / (kProducers * rsfd_eff) / 2.0},
         {"serve.seal_us.multidim_tuples",
          "MultidimCollector::Seal x 2, per tuple", seal_ns}},
        e2e_ns);
  }

 private:
  struct Epoch {
    double wall_s = 0.0;
    double seal_s = 0.0;
  };

  /// ns per tuple of MultidimCollector::Ingest from one producer.
  double IngestNs(bool smp, Outcome& outcome) {
    const serve::EncodedFrames& frames = smp ? smp_frames_ : rsfd_frames_;
    long long accepted = 0;
    const double seconds = MedianOf(3, [&] {
      auto collector = MakeCollector(smp, 1);
      auto ingest_all = [&] {
        accepted = 0;
        for (long long i = 0; i < frames.count(); ++i) {
          accepted += collector
                              ->Ingest(serve::IngestRequest{
                                  {frames.frame(i), frames.frame_size(i)}})
                              .accepted
                          ? 1
                          : 0;
        }
      };
      ingest_all();  // warm: first touch of the lanes
      collector->Seal();
      const double t0 = Now();
      ScopedSpan span(smp ? "serve.multidim.Ingest.smp"
                          : "serve.multidim.Ingest.rsfd",
                      frames.count());
      ingest_all();
      return Now() - t0;
    });
    outcome.Expect(accepted == frames.count(),
                   "multidim_tuples: one-producer ingest rejected tuples");
    return seconds * 1e9 / static_cast<double>(frames.count());
  }

  /// IngestFrames rate at kProducers producers / (kProducers x the
  /// one-producer rate of `one_producer_ns` per tuple).
  double ScalingEfficiency(bool smp, double one_producer_ns) {
    const serve::EncodedFrames& frames = smp ? smp_frames_ : rsfd_frames_;
    const double seconds = MedianOf(3, [&] {
      auto collector = MakeCollector(smp, kProducers);
      serve::IngestFrames(*collector, frames, kProducers);  // warm
      collector->Seal();
      const double t0 = Now();
      ScopedSpan span("serve.loadgen.IngestFrames", frames.count());
      serve::IngestFrames(*collector, frames, kProducers);
      return Now() - t0;
    });
    const double rate = static_cast<double>(frames.count()) / seconds;
    return rate / (kProducers * 1e9 / one_producer_ns);
  }

  std::unique_ptr<serve::MultidimCollector> MakeCollector(bool smp,
                                                          int lanes) const {
    const serve::CollectorOptions options{.lanes = lanes};
    return smp ? std::make_unique<serve::MultidimCollector>(*smp_, options)
               : std::make_unique<serve::MultidimCollector>(*rsfd_, options);
  }

  Epoch RunEpoch() {
    Epoch epoch;
    const double t0 = Now();
    ScopedSpan epoch_span("serve.epoch",
                          smp_frames_.count() + rsfd_frames_.count());
    {
      ScopedSpan span("serve.loadgen.IngestFrames.smp", smp_frames_.count());
      serve::IngestFrames(*smp_collector_, smp_frames_, kProducers);
    }
    {
      ScopedSpan span("serve.loadgen.IngestFrames.rsfd",
                      rsfd_frames_.count());
      serve::IngestFrames(*rsfd_collector_, rsfd_frames_, kProducers);
    }
    const double s0 = Now();
    {
      ScopedSpan span("serve.multidim.Seal");
      sealed_.emplace_back(smp_collector_->Seal(), rsfd_collector_->Seal());
    }
    const double s1 = Now();
    epoch.wall_s = s1 - t0;
    epoch.seal_s = s1 - s0;
    return epoch;
  }

  Config config_;
  std::unique_ptr<data::Dataset> dataset_;
  std::unique_ptr<multidim::Smp> smp_;
  std::unique_ptr<multidim::RsFd> rsfd_;
  serve::EncodedFrames smp_frames_;
  serve::EncodedFrames rsfd_frames_;
  std::unique_ptr<serve::MultidimCollector> smp_collector_;
  std::unique_ptr<serve::MultidimCollector> rsfd_collector_;
  std::vector<std::pair<serve::MultidimSnapshot, serve::MultidimSnapshot>>
      sealed_;
  double encode_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeMultidimTuples(const Config& config) {
  return std::make_unique<MultidimTuples>(config);
}

}  // namespace perfbench
