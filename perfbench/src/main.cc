// The repository benchmark's binary. perfbench/run.py builds it and
// passes the command line through:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--repo-root <dir>] [--work-dir <dir>] [--trace-out <file>]
//
// Untraced (--trace 0): sets the workload up several times (setup_s is the
// median), runs the timed phase, checks every output, prints a table of the
// end-to-end metrics and, as the last line of stdout, one JSON object.
//
// Traced (--trace 1): runs the named workload untraced and then traced (the
// ratio is the tracing overhead), then every other workload traced for a
// short phase, keeping spans around each public call the benchmark makes;
// prints each workload's span table and per-record cost model with its
// residual, writes the spans as JSON, and reports every per-layer metric.
// Exits 1 when a correctness gate fails, 2 on bad arguments, 3 when the
// build is not an optimized Release build.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "core/parallel.h"
#include "exp/datasets.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"socket_oue", "longitudinal_grr",
                                  "multidim_tuples", "paper_figures"};

/// Short traced phase for the workloads a traced run did not name.
constexpr double kSuitePhaseSeconds = 3.0;

std::unique_ptr<Workload> Make(const std::string& name, const Config& config) {
  if (name == "socket_oue") return MakeSocketOue(config);
  if (name == "longitudinal_grr") return MakeLongitudinalGrr(config);
  if (name == "multidim_tuples") return MakeMultidimTuples(config);
  if (name == "paper_figures") return MakePaperFigures(config);
  return nullptr;
}

/// Set-up repetitions behind the setup_s median: five where a set-up takes
/// about half a second, fewer where it takes longer (longitudinal_grr draws
/// every round's values, ~1.5 s; paper_figures synthesizes 3.2M users and
/// warms up, ~7 s).
int SetupReps(const std::string& name) {
  if (name == "paper_figures") return 2;
  if (name == "longitudinal_grr") return 3;
  return 5;
}

void PrintHeader(const std::string& workload, const Config& config,
                 bool trace) {
  const std::string cpuinfo = ReadFile("/proc/cpuinfo");
  std::string model = "unknown";
  std::string flags;
  std::istringstream in(cpuinfo);
  for (std::string line; std::getline(in, line);) {
    if (model == "unknown" && line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
    }
    if (flags.empty() && line.rfind("flags", 0) == 0) flags = line + " ";
  }
  auto has = [&](const char* flag) {
    return flags.find(std::string(" ") + flag + " ") != std::string::npos
               ? "yes"
               : "no";
  };
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, trace ? 1 : 0);
  std::printf("# host: nproc=%ld workers=%d cpu=\"%s\" avx2=%s avx512f=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), ldpr::DefaultThreadCount(),
              model.c_str(), has("avx2"), has("avx512f"));
  std::printf("# build: %s\n", PERFBENCH_BUILD_TYPE);
}

struct Result {
  std::vector<Metric> metrics;
  Outcome outcome;
};

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("  %s\n", title);
  for (const Metric& m : metrics) {
    std::printf("    %-44s %18.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::vector<Metric> EndToEnd(const Phase& phase, double setup_s) {
  return {
      {"throughput_per_s", phase.throughput_per_s, "1/s"},
      {"latency_ms_p50", phase.latency_ms_p50, "ms"},
      {"latency_ms_p90", phase.latency_ms_p90, "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

double TimedSetup(Workload& workload, int reps) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    const double t0 = Now();
    workload.Setup();
    samples.push_back(Now() - t0);
  }
  return Median(samples);
}

void ReportOutcome(const std::string& name, const Outcome& outcome) {
  const double share = outcome.attempted > 0
                           ? static_cast<double>(outcome.failed) /
                                 static_cast<double>(outcome.attempted)
                           : 1.0;
  std::printf("  %-44s %18.6g ratio (%lld of %lld)\n", "error_share", share,
              outcome.failed, outcome.attempted);
  for (const std::string& failure : outcome.failures) {
    std::printf("  FAILED %s: %s\n", name.c_str(), failure.c_str());
  }
}

Result RunUntraced(const std::string& name, const Config& config) {
  Result result;
  auto workload = Make(name, config);
  std::printf("# shape: %s\n", workload->Shape().c_str());
  const double setup_s = TimedSetup(*workload, SetupReps(name));
  const Phase phase = workload->Run(config.seconds);
  workload->Check(result.outcome);
  result.metrics = EndToEnd(phase, setup_s);
  std::printf("\n%s\n", name.c_str());
  PrintMetrics("end to end:", result.metrics);
  PrintMetrics("the same figures by their workload names:", phase.aliases);
  ReportOutcome(name, result.outcome);
  return result;
}

void PrintSpanTable(const std::string& workload) {
  const std::vector<SpanSummary> rows =
      SummarizeSpans(Tracer::Active()->Spans(), workload);
  std::printf("\n  spans of %s (self = span minus its children)\n",
              workload.c_str());
  std::printf("    %-46s %7s %12s %11s %11s %9s\n", "span", "calls", "items",
              "total_ms", "self_ms", "ns/item");
  for (const SpanSummary& row : rows) {
    std::printf("    %-46s %7lld %12lld %11.2f %11.2f %9.2f\n",
                row.name.c_str(), row.calls, row.items, row.total_s * 1e3,
                row.self_s * 1e3,
                row.items > 0 ? row.self_s * 1e9 / row.items : 0.0);
  }
}

Result RunTraced(const std::string& name, Config config,
                 const std::string& trace_out) {
  Result result;
  Tracer::SetEnabled(true);
  Tracer* tracer = Tracer::Active();
  std::vector<Metric> layers;
  std::vector<std::string> order = {name};
  for (const char* other : kWorkloads) {
    if (other != name) order.push_back(other);
  }
  for (const std::string& current : order) {
    const bool named = current == name;
    Config local = config;
    local.phases = named ? 2 : 1;
    const double seconds = named ? config.seconds : kSuitePhaseSeconds;
    if (!named) local.seconds = seconds;
    tracer->SetWorkload(current);
    auto workload = Make(current, local);
    std::printf("\n%s (%s)\n# shape: %s\n", current.c_str(),
                named ? "named: untraced then traced phase" : "traced phase",
                workload->Shape().c_str());
    workload->Setup();
    std::vector<Metric> untraced_e2e;
    if (named) {
      Tracer::SetEnabled(false);
      untraced_e2e = EndToEnd(workload->Run(seconds), 0.0);
      Tracer::SetEnabled(true);
    }
    const Phase phase = workload->Run(seconds);
    const std::vector<Metric> traced_e2e = EndToEnd(phase, 0.0);
    workload->Check(result.outcome);
    PrintMetrics("traced phase:", phase.aliases);
    if (named) {
      std::printf("  tracing overhead (traced / untraced)\n");
      for (std::size_t i = 0; i < 3; ++i) {
        const double ratio = traced_e2e[i].value / untraced_e2e[i].value;
        std::printf("    %-44s %18.6g / %-14.6g = %.4f\n",
                    traced_e2e[i].name.c_str(), traced_e2e[i].value,
                    untraced_e2e[i].value, ratio);
        layers.push_back(
            {"trace.overhead." + traced_e2e[i].name, ratio, "ratio"});
      }
    }
    workload->Probe(phase, layers, result.outcome);
    for (const Metric& m : phase.layers) layers.push_back(m);
    PrintSpanTable(current);
    workload.reset();
    if (current == "paper_figures") ldpr::exp::ClearDatasetCache();
  }
  ReportOutcome("trace suite", result.outcome);
  // Counts reported by several workloads (server rejects) are summed.
  std::map<std::string, Metric> merged;
  for (const Metric& m : layers) {
    auto [it, inserted] = merged.try_emplace(m.name, m);
    if (!inserted) it->second.value += m.value;
  }
  for (const auto& [key, m] : merged) result.metrics.push_back(m);
  PrintMetrics("per-layer metrics:", result.metrics);
  if (!trace_out.empty()) {
    if (tracer->WriteJson(trace_out)) {
      std::printf("  spans written to %s\n", trace_out.c_str());
    } else {
      result.outcome.Expect(false, "could not write " + trace_out);
    }
  }
  return result;
}

void PrintJson(const Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.outcome.failed == 0 ? "true" : "false",
              result.outcome.attempted, result.outcome.failed);
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <socket_oue|"
               "longitudinal_grr|multidim_tuples|paper_figures> --seed <n> "
               "--seconds <s> --trace <0|1> [--repo-root <dir>] "
               "[--work-dir <dir>] [--trace-out <file>]\n",
               message);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string trace_out;
  Config config;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--repo-root") {
      config.repo_root = value;
    } else if (key == "--work-dir") {
      config.work_dir = value;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("arguments come in --key value pairs");
  if (!Make(workload, config)) return Usage("unknown workload");
  if (config.seconds <= 0) return Usage("--seconds must be positive");
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with "
                       "assertions on (NDEBUG unset)\n");
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  PrintHeader(workload, config, trace != 0);
  const Result result = trace != 0 ? RunTraced(workload, config, trace_out)
                                   : RunUntraced(workload, config);
  PrintJson(result);
  return result.outcome.failed == 0 ? 0 : 1;
}
