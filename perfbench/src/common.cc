#include <dirent.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>

#include "bench.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

namespace {

double StatusKb(const char* key) {
  std::istringstream in(ReadFile("/proc/self/status"));
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return StatusKb("VmHWM") / 1024.0; }

double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

std::vector<int> ListTasks() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (dirent* entry = readdir(dir)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) tids.push_back(tid);
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

double TaskCpuSeconds(int tid) {
  const std::string stat =
      ReadFile("/proc/self/task/" + std::to_string(tid) + "/stat");
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int index = 3; in >> field; ++index) {
    if (index == 14) utime = std::strtod(field.c_str(), nullptr);
    if (index == 15) {
      stime = std::strtod(field.c_str(), nullptr);
      break;
    }
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void PinToCpu(int tid, int cpu, int needed) {
  if (sysconf(_SC_NPROCESSORS_ONLN) < needed) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

CpuMask::CpuMask(int first, int count) {
  if (sysconf(_SC_NPROCESSORS_ONLN) < first + count) return;
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = first; cpu < first + count; ++cpu) CPU_SET(cpu, &set);
  active_ = sched_setaffinity(0, sizeof(set), &set) == 0;
}

CpuMask::~CpuMask() {
  if (active_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

// ---- tracing ----

namespace {

Tracer* g_tracer = nullptr;
thread_local std::vector<int> t_open_spans;

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer* Tracer::Active() { return g_tracer; }

void Tracer::SetEnabled(bool on) {
  static Tracer tracer;
  g_tracer = on ? &tracer : nullptr;
}

void Tracer::SetWorkload(const std::string& workload) {
  std::lock_guard<std::mutex> guard(mutex_);
  workload_ = workload;
}

int Tracer::Begin(const std::string& name, long long items, int parent) {
  const double start = Now();
  std::lock_guard<std::mutex> guard(mutex_);
  SpanRecord span;
  span.name = name;
  span.workload = workload_;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.start = start;
  span.items = items;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int id) {
  const double end = Now();
  std::lock_guard<std::mutex> guard(mutex_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::vector<SpanRecord> spans = Spans();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(out,
                 "  {\"id\": %d, \"parent\": %d, \"workload\": \"%s\", "
                 "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"items\": %lld}%s\n",
                 s.id, s.parent, JsonEscape(s.workload).c_str(),
                 JsonEscape(s.name).c_str(), s.start, s.end, s.items,
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(const char* name, long long items, int parent)
    : tracer_(Tracer::Active()) {
  if (tracer_ == nullptr) return;
  if (parent == kAutoParent) {
    parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  }
  id_ = tracer_->Begin(name, items, parent);
  t_open_spans.push_back(id_);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  t_open_spans.pop_back();
  tracer_->End(id_);
}

std::vector<SpanSummary> SummarizeSpans(const std::vector<SpanRecord>& spans,
                                        const std::string& workload) {
  std::map<int, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.workload == workload && s.parent >= 0) {
      children[s.parent].push_back(&s);
    }
  }
  std::map<std::string, SpanSummary> by_name;
  std::vector<std::string> order;
  for (const SpanRecord& s : spans) {
    if (s.workload != workload) continue;
    // Union of the children's intervals, clipped to the span: concurrent
    // children (client threads) must not be subtracted twice.
    std::vector<std::pair<double, double>> intervals;
    for (const SpanRecord* c : children[s.id]) {
      intervals.emplace_back(std::max(c->start, s.start),
                             std::min(c->end, s.end));
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [lo, hi] : intervals) {
      const double from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    auto [it, inserted] = by_name.try_emplace(s.name);
    if (inserted) order.push_back(s.name);
    SpanSummary& row = it->second;
    row.name = s.name;
    ++row.calls;
    row.items += s.items;
    row.total_s += s.end - s.start;
    row.self_s += (s.end - s.start) - covered;
  }
  std::vector<SpanSummary> out;
  for (const std::string& name : order) out.push_back(by_name[name]);
  return out;
}

// ---- results ----

void SetFromOps(Phase& phase, const std::vector<Op>& ops) {
  const std::size_t segments =
      std::max<std::size_t>(1, std::min<std::size_t>(5, ops.size() / 100));
  std::vector<double> rates;
  std::vector<double> p50;
  std::vector<double> p90;
  for (std::size_t k = 0; k < segments; ++k) {
    const std::size_t lo = ops.size() * k / segments;
    const std::size_t hi = ops.size() * (k + 1) / segments;
    std::vector<double> ms;
    double units = 0.0;
    double seconds = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      ms.push_back(ops[i].ms);
      units += ops[i].units;
      seconds += ops[i].ms / 1e3;
    }
    rates.push_back(seconds > 0 ? units / seconds : 0.0);
    p50.push_back(Median(ms));
    p90.push_back(Percentile(ms, 0.9));
  }
  phase.throughput_per_s = Median(rates);
  phase.latency_ms_p50 = Median(p50);
  phase.latency_ms_p90 = Median(p90);
}

double ValueOf(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

void Outcome::Operations(long long count, long long wrong,
                         const std::string& what) {
  attempted += count;
  failed += wrong;
  if (wrong != 0) {
    failures.push_back(what + ": " + std::to_string(wrong) + " of " +
                       std::to_string(count) + " wrong");
  }
}

bool Outcome::Expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
  return ok;
}

double PrintCostModel(const std::string& title, const std::string& unit,
                      const std::vector<CostRow>& rows, double end_to_end) {
  std::printf("\n  cost model: %s (%s)\n", title.c_str(), unit.c_str());
  double sum = 0.0;
  for (const CostRow& row : rows) {
    std::printf("    %-36s %-44s %12.2f  %5.1f%%\n", row.metric.c_str(),
                row.call.c_str(), row.per_unit,
                end_to_end > 0 ? 100.0 * row.per_unit / end_to_end : 0.0);
    sum += row.per_unit;
  }
  const double residual = end_to_end - sum;
  std::printf("    %-81s %12.2f\n", "sum of layers", sum);
  std::printf("    %-81s %12.2f\n", "end to end", end_to_end);
  std::printf("    %-81s %12.2f  %5.1f%%\n", "residual (end to end - layers)",
              residual, end_to_end > 0 ? 100.0 * residual / end_to_end : 0.0);
  return residual;
}

}  // namespace perfbench
