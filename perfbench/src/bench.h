// Shared pieces of the repository benchmark: clocks and /proc readers, the
// in-memory span tracer, the correctness ledger, and the Workload interface
// every workload implements.
//
// Every number is taken from outside the library: the benchmark times its
// own calls into public functions. Spans are recorded only here, never
// inside the program under test.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sched.h>

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// ---- clocks, statistics, process state ----

/// Steady-clock seconds.
double Now();
/// CPU seconds consumed by the calling thread.
double ThreadCpuSeconds();

/// Linear-interpolation percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// VmHWM of this process, in MiB.
double PeakRssMb();
/// Heap bytes currently allocated through malloc, in MiB.
double HeapInUseMb();

/// Thread ids of this process (/proc/self/task).
std::vector<int> ListTasks();
/// utime + stime of one thread of this process, in seconds.
double TaskCpuSeconds(int tid);

std::string ReadFile(const std::string& path);

/// Pins thread `tid` (0: the caller) to one CPU. No-op on hosts with fewer
/// than `needed` CPUs, where pinning would stack threads.
void PinToCpu(int tid, int cpu, int needed);

/// Restricts the calling thread, and threads it starts, to CPUs
/// [first, first + count) for the object's lifetime, then restores the old
/// mask. No-op on hosts without those CPUs.
class CpuMask {
 public:
  CpuMask(int first, int count);
  ~CpuMask();
  CpuMask(const CpuMask&) = delete;
  CpuMask& operator=(const CpuMask&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

// ---- tracing ----

struct SpanRecord {
  std::string name;
  std::string workload;
  int id = 0;
  int parent = -1;  ///< -1: root
  double start = 0.0;
  double end = 0.0;
  long long items = 0;  ///< work items the span covered (records, rows...)
};

/// Spans kept in memory, written out once at exit. Off unless enabled: a
/// ScopedSpan then costs one branch.
class Tracer {
 public:
  /// The process tracer while enabled, nullptr otherwise.
  static Tracer* Active();
  static void SetEnabled(bool on);

  void SetWorkload(const std::string& workload);
  int Begin(const std::string& name, long long items, int parent);
  void End(int id);
  std::vector<SpanRecord> Spans() const;
  /// Writes every span as JSON; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::string workload_;
  std::vector<SpanRecord> spans_;
};

inline constexpr int kAutoParent = -2;

/// Records one span around its scope when tracing is on. The parent is the
/// innermost open span of this thread unless given explicitly (client
/// threads name the epoch span that spawned them).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, long long items = 0,
                      int parent = kAutoParent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_ = nullptr;
  int id_ = -1;
};

/// Per-name aggregate of a workload's spans: total and self time (the span
/// minus the union of its children's intervals).
struct SpanSummary {
  std::string name;
  long long calls = 0;
  long long items = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::vector<SpanSummary> SummarizeSpans(const std::vector<SpanRecord>& spans,
                                        const std::string& workload);

// ---- results ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Correctness ledger: operations attempted, those whose outcome differed
/// from the expected one, and failed checks (each counts as one attempted
/// and one failed operation).
struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;

  void Operations(long long count, long long wrong, const std::string& what);
  bool Expect(bool ok, const std::string& what);
};

/// One timed operation (an epoch, a figure run) and the work units it
/// completed.
struct Op {
  double ms = 0.0;
  double units = 0.0;
};

/// What one timed phase measured.
struct Phase {
  double throughput_per_s = 0.0;  ///< workload-defined unit per second
  double latency_ms_p50 = 0.0;    ///< per timed operation
  double latency_ms_p90 = 0.0;
  /// The same figures under the names the workload's users know them by
  /// (ingest_reports_per_s, epoch_ms_p50, experiment_s, reident_s, ...),
  /// printed in the human table next to the generic metrics.
  std::vector<Metric> aliases;
  /// Per-layer figures only a live phase can give (seal time, publish lag,
  /// thread CPU shares, server counters).
  std::vector<Metric> layers;
};

/// Fills throughput and latency percentiles from a phase's operations in
/// order. The run is cut into consecutive segments of at least 100
/// operations (at most 5), each yields a rate, a p50 and a p90, and the
/// phase reports the median over segments: a slow spell of the host that
/// covers less than half the run moves none of the three. Fewer than 200
/// operations make one segment.
void SetFromOps(Phase& phase, const std::vector<Op>& ops);

/// The value of the named metric in `metrics` (0 when absent).
double ValueOf(const std::vector<Metric>& metrics, const std::string& name);

struct Config {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Timed phases the run will make; sizes inputs drawn up front.
  int phases = 1;
  std::string repo_root = ".";
  std::string work_dir = ".";  ///< sockets and other run files
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// Threads and connections the timed phase uses, for the header.
  virtual std::string Shape() const = 0;
  /// Builds inputs and state from the seed and warms up; may run again
  /// (each run replaces the previous state).
  virtual void Setup() = 0;
  /// The timed phase: runs for about `seconds`.
  virtual Phase Run(double seconds) = 0;
  /// Correctness gates over everything the timed phases produced. Never
  /// timed.
  virtual void Check(Outcome& outcome) = 0;
  /// Traced runs only: times each layer's public calls on this workload's
  /// inputs and appends per-layer metrics; `phase` is the traced phase,
  /// whose end-to-end figure the layer costs are set against. Prints the
  /// cost model with its residual. A probe that did not process every input
  /// fails `outcome`.
  virtual void Probe(const Phase& phase, std::vector<Metric>& layers,
                     Outcome& outcome) = 0;
};

std::unique_ptr<Workload> MakeSocketOue(const Config& config);
std::unique_ptr<Workload> MakeLongitudinalGrr(const Config& config);
std::unique_ptr<Workload> MakeMultidimTuples(const Config& config);
std::unique_ptr<Workload> MakePaperFigures(const Config& config);

/// Runs `fn` `reps` times and returns the median of the seconds it
/// returns (each call times its own region, leaving preparation out).
template <typename Fn>
double MedianOf(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) samples.push_back(fn());
  return Median(samples);
}

/// Median wall seconds of one whole call of `fn` over `reps` calls.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  return MedianOf(reps, [&] {
    const double t0 = Now();
    fn();
    return Now() - t0;
  });
}

/// One row of a per-record cost model: layer metric name, the public call
/// it times, and its cost per end-to-end unit.
struct CostRow {
  std::string metric;
  std::string call;
  double per_unit = 0.0;
};
/// Prints a cost model (rows, their sum, the end-to-end cost and the
/// residual) and returns the residual.
double PrintCostModel(const std::string& title, const std::string& unit,
                      const std::vector<CostRow>& rows, double end_to_end);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
