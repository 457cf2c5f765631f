// Shared pieces of the perfbench runner: run options, the result record,
// timing and percentile helpers, and the in-memory span recorder of traced
// runs.
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< miniature sizes for the self-tests
  int jobs = 4;       ///< worker threads, passed explicitly to every call
  std::string serve_binary;
  std::string trace_dir;
  std::string pinned_digests;  ///< file of "<workload> <size> <seed> <digest>" lines
  std::string expect_digest;   ///< overrides the pinned digest (self-test)
  long corrupt_reply = -1;     ///< perturbs one expected reply (self-test)
};

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Outcome of one workload run. `checks` counts every output check made,
/// `failed` the ones that did not hold; failed_frac = failed / checks.
struct Result {
  std::map<std::string, Metric> metrics;
  std::uint64_t checks = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< human-readable lines printed before the JSON

  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// retask::quantile (linear interpolation), but 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// FNV-1a over the bit patterns of `values`, as 16 hex digits.
std::string digest_of(const std::vector<double>& values);

/// Pinned digest for (workload, size, seed) from the pinned file, or "".
std::string pinned_digest(const Options& options, const std::string& size);

/// Peak resident set of this process in MiB.
double self_peak_rss_mb();

// ---------------------------------------------------------------------------
// Span recorder. Spans carry a name, start and end (ns since the recorder
// was created), the id of the span open on the same thread when they began
// (or the region parent for spans opened on pool workers), and an optional
// request id. Everything stays in memory; write() emits one Chrome
// trace_event JSON file.

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  long parent = -1;
  long request = -1;
  std::uint64_t thread = 0;
};

class SpanRecorder {
 public:
  /// Opens a span and returns its id.
  long open(const std::string& name, long request = -1);
  void close(long id);
  /// Spans opened on threads with no open span get this parent (pool
  /// workers inside a harness call).
  void set_region_parent(long id);

  /// Number of spans recorded so far; pass it as `from` to restrict the
  /// queries below to spans opened later.
  std::size_t mark() const;
  /// Summed durations (s) of the spans named `name`.
  double total_s(const std::string& name, std::size_t from = 0) const;
  /// Durations (s) of the spans named `name`, in opening order.
  std::vector<double> durations_s(const std::string& name, std::size_t from = 0) const;

  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  Clock::time_point epoch_ = Clock::now();
  long region_parent_ = -1;
};

/// RAII span; a null recorder makes it a no-op (untraced runs).
class Span {
 public:
  Span(SpanRecorder* recorder, const std::string& name, long request = -1)
      : recorder_(recorder), id_(recorder ? recorder->open(name, request) : -1) {}
  ~Span() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  long id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  long id_;
};

/// Workload entry points (workloads.cpp). With a recorder the run is the
/// traced one and reports the per-layer metrics; without, it times the
/// end-to-end metrics (all but setup_s, which main.cpp measures).
Result run_paper_sweep(const Options& options, SpanRecorder* trace);
Result run_capacity_plan(const Options& options, SpanRecorder* trace);
Result run_manycore_mp(const Options& options, SpanRecorder* trace);
Result run_admission_serve(const Options& options, SpanRecorder* trace);
/// Builds the worker pool and the input generators of a workload: the work
/// a run does before its first timed operation (setup probes).
void setup_workload(const Options& options);
/// retask_serve arguments of the admission_serve daemon.
std::vector<std::string> serve_probe_args(const Options& options);

/// Names of every per-layer metric a traced run reports, with units. Layers
/// a workload bypasses report 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
/// True for metrics read from obs::Registry counters or timers (absent in
/// RETASK_OBS=OFF builds).
bool is_registry_metric(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP
