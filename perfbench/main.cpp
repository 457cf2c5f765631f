// perfbench — the workload runner of retask's end-to-end benchmark.
//
//   perfbench --workload <paper_sweep|capacity_plan|manycore_mp|admission_serve>
//             --seed N --seconds S --trace 0|1 --serve-binary PATH
//             [--trace-dir DIR] [--pinned FILE] [--jobs J] [--tiny]
//
// Prints a configuration header, one line per metric, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones. Exits 1 when
// any output check failed, 2 on a usage error. run.py builds this binary
// and is the intended entry point.
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "retask/common/parallel.hpp"
#include "retask/common/stats.hpp"
#include "retask/obs/trace.hpp"
#include "retask/simd/backend.hpp"
#include "serve_client.hpp"

extern char** environ;

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  ++checks;
  if (!ok) {
    ++failed;
    if (std::find(notes.begin(), notes.end(), "FAILED: " + what) == notes.end()) {
      notes.push_back("FAILED: " + what);
    }
  }
}

double percentile(std::vector<double> values, double q) {
  return values.empty() ? 0.0 : retask::quantile(std::move(values), q);
}

double median(const std::vector<double>& values) { return percentile(values, 0.5); }

std::string digest_of(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double v : values) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

std::string pinned_digest(const Options& options, const std::string& size) {
  std::ifstream in(options.pinned_digests);
  std::string workload, pinned_size, digest;
  std::uint64_t seed = 0;
  while (in >> workload >> pinned_size >> seed >> digest) {
    if (workload == options.workload && pinned_size == size && seed == options.seed) return digest;
  }
  return "";
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

thread_local std::vector<long> t_open_spans;

std::uint64_t thread_tag() {
  return static_cast<std::uint64_t>(std::hash<std::thread::id>()(std::this_thread::get_id()));
}

}  // namespace

long SpanRecorder::open(const std::string& name, long request) {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count());
  std::lock_guard<std::mutex> lock(mu_);
  const auto id = static_cast<long>(spans_.size());
  const long parent = t_open_spans.empty() ? region_parent_ : t_open_spans.back();
  spans_.push_back(SpanRecord{name, now, now, parent, request, thread_tag()});
  t_open_spans.push_back(id);
  return id;
}

void SpanRecorder::close(long id) {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
  if (!t_open_spans.empty() && t_open_spans.back() == id) t_open_spans.pop_back();
}

void SpanRecorder::set_region_parent(long id) {
  std::lock_guard<std::mutex> lock(mu_);
  region_parent_ = id;
}

std::size_t SpanRecorder::mark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<double> SpanRecorder::durations_s(const std::string& name, std::size_t from) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(1e-9 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns));
  }
  return out;
}

double SpanRecorder::total_s(const std::string& name, std::size_t from) const {
  double total = 0.0;
  for (const double d : durations_s(name, from)) total += d;
  return total;
}

bool SpanRecorder::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  std::vector<std::uint64_t> threads;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    auto tid = std::find(threads.begin(), threads.end(), s.thread) - threads.begin();
    if (tid == static_cast<long>(threads.size())) threads.push_back(s.thread);
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << tid << ",\"ts\":" << s.start_ns / 1000.0 << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent;
    if (s.request >= 0) out << ",\"request\":" << s.request;
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"trace.wall_s", "s"},
      {"trace.unattributed_s", "s"},
      {"trace.overhead_frac", "ratio"},
      {"exp.grid_s", "s"},
      {"exp.self_s", "s"},
      {"task.generate_s", "s"},
      {"core.reference_s", "s"},
      {"core.solve_s.opt_dp", "s"},
      {"core.solve_s.fptas", "s"},
      {"core.solve_s.ls_greedy", "s"},
      {"core.solve_s.greedy", "s"},
      {"core.solve_s.all_accept", "s"},
      {"core.solve_s.rand", "s"},
      {"parallel.efficiency", "ratio"},
      {"exact_dp.cells_touched", "count"},
      {"fptas.cells_touched", "count"},
      {"cache.energy_hit_ratio", "ratio"},
      {"batch.lane_fill_ratio", "ratio"},
      {"batch.scalar_fallbacks", "count"},
      {"dp.warm_starts", "count"},
      {"batch.fused_sweep_points", "count"},
      {"batch.sweep_fallbacks", "count"},
      {"batch.select_scan_s", "s"},
      {"serve.protocol_s", "s"},
      {"serve.handle_s", "s"},
      {"serve.protocol_us", "us"},
      {"serve.handle_us.p50", "us"},
      {"serve.handle_us.p99", "us"},
      {"delta.admit_us.p50", "us"},
      {"delta.admit_us.p99", "us"},
      {"delta.remove_us.p50", "us"},
      {"delta.remove_us.p99", "us"},
      {"delta.reprice_us.p50", "us"},
      {"delta.reprice_us.p99", "us"},
      {"serve.session_self_us", "us"},
      {"serve.transport_us", "us"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.generator_lag_ms", "ms"},
      {"delta.hit_ratio", "ratio"},
      {"serve.frames_per_batch", "ratio"},
      {"serve.latency_p50_ms", "ms"},
      {"serve.latency_p90_ms", "ms"},
      {"serve.latency_p99_ms", "ms"},
      {"serve.max_rps", "1/s"},
      {"sched.partition_s", "s"},
      {"core.solve_s.mp_scale.m64", "s"},
      {"core.solve_s.mp_scale.m256", "s"},
      {"core.solve_s.mp_greedy.m64", "s"},
      {"core.solve_s.mp_greedy.m256", "s"},
      {"core.bound_s", "s"},
      {"mp.partition_s", "s"},
      {"mp.pe_solve_s", "s"},
      {"mp.local_search_s", "s"},
      {"mp.probe_yield", "ratio"},
      {"delta.table_adoptions", "count"},
  };
  return metrics;
}

bool is_registry_metric(const std::string& name) {
  static const std::vector<std::string> names = {
      "exact_dp.cells_touched", "fptas.cells_touched",    "cache.energy_hit_ratio",
      "batch.lane_fill_ratio",  "batch.scalar_fallbacks", "dp.warm_starts",
      "batch.fused_sweep_points", "batch.sweep_fallbacks", "batch.select_scan_s",
      "mp.partition_s",         "mp.pe_solve_s",          "mp.local_search_s",
      "mp.probe_yield",         "delta.table_adoptions"};
  return std::find(names.begin(), names.end(), name) != names.end();
}

namespace {

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"instances_per_s", "1/s"},
    {"objective_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
};

const std::vector<std::string> kWorkloads = {"paper_sweep", "capacity_plan", "manycore_mp",
                                             "admission_serve"};

#if defined(RETASK_OBS_ENABLED) && RETASK_OBS_ENABLED
constexpr bool kObsEnabled = true;
#else
constexpr bool kObsEnabled = false;
#endif

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv, bool& setup_probe) {
  Options options;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage_error(std::string(argv[i]) + " expects a value");
    return argv[++i];
  };
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--workload") options.workload = value(i);
      else if (arg == "--seed") options.seed = std::stoull(value(i));
      else if (arg == "--seconds") options.seconds = std::stod(value(i));
      else if (arg == "--trace") options.trace = value(i) == "1";
      else if (arg == "--jobs") options.jobs = std::stoi(value(i));
      else if (arg == "--tiny") options.tiny = true;
      else if (arg == "--serve-binary") options.serve_binary = value(i);
      else if (arg == "--trace-dir") options.trace_dir = value(i);
      else if (arg == "--pinned") options.pinned_digests = value(i);
      else if (arg == "--expect-digest") options.expect_digest = value(i);
      else if (arg == "--corrupt-reply") options.corrupt_reply = std::stol(value(i));
      else if (arg == "--setup-probe") setup_probe = true;
      else usage_error("unknown flag '" + arg + "'");
    }
  } catch (const std::logic_error&) {
    usage_error("malformed numeric flag value");
  }
  if (std::find(kWorkloads.begin(), kWorkloads.end(), options.workload) == kWorkloads.end()) {
    usage_error("unknown --workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0.0) || options.jobs < 1) usage_error("--seconds and --jobs must be positive");
  if (options.workload == "admission_serve" && options.serve_binary.empty()) {
    usage_error("admission_serve needs --serve-binary");
  }
  return options;
}

/// Process start until the first timed operation can run, as the median of
/// several fresh processes: a setup probe of this binary for the in-process
/// workloads, the daemon answering `ping` for admission_serve.
double measure_setup_s(const Options& options, const char* self) {
  constexpr int kProbes = 21;  // a probe takes a few ms; the median of many is steady
  std::vector<double> samples;
  for (int p = 0; p < kProbes; ++p) {
    const auto start = Clock::now();
    bool ready = false;
    if (options.workload == "admission_serve") {
      Child daemon(options.serve_binary, serve_probe_args(options));
      std::string reply;
      ready = daemon.send_frame("ping") && daemon.read_frame(reply, 30.0) && reply == "ok ping";
      samples.push_back(seconds_between(start, Clock::now()));
      ready = daemon.finish().status == 0 && ready;
    } else {
      std::vector<std::string> args = {"--setup-probe", "--workload", options.workload,
                                       "--seed", std::to_string(options.seed), "--jobs",
                                       std::to_string(options.jobs)};
      if (options.tiny) args.push_back("--tiny");
      Child probe(self, args);
      std::string line;
      ready = probe.read_line(line, 30.0) && line == "ready";
      samples.push_back(seconds_between(start, Clock::now()));
      ready = probe.finish().status == 0 && ready;
    }
    if (!ready) return -1.0;
  }
  return median(samples);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  ::signal(SIGPIPE, SIG_IGN);
  // Knob-free runs: no RETASK_* variable may change what is measured. The
  // library reads them on first use, and children inherit this environment.
  std::vector<std::string> knobs;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RETASK_", 7) == 0) knobs.emplace_back(*e, std::strcspn(*e, "="));
  }
  for (const std::string& knob : knobs) ::unsetenv(knob.c_str());

  bool setup_probe = false;
  const Options options = parse(argc, argv, setup_probe);
  retask::set_default_jobs(options.jobs);
  retask::obs::set_trace_enabled(false);
  if (setup_probe) {
    setup_workload(options);
    std::printf("ready\n");
    std::fflush(stdout);
    return 0;
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d size=%s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, options.tiny ? "tiny" : "full");
  std::printf("# config nproc=%u simd=%s jobs=%d compiler=%s obs=%s\n",
              std::thread::hardware_concurrency(),
              std::string(retask::simd::to_string(retask::simd::active_backend())).c_str(),
              options.jobs, PERFBENCH_COMPILER, kObsEnabled ? "on" : "off");
  std::fflush(stdout);

  Result result;
  SpanRecorder recorder;
  SpanRecorder* trace = options.trace ? &recorder : nullptr;
  try {
    if (!options.trace) {
      const double setup = measure_setup_s(options, argv[0]);
      result.check(setup > 0.0, "setup probe did not become ready");
      result.set("setup_s", setup, "s");
    }
    const auto run = options.workload == "paper_sweep"     ? run_paper_sweep
                     : options.workload == "capacity_plan" ? run_capacity_plan
                     : options.workload == "manycore_mp"   ? run_manycore_mp
                                                           : run_admission_serve;
    Result run_result = run(options, trace);
    run_result.metrics.insert(result.metrics.begin(), result.metrics.end());
    run_result.checks += result.checks;
    run_result.failed += result.failed;
    run_result.notes.insert(run_result.notes.begin(), result.notes.begin(), result.notes.end());
    result = std::move(run_result);
  } catch (const std::exception& error) {
    result.check(false, std::string("run aborted: ") + error.what());
  }

  // The metric set a run reports: every end-to-end metric (untraced) or
  // every per-layer metric (traced). Layers the workload bypasses read 0;
  // registry-derived metrics are absent from RETASK_OBS=OFF builds.
  std::vector<std::pair<std::string, std::string>> reported;
  if (options.trace) {
    for (const auto& [name, unit] : per_layer_metrics()) {
      if (!kObsEnabled && is_registry_metric(name)) continue;
      if (result.metrics.count(name) == 0) result.set(name, 0.0, unit);
      reported.emplace_back(name, unit);
    }
  } else {
    reported = kEndToEnd;
  }
  bool complete = true;
  for (const auto& [name, unit] : reported) {
    const auto it = result.metrics.find(name);
    if (it == result.metrics.end() || !std::isfinite(it->second.value)) complete = false;
  }
  result.check(complete, "a metric is missing or not finite");

  if (options.trace && !options.trace_dir.empty()) {
    ::mkdir(options.trace_dir.c_str(), 0755);
    const std::string path = options.trace_dir + "/trace-" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    if (recorder.write(path)) result.notes.push_back("spans written to " + path);
  }

  for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
  for (const auto& [name, unit] : reported) {
    const auto it = result.metrics.find(name);
    if (it != result.metrics.end()) {
      std::printf("%-32s %s %s\n", name.c_str(), json_number(it->second.value).c_str(), unit.c_str());
    }
  }
  std::printf("%-32s %s (failed %llu of %llu checks)\n", "failed_frac",
              json_number(result.checks ? static_cast<double>(result.failed) / result.checks : 1.0).c_str(),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.checks));

  std::ostringstream json;
  json << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(result.checks, 1)
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : reported) {
    const auto it = result.metrics.find(name);
    if (it == result.metrics.end() || !std::isfinite(it->second.value)) continue;
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << json_number(it->second.value) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return result.failed == 0 ? 0 : 1;
}
