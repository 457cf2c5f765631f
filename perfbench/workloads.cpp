// The four perfbench workloads. Each one generates its inputs from the run
// seed, times the library from outside, checks the outputs it times, and in
// a traced run records spans around its calls into each layer.
//
//  paper_sweep     Fig. R1/R2 style load x penalty grid through
//                  run_comparison_batch (lockstep lanes, SIMD relax, FPTAS,
//                  greedies, parallel harness; no sweep reuse).
//  capacity_plan   one task set per instance at 16 capacity factors: the
//                  solve_sweep / fused-sweep / table-export path.
//  manycore_mp     Fig. R19 points m = 64 and 256 through run_mp_scale_sweep
//                  (sched/partition, mp-scale local search, mp-greedy).
//  admission_serve the real retask_serve daemon over a pipe, open loop.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "retask/cache/sweep.hpp"
#include "retask/io/cli_options.hpp"
#include "retask/retask.hpp"
#include "retask/serve/delta_solver.hpp"
#include "retask/serve/protocol.hpp"
#include "retask/serve/server.hpp"
#include "serve_client.hpp"

namespace perfbench {
namespace {

using namespace retask;

constexpr int kMinTimedPasses = 5;

/// Seed of instance 0 for a run seed: disjoint instance ranges per run seed.
std::uint64_t instance_seed0(std::uint64_t seed) { return seed * 1000003ULL + 1; }

std::string algo_key(const std::string& registry_name) {
  std::string key = registry_name.substr(0, registry_name.find(':'));
  std::replace(key.begin(), key.end(), '-', '_');
  return key;
}

double ratio_or_zero(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One human-readable line: sample count, median and tail of `samples_ms`.
std::string latency_note(const std::string& what, const std::vector<double>& samples_ms) {
  char note[200];
  std::snprintf(note, sizeof note, "%s: n=%zu p50=%.4g ms p90=%.4g ms p99=%.4g ms", what.c_str(),
                samples_ms.size(), median(samples_ms), percentile(samples_ms, 0.90),
                percentile(samples_ms, 0.99));
  return note;
}

/// Registry counter by name (0 when never touched).
double registry_counter(const obs::Registry& reg, const std::string& name) {
  const auto names = obs::metric_names(obs::MetricKind::kCounter);
  for (std::size_t id = 0; id < names.size(); ++id) {
    if (names[id] == name) return static_cast<double>(reg.counter(id));
  }
  return 0.0;
}

/// Summed registry timer in seconds (0 when never touched).
double registry_timer_s(const obs::Registry& reg, const std::string& name) {
  const auto names = obs::metric_names(obs::MetricKind::kTimer);
  for (std::size_t id = 0; id < names.size(); ++id) {
    if (names[id] == name) {
      const obs::Histogram* h = reg.timer(id);
      return h != nullptr ? h->sum * 1e-9 : 0.0;
    }
  }
  return 0.0;
}

/// Sets the registry-derived metrics every traced run reports.
void set_registry_metrics(const obs::Registry& reg, Result& result) {
  const auto c = [&](const char* name) { return registry_counter(reg, name); };
  result.set("exact_dp.cells_touched", c("exact_dp.cells_touched"), "count");
  result.set("fptas.cells_touched", c("fptas.cells_touched"), "count");
  result.set("cache.energy_hit_ratio",
             ratio_or_zero(c("cache.energy_hits"), c("cache.energy_hits") + c("cache.energy_misses")),
             "ratio");
  result.set("batch.lane_fill_ratio",
             ratio_or_zero(c("batch.lanes_filled"), c("batch.lanes_filled") + c("batch.padding_waste")),
             "ratio");
  result.set("batch.scalar_fallbacks", c("batch.scalar_fallbacks"), "count");
  result.set("dp.warm_starts", c("dp.warm_starts"), "count");
  result.set("batch.fused_sweep_points", c("batch.fused_sweep_points"), "count");
  result.set("batch.sweep_fallbacks", c("batch.sweep_fallbacks"), "count");
  result.set("batch.select_scan_s", registry_timer_s(reg, "batch.select_scan_ns"), "s");
  result.set("mp.partition_s", registry_timer_s(reg, "mp.partition_ns"), "s");
  result.set("mp.pe_solve_s", registry_timer_s(reg, "mp.pe_solve_ns"), "s");
  result.set("mp.local_search_s", registry_timer_s(reg, "mp.local_search_ns"), "s");
  result.set("mp.probe_yield",
             ratio_or_zero(c("mp.moves_applied") + c("mp.swaps_applied"),
                           c("mp.move_probes") + c("mp.swap_probes")),
             "ratio");
  result.set("delta.table_adoptions", c("delta.table_adoptions"), "count");
}

/// Runs `body`, turning any exception into one failed check: a library
/// precondition failure or a failed revalidation is an output error.
template <typename Body>
void guarded(Result& result, const char* what, Body body) {
  try {
    body();
  } catch (const std::exception& error) {
    result.check(false, std::string(what) + ": " + error.what());
  }
}

// ---------------------------------------------------------------------------
// Uniprocessor grids (paper_sweep, capacity_plan).

struct Grid {
  std::vector<ProblemFactory> factories;
  std::vector<std::string> solvers;  ///< registry names
  ReferenceObjective reference;
  int instances = 0;
  std::uint64_t seed0 = 1;
  bool share_memo = false;  ///< one fresh grid-wide energy memo per pass
};

using GridStats = std::vector<std::vector<AlgoStats>>;

std::vector<std::unique_ptr<RejectionSolver>> make_lineup(const std::vector<std::string>& names) {
  std::vector<std::unique_ptr<RejectionSolver>> lineup;
  for (const std::string& name : names) lineup.push_back(make_solver(name));
  return lineup;
}

/// One whole-grid harness call. With a recorder, the factory and reference
/// callbacks and the call itself are spanned.
GridStats run_grid(const Grid& grid, const std::vector<std::string>& solvers, int jobs,
                   SpanRecorder* trace) {
  const auto lineup = make_lineup(solvers);
  std::vector<ProblemFactory> factories = grid.factories;
  ReferenceObjective reference = grid.reference;
  if (trace != nullptr) {
    for (ProblemFactory& f : factories) {
      f = [inner = f, trace](std::uint64_t seed) {
        Span span(trace, "task.generate");
        return inner(seed);
      };
    }
    reference = [inner = grid.reference, trace](const RejectionProblem& p) {
      Span span(trace, "core.reference");
      return inner(p);
    };
  }
  BatchOptions batch;
  if (grid.share_memo) batch.shared_energy_memo = std::make_shared<EnergyMemo>();
  Span span(trace, "exp.grid");
  if (trace != nullptr) trace->set_region_parent(span.id());
  return run_comparison_batch(factories, lineup, reference, grid.instances, grid.seed0, jobs,
                              batch);
}

std::vector<double> grid_fingerprint(const GridStats& stats) {
  std::vector<double> values;
  for (const auto& point : stats) {
    for (const AlgoStats& s : point) {
      values.insert(values.end(), {s.ratio.mean(), s.ratio.min(), s.ratio.max(),
                                   s.acceptance.mean(), s.objective.mean()});
    }
  }
  return values;
}

std::size_t solver_index(const std::vector<std::string>& solvers, const std::string& name) {
  return static_cast<std::size_t>(std::find(solvers.begin(), solvers.end(), name) -
                                  solvers.begin());
}

/// One untimed warm-up pass (returned in `first`), then timed passes until
/// `seconds` elapsed and at least kMinTimedPasses ran. Every pass is checked
/// by `check_pass` and must reproduce the first pass's digest.
template <typename CheckPass>
void time_grid(const Options& options, const Grid& grid, Result& result, CheckPass check_pass,
               GridStats& first) {
  first = run_grid(grid, grid.solvers, options.jobs, nullptr);
  check_pass(first);
  const std::string digest = digest_of(grid_fingerprint(first));
  std::vector<double> pass_ms;
  const auto begin = Clock::now();
  while (pass_ms.size() < kMinTimedPasses ||
         seconds_between(begin, Clock::now()) < options.seconds) {
    const auto start = Clock::now();
    const GridStats stats = run_grid(grid, grid.solvers, options.jobs, nullptr);
    pass_ms.push_back(1e3 * seconds_between(start, Clock::now()));
    check_pass(stats);
    result.check(digest_of(grid_fingerprint(stats)) == digest,
                 "pass digest differs from the first pass");
  }
  result.set("peak_rss_mb", self_peak_rss_mb(), "MB");
  const double cells = static_cast<double>(grid.factories.size()) * grid.instances;
  result.set("instances_per_s", 1e3 * cells / median(pass_ms), "1/s");
  result.notes.push_back(latency_note("whole-grid pass of " + std::to_string(static_cast<long>(cells)) +
                                          " instance-points",
                                      pass_ms));
}

/// Traced layer attribution of a grid. Self times come from jobs = 1 passes
/// so that they add up to the wall time: one full-lineup pass gives
/// exp.grid_s, task.generate_s and core.reference_s; one pass per algorithm
/// gives core.solve_s.<algo>; exp.self_s is what remains of the grid call.
void trace_grid(const Options& options, const Grid& grid, Result& result, SpanRecorder& trace) {
  // Every pass, traced or not and at either job count, must reproduce the
  // warm-up pass's table.
  const std::string digest =
      digest_of(grid_fingerprint(run_grid(grid, grid.solvers, options.jobs, nullptr)));
  const auto check = [&](const GridStats& stats) {
    result.check(digest_of(grid_fingerprint(stats)) == digest,
                 "pass digest differs from the first pass");
  };
  // Registry counters of exactly one pass at the benchmark's job count (the
  // harness keeps them jobs-invariant).
  // Passes at jobs = 4 take tens of ms on paper_sweep; with three pairs a
  // single preempted pass moved trace.overhead_frac by tens of percent.
  constexpr int kPairs = 9;
  std::vector<double> plain_s, traced_s;
  for (int r = 0; r < kPairs; ++r) {
    auto start = Clock::now();
    check(run_grid(grid, grid.solvers, options.jobs, nullptr));
    plain_s.push_back(seconds_between(start, Clock::now()));
    if (r == 0) obs::reset_all();
    start = Clock::now();
    {
      Span pass(&trace, "pass.jobs_n");
      check(run_grid(grid, grid.solvers, options.jobs, &trace));
    }
    traced_s.push_back(seconds_between(start, Clock::now()));
    if (r == 0) set_registry_metrics(obs::global_snapshot(), result);
  }
  result.set("trace.overhead_frac", median(traced_s) / median(plain_s) - 1.0, "ratio");

  std::size_t mark = trace.mark();
  {
    Span root(&trace, "pass.jobs_1");
    check(run_grid(grid, grid.solvers, 1, &trace));
  }
  const double wall = trace.total_s("pass.jobs_1", mark);
  const double grid_s = trace.total_s("exp.grid", mark);
  const double gen = trace.total_s("task.generate", mark);
  const double ref = trace.total_s("core.reference", mark);

  double solves = 0.0;
  for (const std::string& name : grid.solvers) {
    mark = trace.mark();
    {
      Span root(&trace, "pass.single." + algo_key(name));
      run_grid(grid, {name}, 1, &trace);
    }
    const double solve = trace.total_s("exp.grid", mark) - trace.total_s("task.generate", mark) -
                         trace.total_s("core.reference", mark);
    result.set("core.solve_s." + algo_key(name), solve, "s");
    solves += solve;
  }
  result.set("exp.grid_s", grid_s, "s");
  result.set("task.generate_s", gen, "s");
  result.set("core.reference_s", ref, "s");
  result.set("exp.self_s", grid_s - gen - ref - solves, "s");
  result.set("trace.wall_s", wall, "s");
  result.set("trace.unattributed_s", wall - grid_s, "s");
  result.set("parallel.efficiency", wall / (options.jobs * median(traced_s)), "ratio");
}

// ---------------------------------------------------------------------------
// paper_sweep

Grid paper_grid(const Options& options) {
  static const PolynomialPowerModel model = PolynomialPowerModel::xscale();
  const std::vector<double> loads =
      options.tiny ? std::vector<double>{0.8, 2.0}
                   : std::vector<double>{0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2};
  const std::vector<double> scales =
      options.tiny ? std::vector<double>{1.0} : std::vector<double>{0.3, 1.0, 3.0};
  const int n = options.tiny ? 12 : 48;
  const double resolution = options.tiny ? 500.0 : 3000.0;
  Grid grid;
  for (const double scale : scales) {
    for (const double load : loads) {
      grid.factories.push_back([=](std::uint64_t seed) {
        ScenarioConfig config;
        config.task_count = n;
        config.load = load;
        config.resolution = resolution;
        config.penalty_scale = scale;
        config.seed = seed;
        return make_scenario(config, model);
      });
    }
  }
  // The standard uniprocessor lineup (core/algorithm_registry.cpp).
  grid.solvers = {"opt-dp", "fptas:0.1", "ls-greedy", "greedy", "all-accept", "rand"};
  grid.reference = [](const RejectionProblem& p) { return ExactDpSolver().solve(p).objective(); };
  // Harness blocks are lockstep-lane sized (4 instances), so 32 instances
  // give 8 blocks for the 4 workers.
  grid.instances = options.tiny ? 4 : 32;
  grid.seed0 = instance_seed0(options.seed);
  // Model, frame and resolution are fixed across the grid, so one energy
  // memo per pass is sound (the figure binaries do the same).
  grid.share_memo = true;
  return grid;
}

}  // namespace

Result run_paper_sweep(const Options& options, SpanRecorder* trace) {
  Result result;
  const Grid grid = paper_grid(options);
  const std::size_t opt = solver_index(grid.solvers, "opt-dp");
  const std::size_t fptas = solver_index(grid.solvers, "fptas:0.1");
  const auto check_pass = [&](const GridStats& stats) {
    for (const auto& point : stats) {
      result.check(point[opt].ratio.min() == 1.0 && point[opt].ratio.max() == 1.0,
                   "OPT-DP ratio is not exactly 1");
      result.check(point[fptas].ratio.max() <= 1.1, "FPTAS(0.1) ratio above 1.1");
    }
  };
  if (trace != nullptr) {
    guarded(result, "paper_sweep", [&] { trace_grid(options, grid, result, *trace); });
    return result;
  }
  GridStats first;
  guarded(result, "paper_sweep", [&] { time_grid(options, grid, result, check_pass, first); });
  if (first.empty()) return result;

  const std::string digest = digest_of(grid_fingerprint(first));
  const std::string pinned = !options.expect_digest.empty()
                                 ? options.expect_digest
                                 : pinned_digest(options, options.tiny ? "tiny" : "full");
  if (!pinned.empty()) result.check(digest == pinned, "table digest differs from the pinned value");
  result.notes.push_back("table digest " + digest +
                         (pinned.empty() ? " (no pinned value for this seed)" : " (pinned)"));

  double sum = 0.0;
  int terms = 0;
  for (const auto& point : first) {
    for (const char* name : {"fptas:0.1", "ls-greedy", "greedy"}) {
      sum += point[solver_index(grid.solvers, name)].ratio.mean();
      ++terms;
    }
  }
  result.set("objective_ratio", sum / terms, "ratio");
  return result;
}

namespace {

// ---------------------------------------------------------------------------
// capacity_plan

struct CapacityPlan {
  Grid grid;
  std::vector<double> factors;
  std::function<RejectionProblem(std::uint64_t)> base;
};

CapacityPlan capacity_plan(const Options& options) {
  static const PolynomialPowerModel model = PolynomialPowerModel::xscale();
  CapacityPlan plan;
  const int points = options.tiny ? 4 : 16;
  for (int i = 0; i < points; ++i) plan.factors.push_back(0.40 + 0.60 * i / (points - 1));
  const int n = options.tiny ? 12 : 64;
  const double resolution = options.tiny ? 500.0 : 4000.0;
  plan.base = [=](std::uint64_t seed) {
    ScenarioConfig config;
    config.task_count = n;
    config.load = 1.3;
    config.resolution = resolution;
    config.seed = seed;
    return make_scenario(config, model);
  };
  for (const double factor : plan.factors) {
    plan.grid.factories.push_back([base = plan.base, factor](std::uint64_t seed) {
      return make_capacity_sweep(base(seed), {factor}).front();
    });
  }
  plan.grid.solvers = {"opt-dp", "ls-greedy"};
  plan.grid.reference = [](const RejectionProblem& p) { return fractional_lower_bound(p); };
  plan.grid.instances = options.tiny ? 4 : 32;
  plan.grid.seed0 = instance_seed0(options.seed);
  return plan;
}

/// Outside the timed window: cold per-point OPT-DP solves of every
/// instance. Per instance the objective must not increase with the capacity
/// factor and must stay >= the fractional bound; per point the mean must
/// equal the harness's OPT-DP mean bit for bit.
void check_capacity_cold(const Options& options, const CapacityPlan& plan,
                         const GridStats& first, Result& result) {
  const auto instances = static_cast<std::size_t>(plan.grid.instances);
  const std::size_t points = plan.factors.size();
  std::vector<std::vector<double>> objective(instances, std::vector<double>(points));
  std::vector<std::vector<double>> bound(instances, std::vector<double>(points));
  parallel_for(
      instances,
      [&](std::size_t k) {
        for (std::size_t p = 0; p < points; ++p) {
          const RejectionProblem problem = plan.grid.factories[p](plan.grid.seed0 + k);
          objective[k][p] = ExactDpSolver().solve(problem).objective();
          bound[k][p] = fractional_lower_bound(problem);
        }
      },
      options.jobs);
  const std::size_t opt = solver_index(plan.grid.solvers, "opt-dp");
  for (std::size_t k = 0; k < instances; ++k) {
    bool monotone = true, above = true;
    for (std::size_t p = 0; p < points; ++p) {
      if (p > 0 && objective[k][p] > objective[k][p - 1] * (1.0 + 1e-12)) monotone = false;
      if (objective[k][p] < bound[k][p] * (1.0 - 1e-9)) above = false;
    }
    result.check(monotone, "OPT-DP objective increases with the capacity factor");
    result.check(above, "OPT-DP objective below the fractional lower bound");
  }
  for (std::size_t p = 0; p < points; ++p) {
    OnlineStats cold;
    for (std::size_t k = 0; k < instances; ++k) cold.add(objective[k][p]);
    result.check(cold.mean() == first[p][opt].objective.mean(),
                 "harness OPT-DP objective differs from cold solves");
  }
}

}  // namespace

Result run_capacity_plan(const Options& options, SpanRecorder* trace) {
  Result result;
  const CapacityPlan plan = capacity_plan(options);
  if (trace != nullptr) {
    guarded(result, "capacity_plan", [&] { trace_grid(options, plan.grid, result, *trace); });
    return result;
  }
  const auto check_pass = [&](const GridStats& stats) {
    for (const auto& point : stats) {
      for (const AlgoStats& s : point) result.check(s.ratio.min() >= 1.0 - 1e-9, "ratio below 1");
    }
  };
  GridStats first;
  guarded(result, "capacity_plan",
          [&] { time_grid(options, plan.grid, result, check_pass, first); });
  if (first.empty()) return result;
  guarded(result, "capacity_plan cold check",
          [&] { check_capacity_cold(options, plan, first, result); });
  double sum = 0.0;
  int terms = 0;
  for (const auto& point : first) {
    for (const AlgoStats& s : point) {
      sum += s.ratio.mean();
      ++terms;
    }
  }
  result.set("objective_ratio", sum / terms, "ratio");
  result.notes.push_back("table digest " + digest_of(grid_fingerprint(first)));
  return result;
}

namespace {

// ---------------------------------------------------------------------------
// manycore_mp

struct ManycorePlan {
  std::vector<MpScaleSweepConfig> points;
};

ManycorePlan manycore_plan(const Options& options) {
  ManycorePlan plan;
  const std::vector<int> ms{64, 256};
  const int n = options.tiny ? 1000 : 10000;
  for (const int m : ms) {
    MpScaleSweepConfig config;
    config.scenario.task_count = n;
    config.scenario.load = 0.75 * m;
    config.scenario.resolution = std::max(1000.0, static_cast<double>(n));
    config.scenario.penalty_scale = 1.0;
    config.scenario.processor_count = m;
    config.solvers = {"mp-scale", "mp-greedy"};
    // Work per instance varies with the drawn task set (mp-greedy's
    // improvement passes, mp-scale's local search): at one instance per
    // point the pass time moved by 17 % between run seeds. Six instances
    // per point keep a pass's work steadier.
    config.instances = options.tiny ? 1 : 6;
    config.seed0 = instance_seed0(options.seed);
    plan.points.push_back(config);
  }
  return plan;
}

const PolynomialPowerModel& mp_model() {
  static const PolynomialPowerModel model = PolynomialPowerModel::xscale();
  return model;
}

std::vector<double> mp_fingerprint(const std::vector<MpScaleSweepResult>& results) {
  std::vector<double> values;
  for (const MpScaleSweepResult& r : results) {
    values.push_back(r.bound.mean());
    for (const MpScaleSolverStats& s : r.solvers) {
      values.insert(values.end(), {s.objective.mean(), s.acceptance.mean(), s.bound_ratio.mean()});
    }
  }
  return values;
}

std::vector<MpScaleSweepResult> run_mp_pass(const ManycorePlan& plan, int jobs, Result& result) {
  std::vector<MpScaleSweepResult> results;
  for (const MpScaleSweepConfig& config : plan.points) {
    results.push_back(run_mp_scale_sweep(config, mp_model(), jobs));
    for (const MpScaleSolverStats& s : results.back().solvers) {
      result.check(s.bound_ratio.min() >= 1.0 - 1e-9, "objective below the multiprocessor bound");
    }
  }
  return results;
}

std::string mp_tag(int m) { return ".m" + std::to_string(m); }

/// Direct calls into each layer on every instance of every point:
/// generation, bound, partition and one solve per solver. Each solution is
/// revalidated and must reach the multiprocessor bound, and the per-point
/// means must equal the sweep's bit for bit. With a recorder every call is
/// spanned.
void direct_mp_calls(const ManycorePlan& plan, const std::vector<MpScaleSweepResult>& swept,
                     SpanRecorder* trace, Result& result, obs::Registry& scale_metrics) {
  for (std::size_t i = 0; i < plan.points.size(); ++i) {
    const MpScaleSweepConfig& config = plan.points[i];
    const int m = config.scenario.processor_count;
    OnlineStats bounds;
    std::vector<OnlineStats> objectives(config.solvers.size());
    for (int k = 0; k < config.instances; ++k) {
      std::unique_ptr<RejectionProblem> problem;
      {
        Span span(trace, "task.generate");
        ScenarioConfig scenario = config.scenario;
        scenario.seed = config.seed0 + static_cast<std::uint64_t>(k);
        problem = std::make_unique<RejectionProblem>(make_scenario(scenario, mp_model()));
      }
      double bound = 0.0;
      {
        Span span(trace, "core.bound");
        bound = multiproc_lower_bound(*problem);
      }
      bounds.add(bound);
      {
        std::vector<double> weights;
        weights.reserve(problem->size());
        for (const FrameTask& task : problem->tasks().tasks()) {
          weights.push_back(static_cast<double>(task.cycles));
        }
        Span span(trace, "sched.partition" + mp_tag(m));
        const Partition partition =
            partition_items(weights, m, PartitionPolicy::kFirstFitDecreasing,
                            static_cast<double>(problem->cycle_capacity()));
        result.check(partition.bin_of.size() == weights.size(), "partition lost items");
      }
      for (std::size_t s = 0; s < config.solvers.size(); ++s) {
        const std::string& name = config.solvers[s];
        const std::unique_ptr<RejectionSolver> solver = make_solver(name);
        RejectionSolution solution;
        {
          // mp-scale's counters are also collected apart: mp-greedy counts
          // applied moves too, but no probes.
          obs::Registry own;
          Span span(trace, "core.solve_s." + algo_key(name) + mp_tag(m));
          const obs::ActiveScope scope(name == "mp-scale" ? scale_metrics : own);
          solution = solver->solve(*problem);
        }
        check_solution(*problem, solution);
        result.check(solution.objective() >= bound * (1.0 - 1e-9),
                     name + " objective below multiproc_lower_bound");
        objectives[s].add(solution.objective());
      }
    }
    result.check(bounds.mean() == swept[i].bound.mean(), "bounds differ from the sweep's");
    for (std::size_t s = 0; s < config.solvers.size(); ++s) {
      result.check(objectives[s].mean() == swept[i].solvers[s].objective.mean(),
                   config.solvers[s] + " objectives differ from the sweep's");
    }
  }
}

}  // namespace

Result run_manycore_mp(const Options& options, SpanRecorder* trace) {
  Result result;
  const ManycorePlan plan = manycore_plan(options);
  double instance_points = 0.0;
  for (const MpScaleSweepConfig& config : plan.points) instance_points += config.instances;
  obs::Registry scale_metrics;
  if (trace != nullptr) {
    guarded(result, "manycore_mp", [&] {
      const auto swept = run_mp_pass(plan, options.jobs, result);  // warm-up
      // The spanned section is direct_mp_calls; the mean of two untraced
      // runs bracketing the traced one is the base of trace.overhead_frac.
      const auto untraced_s = [&] {
        obs::Registry untraced_metrics;
        const auto start = Clock::now();
        direct_mp_calls(plan, swept, nullptr, result, untraced_metrics);
        return seconds_between(start, Clock::now());
      };
      double plain = untraced_s();
      obs::reset_all();
      const std::size_t mark = trace->mark();
      double traced = 0.0;
      {
        Span root(trace, "pass.traced");
        {
          Span grid(trace, "exp.grid");
          run_mp_pass(plan, options.jobs, result);
        }
        const auto traced_start = Clock::now();
        direct_mp_calls(plan, swept, trace, result, scale_metrics);
        traced = seconds_between(traced_start, Clock::now());
      }
      set_registry_metrics(obs::global_snapshot(), result);
      plain = 0.5 * (plain + untraced_s());
      const auto c = [&](const char* name) { return registry_counter(scale_metrics, name); };
      result.set("mp.probe_yield",
                 ratio_or_zero(c("mp.moves_applied") + c("mp.swaps_applied"),
                               c("mp.move_probes") + c("mp.swap_probes")),
                 "ratio");
      const double wall = trace->total_s("pass.traced", mark);
      const double grid = trace->total_s("exp.grid", mark);
      double layers = 0.0;
      for (const char* name : {"task.generate", "core.bound"}) {
        result.set(std::string(name) + "_s", trace->total_s(name, mark), "s");
        layers += trace->total_s(name, mark);
      }
      double partition = 0.0;
      for (const MpScaleSweepConfig& config : plan.points) {
        const std::string tag = mp_tag(config.scenario.processor_count);
        partition += trace->total_s("sched.partition" + tag, mark);
        for (const std::string& name : config.solvers) {
          const std::string key = "core.solve_s." + algo_key(name) + tag;
          const double solve = trace->total_s(key, mark);
          result.set(key, solve, "s");
          layers += solve;
        }
      }
      result.set("sched.partition_s", partition, "s");
      layers += partition;
      result.set("exp.grid_s", grid, "s");
      result.set("trace.wall_s", wall, "s");
      result.set("trace.unattributed_s", wall - grid - layers, "s");
      result.set("trace.overhead_frac", traced / plain - 1.0, "ratio");
    });
    return result;
  }

  std::vector<MpScaleSweepResult> first;
  guarded(result, "manycore_mp", [&] {
    first = run_mp_pass(plan, options.jobs, result);  // warm-up
    const std::string digest = digest_of(mp_fingerprint(first));
    result.notes.push_back("table digest " + digest);
    // Passes take seconds here, so three suffice for a median.
    std::vector<double> pass_ms;
    const auto begin = Clock::now();
    while (pass_ms.size() < 3 || seconds_between(begin, Clock::now()) < options.seconds) {
      const auto start = Clock::now();
      const auto results = run_mp_pass(plan, options.jobs, result);
      pass_ms.push_back(1e3 * seconds_between(start, Clock::now()));
      result.check(digest_of(mp_fingerprint(results)) == digest,
                   "pass digest differs from the first pass");
    }
    result.set("peak_rss_mb", self_peak_rss_mb(), "MB");
    result.set("instances_per_s", 1e3 * instance_points / median(pass_ms), "1/s");
    result.notes.push_back(latency_note("pass over m=64 and m=256", pass_ms));
    direct_mp_calls(plan, first, nullptr, result, scale_metrics);
  });
  if (first.empty()) return result;
  double sum = 0.0;
  int terms = 0;
  for (const MpScaleSweepResult& r : first) {
    for (const MpScaleSolverStats& s : r.solvers) {
      sum += s.bound_ratio.mean();
      ++terms;
    }
  }
  result.set("objective_ratio", sum / terms, "ratio");
  return result;
}

namespace {

// ---------------------------------------------------------------------------
// admission_serve

struct ServeConfig {
  double capacity = 10000.0;  ///< cycles at top speed per frame (C)
  std::size_t min_resident = 64;
  std::size_t max_resident = 128;
  std::size_t initial_fill = 96;
  Cycles cycles_lo = 40, cycles_hi = 272;  ///< mean 156: demand ~1.5 C at 96 resident
  std::size_t warmup_mixed = 400;
  double fixed_rate = 1000.0;   ///< req/s of the fixed-rate phase
  double p90_limit_ms = 2.0;    ///< p90 latency limit of the max-rate ladder
  double fixed_share = 0.6;     ///< share of --seconds spent at the fixed rate
  std::size_t burst = 1000;     ///< requests per saturation burst
};

ServeConfig serve_config(const Options& options) {
  ServeConfig config;
  if (options.tiny) {
    config.capacity = 2000.0;
    config.min_resident = 8;
    config.max_resident = 16;
    config.initial_fill = 12;
    config.cycles_lo = 40;
    config.cycles_hi = 300;
    config.warmup_mixed = 40;
    config.fixed_rate = 200.0;
    config.burst = 100;
  }
  return config;
}

std::vector<std::string> daemon_args(const ServeConfig& config, const Options& options) {
  char capacity[64];
  std::snprintf(capacity, sizeof capacity, "%.17g", config.capacity);
  return {"--model", "xscale", "--capacity", capacity, "--reply-precision", "17",
          "--jobs", std::to_string(options.jobs), "--stats"};
}

struct ServeRequest {
  enum Kind { kAdmit, kRemove, kReprice, kQuery } kind = kQuery;
  FrameTask task;  ///< admit: the task; remove/reprice: id (and new penalty)
  std::string text;
  /// Resident set after the request, in the daemon's order.
  std::shared_ptr<const std::vector<FrameTask>> resident;
};

const char* kind_name(ServeRequest::Kind kind) {
  switch (kind) {
    case ServeRequest::kAdmit: return "admit";
    case ServeRequest::kRemove: return "remove";
    case ServeRequest::kReprice: return "reprice";
    case ServeRequest::kQuery: return "query";
  }
  return "?";
}

/// Seeded request stream: after the initial fill, shuffled blocks with the
/// exact mix described at next_block(). The stream never depends on replies,
/// so the daemon, the in-process replay and the checks see the same
/// requests.
class RequestStream {
 public:
  RequestStream(const ServeConfig& config, std::uint64_t seed)
      : config_(config),
        rng_(Rng::stream_seed(seed, 0x5e7e)),
        resident_(std::make_shared<std::vector<FrameTask>>()) {
    const auto model = make_model_by_name("xscale");
    work_per_cycle_ = model->max_speed() / config.capacity;
    anchor_ = penalty_anchor(*model);
  }

  const ServeRequest& at(std::size_t i) {
    while (requests_.size() <= i) generate();
    return requests_[i];
  }

 private:
  /// Kinds come in shuffled blocks of 10 with exact counts, so every
  /// window of the stream carries the same mix: 4 admit, 3 remove,
  /// 1 reprice, 2 query while the resident set fills, and 3 admit,
  /// 4 remove, 1 reprice, 2 query while it drains. The set fills to within
  /// 1/8 of the range below max_resident and drains to within 1/8 above
  /// min_resident.
  void next_block() {
    const std::size_t size = resident_->size();
    const std::size_t margin = (config_.max_resident - config_.min_resident) / 8;
    if (size >= config_.max_resident - margin) draining_ = true;
    if (size <= config_.min_resident + margin) draining_ = false;
    const int admits = draining_ ? 3 : 4;
    block_.assign(static_cast<std::size_t>(admits), ServeRequest::kAdmit);
    block_.insert(block_.end(), static_cast<std::size_t>(7 - admits), ServeRequest::kRemove);
    block_.push_back(ServeRequest::kReprice);
    block_.insert(block_.end(), 2, ServeRequest::kQuery);
    for (std::size_t i = block_.size() - 1; i > 0; --i) {
      std::swap(block_[i], block_[static_cast<std::size_t>(
                               rng_.uniform_int(0, static_cast<std::int64_t>(i)))]);
    }
    block_pos_ = 0;
  }

  void generate() {
    ServeRequest request;
    if (requests_.size() < config_.initial_fill) {
      request.kind = ServeRequest::kAdmit;
    } else {
      if (block_pos_ == block_.size()) next_block();
      request.kind = block_[block_pos_++];
    }
    char text[160];
    if (request.kind == ServeRequest::kQuery) {
      std::snprintf(text, sizeof text, "query");
      request.resident = resident_;
    } else {
      auto next = std::make_shared<std::vector<FrameTask>>(*resident_);
      if (request.kind == ServeRequest::kAdmit) {
        const Cycles cycles = rng_.uniform_int(config_.cycles_lo, config_.cycles_hi);
        const double penalty = anchor_ * static_cast<double>(cycles) * work_per_cycle_ *
                               rng_.uniform(0.3, 3.0);
        request.task = FrameTask{next_id_++, cycles, penalty};
        next->push_back(request.task);
        std::snprintf(text, sizeof text, "admit %d %lld %.17g", request.task.id,
                      static_cast<long long>(cycles), penalty);
      } else {
        const auto at = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(next->size()) - 1));
        request.task = (*next)[at];
        if (request.kind == ServeRequest::kRemove) {
          next->erase(next->begin() + static_cast<std::ptrdiff_t>(at));
          std::snprintf(text, sizeof text, "remove %d", request.task.id);
        } else {
          request.task.penalty = anchor_ * static_cast<double>(request.task.cycles) *
                                 work_per_cycle_ * rng_.uniform(0.3, 3.0);
          (*next)[at].penalty = request.task.penalty;
          std::snprintf(text, sizeof text, "reprice %d %.17g", request.task.id,
                        request.task.penalty);
        }
      }
      resident_ = next;
      request.resident = resident_;
    }
    request.text = text;
    requests_.push_back(std::move(request));
  }

  ServeConfig config_;
  Rng rng_;
  std::shared_ptr<const std::vector<FrameTask>> resident_;
  std::vector<ServeRequest> requests_;
  std::vector<ServeRequest::Kind> block_;
  std::size_t block_pos_ = 0;
  bool draining_ = false;
  int next_id_ = 1;
  double work_per_cycle_ = 0.0;
  double anchor_ = 0.0;
};

/// Send/receive record of one request sent to the daemon.
struct Exchange {
  double due = 0, sent = 0, received = -1;  ///< seconds since the session epoch
  std::string reply;
};

/// Pins the calling thread to the CPUs of `mask`; false when unsupported.
bool pin_thread(const cpu_set_t& mask) { return sched_setaffinity(0, sizeof mask, &mask) == 0; }

/// With at least 4 CPUs, the daemon runs on the first half of the CPUs this
/// process may use and the client on the second half, so the scheduler
/// cannot stack the daemon's pump and the client's threads on one CPU in
/// some runs and not in others. The daemon inherits the mask set around
/// its spawn.
class CpuSplit {
 public:
  CpuSplit() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 4) return;
    all_ = all;
    CPU_ZERO(&daemon_);
    CPU_ZERO(&client_);
    const int half = CPU_COUNT(&all) / 2;
    int seen = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &all)) continue;
      CPU_SET(cpu, seen++ < half ? &daemon_ : &client_);
    }
    enabled_ = true;
  }
  bool enabled() const { return enabled_; }
  const cpu_set_t& daemon() const { return daemon_; }
  const cpu_set_t& client() const { return client_; }
  const cpu_set_t& all() const { return all_; }

 private:
  bool enabled_ = false;
  cpu_set_t daemon_{}, client_{}, all_{};
};

/// One daemon session: requests go out in stream order, replies come back
/// in order. Latency is measured from each request's due time.
class ServeSessionClient {
 public:
  ServeSessionClient(const Options& options, const ServeConfig& config, RequestStream& stream)
      : spawn_pinned_(split_.enabled() && pin_thread(split_.daemon())),
        child_(options.serve_binary, daemon_args(config, options)),
        stream_(stream) {
    if (spawn_pinned_) pin_thread(split_.client());
  }

  /// Sends requests [next, next + count) at `rate` (0: back to back) and
  /// reads their replies. False when a reply is missing.
  bool run(std::size_t count, double rate) {
    const std::size_t begin = exchanges_.size();
    exchanges_.resize(begin + count);
    for (std::size_t i = 0; i < count; ++i) stream_.at(begin + i);  // generate before timing
    const double start = now() + 0.002;
    std::thread sender([&] {
      for (std::size_t i = 0; i < count; ++i) {
        Exchange& x = exchanges_[begin + i];
        x.due = rate > 0.0 ? start + static_cast<double>(i) / rate : now();
        if (rate > 0.0) sleep_until(x.due);
        x.sent = now();
        if (!child_.send_frame(stream_.at(begin + i).text)) break;
      }
    });
    bool ok = true;
    for (std::size_t i = 0; i < count; ++i) {
      Exchange& x = exchanges_[begin + i];
      if (!child_.read_frame(x.reply, 20.0)) {
        ok = false;
        break;
      }
      x.received = now();
    }
    if (!ok) child_.kill();  // a blocked sender then fails with EPIPE
    sender.join();
    return ok;
  }

  bool ping() {
    std::string reply;
    return child_.send_frame("ping") && child_.read_frame(reply, 20.0) && reply == "ok ping";
  }
  /// Ends the session and gives the calling thread all its CPUs back.
  ChildExit finish() {
    if (spawn_pinned_) pin_thread(split_.all());
    return child_.finish();
  }
  const std::vector<Exchange>& exchanges() const { return exchanges_; }
  double now() const { return seconds_between(epoch_, Clock::now()); }

 private:
  void sleep_until(double t) const {
    std::this_thread::sleep_until(epoch_ + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(t)));
  }

  CpuSplit split_;
  bool spawn_pinned_;
  Child child_;
  RequestStream& stream_;
  std::vector<Exchange> exchanges_;
  Clock::time_point epoch_ = Clock::now();
};

std::vector<double> latencies_ms(const std::vector<Exchange>& xs, std::size_t begin,
                                 std::size_t end) {
  std::vector<double> out;
  for (std::size_t i = begin; i < end; ++i) out.push_back(1e3 * (xs[i].received - xs[i].due));
  return out;
}

/// Value of `key=` in a reply, or "".
std::string field(const std::string& reply, const std::string& key) {
  const std::string needle = " " + key + "=";
  const std::size_t at = reply.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t from = at + needle.size();
  return reply.substr(from, reply.find(' ', from) - from);
}

/// Checks every reply against a cold ExactDpSolver solve of the resident
/// set it answers (outside any timed window).
void check_replies(const Options& options, const ServeConfig& config, RequestStream& stream,
                   const std::vector<Exchange>& xs, Result& result) {
  const auto model = make_model_by_name("xscale");
  const EnergyCurve curve(*model, 1.0, IdleDiscipline::kDormantEnable);
  const double work_per_cycle = model->max_speed() / config.capacity;
  // Every resident set lives on one platform, so one memo serves all cold
  // solves; memoized energies are bit-identical to computed ones.
  const auto memo = std::make_shared<EnergyMemo>();
  std::vector<char> ok(xs.size(), 0);
  for (std::size_t i = 0; i < xs.size(); ++i) stream.at(i);
  parallel_for(
      xs.size(),
      [&](std::size_t i) {
        const ServeRequest& request = stream.at(i);
        const std::string& reply = xs[i].reply;
        const std::string head = std::string("ok ") + kind_name(request.kind) + " ";
        if (xs[i].received < 0 || reply.compare(0, head.size(), head) != 0) return;
        const std::vector<FrameTask>& resident = *request.resident;
        RejectionProblem problem(FrameTaskSet(resident), curve, work_per_cycle, 1);
        problem.attach_energy_memo(memo);
        const RejectionSolution cold = ExactDpSolver().solve(problem);
        double energy = cold.energy;
        if (static_cast<long>(i) == options.corrupt_reply) energy = std::nextafter(energy, 1e300);
        bool good = field(reply, "accepted") == std::to_string(cold.accepted_count()) + "/" +
                                                     std::to_string(resident.size()) &&
                    std::strtod(field(reply, "energy").c_str(), nullptr) == energy &&
                    std::strtod(field(reply, "penalty").c_str(), nullptr) == cold.penalty;
        if (request.kind == ServeRequest::kQuery) {
          good = good && field(reply, "resident") == std::to_string(resident.size());
        } else {
          good = good && field(reply, "id") == std::to_string(request.task.id);
        }
        if (request.kind == ServeRequest::kAdmit || request.kind == ServeRequest::kReprice) {
          std::size_t index = 0;
          while (index < resident.size() && resident[index].id != request.task.id) ++index;
          good = good && index < resident.size() &&
                 field(reply, "verdict") == (cold.accepted[index] ? "accept" : "reject");
        }
        ok[i] = good ? 1 : 0;
      },
      options.jobs);
  std::uint64_t bad = 0;
  for (const char v : ok) bad += v ? 0 : 1;
  result.checks += xs.size();
  result.failed += bad;
  if (bad > 0) result.notes.push_back("FAILED: " + std::to_string(bad) + " serve replies wrong or missing");
}

/// Saturated throughput: requests answered per second while the pipe is
/// kept full (back-to-back bursts of config.burst requests), as the 10th
/// percentile over the bursts that fit in `budget_s`: the rate the daemon
/// sustains in nine bursts out of ten. Above it the backlog grows.
double saturated_throughput(ServeSessionClient& client, const ServeConfig& config,
                            double budget_s, std::size_t& bursts_run) {
  const auto begin = Clock::now();
  std::vector<double> rates;
  while (rates.size() < 3 || seconds_between(begin, Clock::now()) < budget_s) {
    const std::size_t first = client.exchanges().size();
    if (!client.run(config.burst, 0.0)) return 0.0;
    const std::vector<Exchange>& xs = client.exchanges();
    rates.push_back(static_cast<double>(config.burst) / (xs.back().received - xs[first].sent));
  }
  bursts_run = rates.size();
  return percentile(rates, 0.10);
}

/// Highest rate on a ladder at which a step's p90 latency stays under the
/// limit (no growing backlog included: the last third of the step must meet
/// it too). The ladder climbs from the fixed rate in 4 % steps until 1.2 X,
/// where X is the saturated throughput; a failing step is retried once, and
/// the climb stops at the first step that fails twice. Each step is logged.
double max_rate_ladder(ServeSessionClient& client, const ServeConfig& config, double budget_s,
                       std::vector<std::string>& log) {
  std::size_t bursts = 0;
  const double saturated = saturated_throughput(client, config, 0.0, bursts);
  const double step_s = budget_s / 16.0;
  const auto step_passes = [&](double rate) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      const std::size_t first = client.exchanges().size();
      const auto count = static_cast<std::size_t>(std::max(100.0, rate * step_s));
      if (!client.run(count, rate)) return false;
      // p90 of each third of the step: the median third must meet the limit
      // (robust to one burst of host noise), and so must the last third (a
      // growing backlog makes the last third the worst).
      std::vector<double> thirds;
      for (std::size_t t = 0; t < 3; ++t) {
        thirds.push_back(percentile(
            latencies_ms(client.exchanges(), first + t * count / 3, first + (t + 1) * count / 3),
            0.90));
      }
      const bool pass =
          median(thirds) <= config.p90_limit_ms && thirds.back() <= config.p90_limit_ms;
      char line[160];
      std::snprintf(line, sizeof line, "ladder %.0f req/s: p90 by thirds %.3f %.3f %.3f ms -> %s",
                    rate, thirds[0], thirds[1], thirds[2], pass ? "pass" : "fail");
      log.push_back(line);
      if (pass) return true;
    }
    return false;
  };
  double best = 0.0;
  for (double rate = config.fixed_rate; rate < 1.2 * saturated && step_passes(rate);
       rate *= 1.04) {
    best = rate;
  }
  return best;
}

}  // namespace

Result run_admission_serve(const Options& options, SpanRecorder* trace) {
  Result result;
  const ServeConfig config = serve_config(options);
  RequestStream stream(config, options.seed);
  const std::size_t warmup = config.initial_fill + config.warmup_mixed;
  // The untraced run spends its budget on saturation bursts; the traced run
  // measures latency at the fixed rate and climbs the max-rate ladder.
  const std::size_t fixed_count =
      trace != nullptr
          ? static_cast<std::size_t>(config.fixed_rate * options.seconds * config.fixed_share)
          : 0;

  ServeSessionClient client(options, config, stream);
  std::size_t bursts = 0;
  std::vector<std::string> ladder_log;
  double saturated = 0.0, max_rate = 0.0;
  bool ok = client.ping() && client.run(warmup, 0.0);
  if (ok && trace == nullptr) {
    saturated = saturated_throughput(client, config, options.seconds, bursts);
  } else if (ok) {
    ok = client.run(fixed_count, config.fixed_rate);
    if (ok) {
      max_rate = max_rate_ladder(client, config, options.seconds * (1.0 - config.fixed_share),
                                 ladder_log);
    }
  }
  const ChildExit exit = client.finish();
  result.check(ok && exit.status == 0, "daemon failed or a reply is missing");
  const std::vector<Exchange>& xs = client.exchanges();
  check_replies(options, config, stream, xs, result);

  if (trace == nullptr) {
    result.set("instances_per_s", saturated, "1/s");
    result.set("peak_rss_mb", exit.peak_rss_mb, "MB");
    result.notes.push_back("instances_per_s = saturated throughput, 10th percentile of " +
                           std::to_string(bursts) + " bursts of " + std::to_string(config.burst) +
                           " back-to-back requests");
    // Objective quality of the served replies against the fractional bound.
    const auto model = make_model_by_name("xscale");
    const EnergyCurve curve(*model, 1.0, IdleDiscipline::kDormantEnable);
    const double wpc = model->max_speed() / config.capacity;
    double sum = 0.0;
    std::size_t terms = 0;
    for (std::size_t i = warmup; i < xs.size(); i += 16) {
      const double objective = std::strtod(field(xs[i].reply, "objective").c_str(), nullptr);
      const double bound = fractional_lower_bound(
          RejectionProblem(FrameTaskSet(*stream.at(i).resident), curve, wpc, 1));
      sum += ratio_or_zero(objective, bound);
      ++terms;
    }
    result.set("objective_ratio", sum / static_cast<double>(std::max<std::size_t>(terms, 1)),
               "ratio");
    return result;
  }

  // Traced: daemon-side figures from the fixed-rate phase above, then an
  // in-process replay of the same stream through the protocol, the session
  // and a separate DeltaSolver, each call spanned with its request id.
  const auto fixed = latencies_ms(xs, warmup, warmup + fixed_count);
  std::vector<double> lag, queue;
  for (std::size_t i = warmup; i < warmup + fixed_count; ++i) {
    lag.push_back(1e3 * (xs[i].sent - xs[i].due));
    queue.push_back(i > warmup ? 1e3 * std::max(0.0, xs[i - 1].received - xs[i].sent) : 0.0);
  }
  result.notes.push_back(latency_note(
      "open loop at " + std::to_string(static_cast<long>(config.fixed_rate)) +
          " req/s, latency from due time",
      fixed));
  result.set("serve.generator_lag_ms", percentile(lag, 0.99), "ms");
  result.set("serve.latency_p50_ms", median(fixed), "ms");
  result.set("serve.latency_p90_ms", percentile(fixed, 0.90), "ms");
  result.set("serve.latency_p99_ms", percentile(fixed, 0.99), "ms");
  result.set("serve.max_rps", max_rate, "1/s");
  result.notes.insert(result.notes.end(), ladder_log.begin(), ladder_log.end());
  double queue_sum = 0.0;
  for (const double q : queue) queue_sum += q;
  result.set("serve.queue_wait_ms", queue_sum / static_cast<double>(std::max<std::size_t>(queue.size(), 1)), "ms");
  {
    const std::size_t at = exit.stderr_text.find("requests=");
    const std::size_t bt = exit.stderr_text.find("batches=");
    const double requests = at == std::string::npos ? 0 : std::atof(exit.stderr_text.c_str() + at + 9);
    const double batches = bt == std::string::npos ? 0 : std::atof(exit.stderr_text.c_str() + bt + 8);
    result.set("serve.frames_per_batch", ratio_or_zero(requests, batches), "ratio");
  }

  const std::size_t total = warmup + fixed_count;
  const auto model = make_model_by_name("xscale");
  const EnergyCurve curve(*model, 1.0, IdleDiscipline::kDormantEnable);
  const double wpc = model->max_speed() / config.capacity;
  const auto replay = [&](SpanRecorder* rec, std::size_t& mismatches) {
    ServeOptions serve_options;
    serve_options.reply_precision = 17;
    ServeSession session(curve, wpc, serve_options);
    std::stringstream wire;
    std::string payload, reply;
    for (std::size_t i = 0; i < total; ++i) {
      const long id = static_cast<long>(i);
      Span request(rec, "serve.request", id);
      {
        Span span(rec, "serve.protocol", id);
        write_frame(wire, stream.at(i).text);
        read_frame(wire, payload);
      }
      std::string_view answer;
      {
        Span span(rec, "serve.handle", id);
        answer = session.handle(payload);
      }
      {
        Span span(rec, "serve.protocol", id);
        write_frame(wire, answer);
        read_frame(wire, reply);
      }
      if (reply != xs[i].reply) ++mismatches;
    }
    return session.solver().delta_hits();
  };
  std::size_t mismatches = 0;
  auto start = Clock::now();
  replay(nullptr, mismatches);
  const double plain = seconds_between(start, Clock::now());

  obs::reset_all();
  const std::size_t mark = trace->mark();
  start = Clock::now();
  {
    Span root(trace, "serve.replay");
    replay(trace, mismatches);
  }
  const double traced = seconds_between(start, Clock::now());
  const obs::Registry reg = obs::global_snapshot();
  set_registry_metrics(reg, result);
  result.check(mismatches == 0, "in-process replies differ from the daemon's");

  // Direct DeltaSolver calls on the same stream.
  DeltaSolver delta(curve, wpc);
  std::vector<double> admit_us, remove_us, reprice_us, delta_us(total, 0.0);
  {
    Span root(trace, "delta.replay");
    for (std::size_t i = 0; i < total; ++i) {
      const ServeRequest& r = stream.at(i);
      if (r.kind == ServeRequest::kQuery) continue;
      const auto t0 = Clock::now();
      {
        Span span(trace, std::string("delta.") + kind_name(r.kind), static_cast<long>(i));
        if (r.kind == ServeRequest::kAdmit) delta.admit(r.task);
        else if (r.kind == ServeRequest::kRemove) delta.remove(r.task.id);
        else delta.reprice(r.task.id, r.task.penalty);
      }
      delta_us[i] = 1e6 * seconds_between(t0, Clock::now());
      (r.kind == ServeRequest::kAdmit    ? admit_us
       : r.kind == ServeRequest::kRemove ? remove_us
                                         : reprice_us)
          .push_back(delta_us[i]);
    }
  }
  const auto handle = trace->durations_s("serve.handle", mark);
  std::vector<double> handle_us, self_us;
  for (std::size_t i = 0; i < handle.size(); ++i) {
    handle_us.push_back(1e6 * handle[i]);
    if (i >= warmup) self_us.push_back(1e6 * handle[i] - delta_us[i]);
  }
  const std::vector<double> fixed_handle(handle_us.begin() + static_cast<std::ptrdiff_t>(warmup),
                                         handle_us.end());
  const double protocol_s = trace->total_s("serve.protocol", mark);
  result.set("serve.protocol_us", 1e6 * protocol_s / static_cast<double>(total), "us");
  result.set("serve.handle_us.p50", median(fixed_handle), "us");
  result.set("serve.handle_us.p99", percentile(fixed_handle, 0.99), "us");
  result.set("delta.admit_us.p50", median(admit_us), "us");
  result.set("delta.admit_us.p99", percentile(admit_us, 0.99), "us");
  result.set("delta.remove_us.p50", median(remove_us), "us");
  result.set("delta.remove_us.p99", percentile(remove_us, 0.99), "us");
  result.set("delta.reprice_us.p50", median(reprice_us), "us");
  result.set("delta.reprice_us.p99", percentile(reprice_us, 0.99), "us");
  result.set("serve.session_self_us", median(self_us), "us");
  result.set("serve.transport_us", 1e3 * median(fixed) - median(fixed_handle), "us");
  result.set("delta.hit_ratio",
             ratio_or_zero(static_cast<double>(delta.delta_hits()),
                           static_cast<double>(delta.delta_hits() + delta.cold_falls())),
             "ratio");
  const double wall = trace->total_s("serve.replay", mark);
  const double handle_total = trace->total_s("serve.handle", mark);
  result.set("trace.wall_s", wall, "s");
  result.set("serve.handle_s", handle_total, "s");
  result.set("serve.protocol_s", protocol_s, "s");
  result.set("trace.unattributed_s", wall - handle_total - protocol_s, "s");
  result.set("trace.overhead_frac", traced / plain - 1.0, "ratio");
  return result;
}

void setup_workload(const Options& options) {
  // Everything a workload builds before its first timed pass: the worker
  // pool and the input generators.
  parallel_for(static_cast<std::size_t>(options.jobs), [](std::size_t) {}, options.jobs);
  if (options.workload == "paper_sweep") {
    const Grid grid = paper_grid(options);
    make_lineup(grid.solvers);
  } else if (options.workload == "capacity_plan") {
    const CapacityPlan plan = capacity_plan(options);
    make_lineup(plan.grid.solvers);
  } else if (options.workload == "manycore_mp") {
    manycore_plan(options);
  }
}

std::vector<std::string> serve_probe_args(const Options& options) {
  return daemon_args(serve_config(options), options);
}

}  // namespace perfbench
