#include "retask/exp/mp_scale_sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>

#include "retask/cache/energy_memo.hpp"
#include "retask/cache/sweep.hpp"
#include "retask/common/error.hpp"
#include "retask/common/parallel.hpp"
#include "retask/core/algorithm_registry.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/core/solution.hpp"

namespace retask {
namespace {

/// Per-instance slot, filled by the sharded construction pass and reduced
/// in instance order.
struct InstanceSlot {
  std::unique_ptr<RejectionProblem> problem;
  double bound = 0.0;
};

}  // namespace

MpScaleSweepResult run_mp_scale_sweep(const MpScaleSweepConfig& config, const PowerModel& model,
                                      int jobs) {
  require(config.instances >= 1, "run_mp_scale_sweep: at least one instance required");
  require(!config.solvers.empty(), "run_mp_scale_sweep: empty solver lineup");
  require(config.scenario.processor_count >= 1,
          "run_mp_scale_sweep: processor_count must be >= 1");

  const auto instances = static_cast<std::size_t>(config.instances);
  std::vector<InstanceSlot> slots(instances);
  parallel_for(
      instances,
      [&](std::size_t k) {
        ScenarioConfig scenario = config.scenario;
        scenario.seed = config.seed0 + k;
        slots[k].problem = std::make_unique<RejectionProblem>(make_scenario(scenario, model));
        if (config.record_bound_gap) {
          slots[k].bound = multiproc_lower_bound(*slots[k].problem);
        }
      },
      jobs);

  MpScaleSweepResult result;
  if (config.record_bound_gap) {
    for (const InstanceSlot& slot : slots) result.bound.add(slot.bound);
  }

  // One energy row for the point: every instance shares the platform, so
  // every solve of every solver reads the same E(w) row. It is filled
  // across the pool before the timed loops, so no solver inherits values
  // another one computed and the per-solver throughputs stay comparable.
  // A platform that varies with the seed keeps each solver's private path.
  const auto row_start = std::chrono::steady_clock::now();
  const RejectionProblem& first = *slots.front().problem;
  const bool one_platform = std::all_of(slots.begin(), slots.end(), [&](const InstanceSlot& slot) {
    return same_platforms(first, *slot.problem);
  });
  if (const auto row = one_platform ? EnergyMemo::make_row(first.cycle_capacity()) : nullptr) {
    const auto memo = std::make_shared<EnergyMemo>();
    memo->attach_row(row);
    parallel_for(
        (row->width() + 63) / 64,
        [&](std::size_t c) {
          double values[64];
          row->fill(c * 64, row->inside(c * 64, ~std::uint64_t{0}), values,
                    [&](const Cycles* cycles, double* out, std::size_t n) {
                      first.curve().energy_cycles_batch(first.work_per_cycle(), cycles, out, n);
                    });
        },
        jobs);
    for (const InstanceSlot& slot : slots) slot.problem->attach_energy_memo(memo);
  }
  result.row_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - row_start).count();

  // The timed loops run serially, one solver over all instances: the solver
  // under test owns the whole pool during its solve, so the throughput
  // numbers measure each solver at full width.
  for (const std::string& name : config.solvers) {
    MpScaleSolverStats stats;
    stats.solver = name;
    const std::unique_ptr<RejectionSolver> solver = make_solver(name);
    const auto start = std::chrono::steady_clock::now();
    std::vector<RejectionSolution> solutions;
    solutions.reserve(instances);
    for (const InstanceSlot& slot : slots) solutions.push_back(solver->solve(*slot.problem));
    stats.solve_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    stats.instances_per_sec =
        stats.solve_seconds > 0.0 ? static_cast<double>(instances) / stats.solve_seconds : 0.0;

    for (std::size_t k = 0; k < instances; ++k) {
      const RejectionSolution& solution = solutions[k];
      if (config.validate) check_solution(*slots[k].problem, solution);
      const double objective = solution.objective();
      stats.objective.add(objective);
      stats.acceptance.add(solution.acceptance_ratio());
      if (config.record_bound_gap) {
        const double bound = slots[k].bound;
        // Same convention as run_comparison: a zero reference with a zero
        // objective is a perfect ratio, a nonzero objective is pinned at 2.
        const double ratio = bound > 0.0 ? objective / bound : (objective > 0.0 ? 2.0 : 1.0);
        require(ratio >= 1.0 - 1e-6, "run_mp_scale_sweep: solver beat the Lagrangian bound");
        stats.bound_ratio.add(ratio);
        stats.gaps.push_back(ratio - 1.0);
      }
    }
    result.solvers.push_back(std::move(stats));
  }
  return result;
}

}  // namespace retask
