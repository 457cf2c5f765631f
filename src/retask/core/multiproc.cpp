#include "retask/core/multiproc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "retask/cache/energy_memo.hpp"
#include "retask/common/error.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/sched/partition.hpp"

namespace retask {
namespace {

std::vector<std::size_t> by_descending_cycles(const RejectionProblem& problem) {
  std::vector<std::size_t> order(problem.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return problem.tasks()[a].cycles > problem.tasks()[b].cycles;
  });
  return order;
}

}  // namespace

RejectionSolution MultiProcLtfRejectSolver::solve(const RejectionProblem& problem) const {
  const auto m = static_cast<std::size_t>(problem.processor_count());

  // Largest-Task-First pre-partition of every task (rejection comes later).
  std::vector<double> weights(problem.size());
  for (std::size_t i = 0; i < problem.size(); ++i) {
    weights[i] = static_cast<double>(problem.tasks()[i].cycles);
  }
  const Partition partition = partition_items(weights, problem.processor_count(),
                                              PartitionPolicy::kLargestFirst);

  // Bucket the task indices by bin in one pass (index order preserved per
  // bin, the order the per-bin scan used to produce).
  std::vector<std::vector<std::size_t>> bin_tasks(m);
  for (std::size_t i = 0; i < problem.size(); ++i) {
    if (partition.bin_of[i] >= 0) {
      bin_tasks[static_cast<std::size_t>(partition.bin_of[i])].push_back(i);
    }
  }

  // Optimal rejection per processor via the exact DP on the subproblem.
  std::vector<bool> accepted(problem.size(), false);
  std::vector<int> processor_of(problem.size(), -1);
  const ExactDpSolver dp;
  for (std::size_t p = 0; p < m; ++p) {
    if (bin_tasks[p].empty()) continue;
    std::vector<FrameTask> local;
    local.reserve(bin_tasks[p].size());
    for (const std::size_t i : bin_tasks[p]) local.push_back(problem.tasks()[i]);
    const RejectionProblem sub(FrameTaskSet(std::move(local)), problem.curve(),
                               problem.work_per_cycle(), 1);
    const RejectionSolution sub_solution = dp.solve(sub);
    for (std::size_t k = 0; k < bin_tasks[p].size(); ++k) {
      if (sub_solution.accepted[k]) {
        accepted[bin_tasks[p][k]] = true;
        processor_of[bin_tasks[p][k]] = static_cast<int>(p);
      }
    }
  }
  return make_solution(problem, std::move(accepted), std::move(processor_of));
}

RejectionSolution MultiProcGreedySolver::solve(const RejectionProblem& problem) const {
  const auto m = static_cast<std::size_t>(problem.processor_count());
  const Cycles capacity = problem.cycle_capacity();
  std::vector<Cycles> loads(m, 0);
  std::vector<bool> accepted(problem.size(), false);
  std::vector<int> processor_of(problem.size(), -1);

  // The placement and improvement passes probe E(load) millions of times at
  // many-core scale, and every load is a cycle count in
  // [0, min(capacity, total cycles)]. The solve is serial, so a flat table
  // over that range, filled on first touch (NaN = not yet evaluated),
  // replaces a memo on the hot scan: a lookup is one indexed load, and the
  // table replays the bits computed once, so caching cannot change a
  // solution bit. A range wider than EnergyMemo::kDenseLimit (a huge
  // capacity) uses a map instead. Misses go through energy_of_cycles, so a
  // memo the problem carries (exp/mp_scale_sweep attaches one per sweep
  // point, backed by a prefilled EnergyRow) serves them instead of the
  // curve; it replays the same expression's bits.
  const Cycles top = std::min(capacity, problem.tasks().total_cycles());
  std::vector<double> table(
      top >= 0 && static_cast<std::size_t>(top) < EnergyMemo::kDenseLimit
          ? static_cast<std::size_t>(top) + 1
          : 0,
      std::numeric_limits<double>::quiet_NaN());
  std::unordered_map<Cycles, double> sparse;
  std::uint64_t probe_misses = 0;  // distinct loads evaluated
  const auto energy_at = [&](Cycles cycles) {
    const auto w = static_cast<std::size_t>(cycles);
    if (w < table.size()) {
      double& energy = table[w];
      if (std::isnan(energy)) {
        ++probe_misses;
        energy = problem.energy_of_cycles(cycles);
      }
      return energy;
    }
    const auto [it, fresh] = sparse.try_emplace(cycles, 0.0);
    if (fresh) {
      ++probe_misses;
      it->second = problem.energy_of_cycles(cycles);
    }
    return it->second;
  };

  // E(load_p) per PE, refreshed whenever load_p changes, so a probe is one
  // table read and one subtract. Every load a PE moves to was probed just
  // before, so the refresh evaluates nothing new; E(0) is seeded only when
  // some task fits at all (otherwise no probe ever runs). mp.probe_evals
  // keeps its meaning: the two E evaluations of each marginal-cost probe.
  std::vector<double> pe_energy(m, 0.0);
  if (m > 0 && std::any_of(problem.tasks().tasks().begin(), problem.tasks().tasks().end(),
                           [&](const FrameTask& t) { return t.cycles <= capacity; })) {
    pe_energy.assign(m, energy_at(0));
  }
  std::uint64_t probes = 0;
  // Cheapest of {reject at `penalty`, best PE} for a task of `cycles`;
  // strict < keeps the lowest PE index on ties.
  const auto best_placement = [&](Cycles cycles, double penalty, double& best_cost) {
    best_cost = penalty;
    int best_proc = -1;
    for (std::size_t p = 0; p < m; ++p) {
      if (loads[p] + cycles > capacity) continue;
      ++probes;
      const double delta = energy_at(loads[p] + cycles) - pe_energy[p];
      if (delta < best_cost) {
        best_cost = delta;
        best_proc = static_cast<int>(p);
      }
    }
    return best_proc;
  };
  const auto place = [&](std::size_t i, int p) {
    accepted[i] = p >= 0;
    processor_of[i] = p;
    if (p < 0) return;
    const auto q = static_cast<std::size_t>(p);
    loads[q] += problem.tasks()[i].cycles;
    pe_energy[q] = energy_at(loads[q]);
  };

  // Greedy placement in descending size: cheapest of {reject, best proc}.
  for (const std::size_t i : by_descending_cycles(problem)) {
    const FrameTask& task = problem.tasks()[i];
    double best_cost = 0.0;
    place(i, best_placement(task.cycles, task.penalty, best_cost));
  }

  // Improvement passes: re-place each task where it is cheapest now.
  std::uint64_t moves_applied = 0;
  for (int pass = 0; pass < 3; ++pass) {
    bool changed = false;
    for (std::size_t i = 0; i < problem.size(); ++i) {
      const FrameTask& task = problem.tasks()[i];
      // Remove i from its current location.
      double current_cost = task.penalty;
      if (accepted[i]) {
        const auto p = static_cast<std::size_t>(processor_of[i]);
        const double with_task = pe_energy[p];
        loads[p] -= task.cycles;
        pe_energy[p] = energy_at(loads[p]);
        ++probes;
        current_cost = with_task - pe_energy[p];
      }
      double best_cost = 0.0;
      const int best_proc = best_placement(task.cycles, task.penalty, best_cost);
      if (best_cost + 1e-12 < current_cost) {
        changed = true;
        ++moves_applied;
      }
      place(i, best_proc);
    }
    if (!changed) break;
  }
  RETASK_COUNT("mp.probe_evals", 2 * probes);
  RETASK_COUNT("mp.probe_misses", probe_misses);
  RETASK_COUNT("mp.moves_applied", moves_applied);
  return make_solution(problem, std::move(accepted), std::move(processor_of));
}

RejectionSolution MultiProcRandSolver::solve(const RejectionProblem& problem) const {
  const auto m = static_cast<std::size_t>(problem.processor_count());
  std::vector<Cycles> loads(m, 0);
  std::vector<bool> accepted(problem.size(), false);
  std::vector<int> processor_of(problem.size(), -1);

  for (std::size_t i = 0; i < problem.size(); ++i) {
    const FrameTask& task = problem.tasks()[i];
    const auto lightest = std::min_element(loads.begin(), loads.end());
    const auto p = static_cast<std::size_t>(lightest - loads.begin());
    if (loads[p] + task.cycles <= problem.cycle_capacity()) {
      accepted[i] = true;
      processor_of[i] = static_cast<int>(p);
      loads[p] += task.cycles;
    }
  }
  return make_solution(problem, std::move(accepted), std::move(processor_of));
}

}  // namespace retask
