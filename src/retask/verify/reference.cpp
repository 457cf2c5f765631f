#include "retask/verify/reference.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "retask/core/exact_dp.hpp"

namespace retask {
namespace {

std::vector<std::size_t> by_descending_cycles(const RejectionProblem& problem,
                                              std::vector<std::size_t> order) {
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return problem.tasks()[a].cycles > problem.tasks()[b].cycles;
  });
  return order;
}

}  // namespace

RejectionSolution mp_greedy_reference(const RejectionProblem& problem) {
  const auto m = static_cast<std::size_t>(problem.processor_count());
  std::vector<Cycles> loads(m, 0);
  std::vector<bool> accepted(problem.size(), false);
  std::vector<int> processor_of(problem.size(), -1);
  const auto energy_at = [&](Cycles cycles) {
    return problem.curve().energy(problem.work_per_cycle() * static_cast<double>(cycles));
  };
  // Cheapest of {reject, best processor} for `task` at the current loads.
  const auto best_placement = [&](const FrameTask& task, double& best_cost) {
    best_cost = task.penalty;
    int best_proc = -1;
    for (std::size_t p = 0; p < m; ++p) {
      if (loads[p] + task.cycles > problem.cycle_capacity()) continue;
      const double delta = energy_at(loads[p] + task.cycles) - energy_at(loads[p]);
      if (delta < best_cost) {
        best_cost = delta;
        best_proc = static_cast<int>(p);
      }
    }
    return best_proc;
  };

  std::vector<std::size_t> all(problem.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  for (const std::size_t i : by_descending_cycles(problem, all)) {
    const FrameTask& task = problem.tasks()[i];
    double best_cost = 0.0;
    const int best_proc = best_placement(task, best_cost);
    if (best_proc >= 0) {
      accepted[i] = true;
      processor_of[i] = best_proc;
      loads[static_cast<std::size_t>(best_proc)] += task.cycles;
    }
  }

  for (int pass = 0; pass < 3; ++pass) {
    bool changed = false;
    for (std::size_t i = 0; i < problem.size(); ++i) {
      const FrameTask& task = problem.tasks()[i];
      double current_cost = task.penalty;
      if (accepted[i]) {
        const auto p = static_cast<std::size_t>(processor_of[i]);
        loads[p] -= task.cycles;
        current_cost = energy_at(loads[p] + task.cycles) - energy_at(loads[p]);
      }
      double best_cost = 0.0;
      const int best_proc = best_placement(task, best_cost);
      if (best_cost + 1e-12 < current_cost) changed = true;
      accepted[i] = best_proc >= 0;
      processor_of[i] = best_proc;
      if (best_proc >= 0) loads[static_cast<std::size_t>(best_proc)] += task.cycles;
    }
    if (!changed) break;
  }
  return make_solution(problem, std::move(accepted), std::move(processor_of));
}

RejectionSolution mp_scale_reference(const RejectionProblem& problem) {
  const std::size_t n = problem.size();
  const auto m = static_cast<std::size_t>(problem.processor_count());
  const Cycles capacity = problem.cycle_capacity();
  std::vector<Cycles> loads(m, 0);
  std::vector<int> pe_of(n, -1);
  const auto energy_at = [&](Cycles cycles) {
    return problem.curve().energy(problem.work_per_cycle() * static_cast<double>(cycles));
  };
  const auto least_loaded = [&] {
    std::size_t best = 0;
    for (std::size_t p = 1; p < m; ++p) {
      if (loads[p] < loads[best]) best = p;
    }
    return best;
  };
  // Places `task` by the rule; returns its marginal energy or its penalty.
  const auto place = [&](std::size_t i) {
    const FrameTask& task = problem.tasks()[i];
    const std::size_t p = least_loaded();
    pe_of[i] = -1;
    if (loads[p] + task.cycles > capacity) return task.penalty;
    const double marginal = energy_at(loads[p] + task.cycles) - energy_at(loads[p]);
    if (!(marginal < task.penalty)) return task.penalty;
    pe_of[i] = static_cast<int>(p);
    loads[p] += task.cycles;
    return marginal;
  };

  std::vector<std::size_t> placeable;
  for (std::size_t i = 0; i < n; ++i) {
    if (problem.tasks()[i].cycles <= capacity) placeable.push_back(i);
  }
  const std::vector<std::size_t> order = by_descending_cycles(problem, placeable);
  for (const std::size_t i : order) place(i);
  for (int pass = 0; pass < 3; ++pass) {
    bool changed = false;
    for (const std::size_t i : placeable) {
      const FrameTask& task = problem.tasks()[i];
      double current_cost = task.penalty;
      if (pe_of[i] >= 0) {
        const auto p = static_cast<std::size_t>(pe_of[i]);
        loads[p] -= task.cycles;
        current_cost = energy_at(loads[p] + task.cycles) - energy_at(loads[p]);
      }
      if (place(i) + 1e-12 < current_cost) changed = true;
    }
    if (!changed) break;
  }
  for (const std::size_t i : order) {
    if (pe_of[i] >= 0) continue;
    const std::size_t p = least_loaded();
    loads[p] += problem.tasks()[i].cycles;
    pe_of[i] = static_cast<int>(p);
  }

  std::vector<bool> accepted(n, false);
  std::vector<int> processor_of(n, -1);
  const ExactDpSolver dp;
  for (std::size_t p = 0; p < m; ++p) {
    std::vector<std::size_t> members;
    std::vector<FrameTask> local;
    for (std::size_t i = 0; i < n; ++i) {
      if (pe_of[i] == static_cast<int>(p)) {
        members.push_back(i);
        local.push_back(problem.tasks()[i]);
      }
    }
    if (members.empty()) continue;
    const RejectionSolution sol = dp.solve(RejectionProblem(
        FrameTaskSet(std::move(local)), problem.curve(), problem.work_per_cycle(), 1));
    for (std::size_t k = 0; k < members.size(); ++k) {
      if (sol.accepted[k]) {
        accepted[members[k]] = true;
        processor_of[members[k]] = static_cast<int>(p);
      }
    }
  }
  return make_solution(problem, std::move(accepted), std::move(processor_of));
}

}  // namespace retask
