#include "retask/verify/reference.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

namespace retask {

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

  std::vector<std::size_t> order(problem.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return problem.tasks()[a].cycles > problem.tasks()[b].cycles;
  });
  for (const std::size_t i : order) {
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

}  // namespace retask
