#include "retask/core/exact_dp.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "retask/cache/scratch.hpp"
#include "retask/core/dp_select.hpp"
#include "retask/cache/sweep.hpp"
#include "retask/common/bit_matrix.hpp"
#include "retask/common/error.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/obs/trace.hpp"
#include "retask/simd/kernels.hpp"

namespace retask {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Fills the knapsack table for `problem`'s task set at capacity `cap` into
/// the scratch arena: kept[w] = maximum total penalty of accepted tasks
/// whose cycles sum to exactly w, take(i, w) = the update at task i improved
/// state w (bit-packed). The table has a prefix property the sweep entry
/// point exploits: rows w <= c are identical for every fill capacity >= c,
/// because tasks with cycles > c only ever write rows >= their own cycle
/// count and rows <= c are reachable only through tasks that both fills
/// process identically.
void fill_table(const RejectionProblem& problem, Cycles cap, DpScratch& scratch) {
  const std::size_t n = problem.size();
  const auto width = static_cast<std::size_t>(cap) + 1;

  std::vector<double>& kept = scratch.value;
  kept.assign(width, kNegInf);
  kept[0] = 0.0;
  BitMatrix& take = scratch.take;
  take.reset(n, width);

  // reachable: largest w with kept[w] > -inf so far; rows above it cannot
  // produce candidates, so the relaxation never visits them.
  std::size_t reachable = 0;
  const simd::KernelTable& kernels = simd::kernels();
  RETASK_OBS_ONLY(std::uint64_t cells_touched = 0; std::uint64_t cells_skipped = 0;
                  std::uint64_t tasks_pruned = 0;)
  for (std::size_t i = 0; i < n; ++i) {
    const FrameTask& task = problem.tasks()[i];
    if (task.cycles > cap) {  // can never be accepted
      RETASK_OBS_ONLY(++tasks_pruned; cells_skipped += width;)
      continue;
    }
    const auto ci = static_cast<std::size_t>(task.cycles);
    const std::size_t top = std::min(width - 1, reachable + ci);
    // The reachability bound prunes the row to [ci, top]; the cell counts
    // follow arithmetically so the relaxation stays untouched.
    RETASK_OBS_ONLY(cells_touched += top + 1 - ci; cells_skipped += width - (top + 1 - ci);)
    // Vectorized descending relaxation; kept[w - ci] == -inf stays -inf
    // after the add, so the explicit sentinel test of the old scalar loop
    // is subsumed (IEEE: -inf + finite == -inf, and -inf > x never holds).
    kernels.relax_desc_f64(kept.data(), take.row_words(i), ci, ci, top, task.penalty);
    reachable = top;
  }
  RETASK_COUNT("exact_dp.cells_touched", cells_touched);
  RETASK_COUNT("exact_dp.cells_skipped", cells_skipped);
  RETASK_COUNT("exact_dp.tasks_pruned", tasks_pruned);
  RETASK_RECORD("exact_dp.table_width", width);
}

/// Reads the best solution for `problem` off a table filled at capacity
/// >= `cap`: sweeps rows [0, cap] for the best objective and reconstructs
/// the accept set through the choice bits. Only rows <= cap are touched, so
/// a table filled at a larger capacity yields bit-identical results.
RejectionSolution select_best(const RejectionProblem& problem, Cycles cap, DpScratch& scratch) {
  const std::size_t n = problem.size();
  const BitMatrix& take = scratch.take;

  // Sweep achievable accepted-cycle totals for the best objective. The
  // energy evaluation is the expensive part (it optimizes the speed
  // schedule), so rows that cannot win are pruned before touching it: the
  // penalty term alone already losing skips the row, and E non-decreasing
  // in the load (the invariant the budgeted binary search and the
  // exhaustive bound also rely on; asserted for every registered power
  // model in tests/test_solve_cache.cpp) ends the sweep once the energy
  // term alone loses. The chunked helper reads the surviving rows' energies
  // one 64-row chunk at a time through the problem's energy accessor while
  // replaying exactly these serial prunes, so the selected row is
  // bit-identical to the naive sweep's (see core/dp_select.hpp for the
  // superset argument).
  const double total_penalty = problem.tasks().total_penalty();
  const DpSelectResult sel = select_best_row(
      scratch.value, static_cast<std::size_t>(cap), total_penalty,
      [&problem](std::size_t w0, std::uint64_t mask, double* slots) {
        return problem.energy_chunk(w0, mask, slots);
      });
  RETASK_COUNT("exact_dp.energy_evals", sel.energy_evals);
  RETASK_ASSERT(sel.best_objective < std::numeric_limits<double>::infinity());

  // Reconstruct the accept set backwards through the per-task choice bits.
  std::vector<bool> accepted(n, false);
  std::size_t w = sel.best_w;
  for (std::size_t i = n; i-- > 0;) {
    if (take.test(i, w)) {
      accepted[i] = true;
      w -= static_cast<std::size_t>(problem.tasks()[i].cycles);
    }
  }
  RETASK_ASSERT(w == 0);
  return make_solution_on_one(problem, std::move(accepted));
}

Cycles fill_capacity(const RejectionProblem& problem) {
  require(problem.processor_count() == 1, "ExactDpSolver: single-processor algorithm");
  const Cycles cap = std::min(problem.cycle_capacity(), problem.tasks().total_cycles());
  require(cap >= 0, "ExactDpSolver: negative capacity");
  return cap;
}

}  // namespace

RejectionSolution ExactDpSolver::solve(const RejectionProblem& problem) const {
  RETASK_SCOPED_TIMER("exact_dp.solve_ns");
  RETASK_TRACE_SCOPE("exact_dp.solve");
  const Cycles cap = fill_capacity(problem);
  DpScratch& scratch = exact_dp_scratch();
  fill_table(problem, cap, scratch);
  RETASK_COUNT("exact_dp.solves", 1);
  return select_best(problem, cap, scratch);
}

std::vector<RejectionSolution> ExactDpSolver::solve_sweep(
    const std::vector<const RejectionProblem*>& points) const {
  if (points.empty()) return {};

  // The warm start requires every point to share the task set (the table is
  // a function of nothing else); a mixed sweep falls back to per-point
  // solves so callers never have to pre-check.
  bool shared_tasks = true;
  for (std::size_t p = 1; p < points.size() && shared_tasks; ++p) {
    shared_tasks = same_task_sets(points[0]->tasks(), points[p]->tasks());
  }
  if (!shared_tasks || points.size() == 1) {
    RETASK_COUNT("dp.sweep_fallbacks", shared_tasks ? 0 : 1);
    return RejectionSolver::solve_sweep(points);
  }

  RETASK_SCOPED_TIMER("exact_dp.solve_sweep_ns");
  RETASK_TRACE_SCOPE("exact_dp.solve_sweep");
  std::vector<Cycles> caps(points.size());
  Cycles max_cap = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    caps[p] = fill_capacity(*points[p]);
    max_cap = std::max(max_cap, caps[p]);
  }

  // One fill at the largest capacity; every point reads its answer off the
  // shared prefix (see fill_table's prefix property for why rows <= cap_p
  // are bit-identical to a dedicated fill at cap_p).
  DpScratch& scratch = exact_dp_scratch();
  fill_table(*points[0], max_cap, scratch);
  RETASK_COUNT("exact_dp.solves", 1);
  RETASK_COUNT("dp.warm_starts", points.size() - 1);

  std::vector<RejectionSolution> solutions;
  solutions.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    solutions.push_back(select_best(*points[p], caps[p], scratch));
  }
  return solutions;
}

}  // namespace retask
