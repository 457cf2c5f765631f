#include "retask/exp/harness.hpp"

#include <algorithm>

#include "retask/batch/lockstep.hpp"
#include "retask/cache/energy_row.hpp"
#include "retask/cache/sweep.hpp"
#include "retask/common/error.hpp"
#include "retask/common/math.hpp"
#include "retask/common/parallel.hpp"
#include "retask/core/solution.hpp"

namespace retask {
namespace {

/// Scores one solved cell into its slot: revalidates the solution, guards
/// the reference, and feeds the per-cell accumulators. Shared by the grouped
/// and the per-point paths so they cannot drift.
void score_cell(const RejectionProblem& problem, const RejectionSolution& solution, double ref,
                AlgoStats& slot) {
  check_solution(problem, solution);
  const double obj = solution.objective();
  const double ratio = ref > 0.0 ? obj / ref : (obj > 0.0 ? 2.0 : 1.0);
  // Guard against a buggy "reference": no algorithm may beat an optimal
  // reference by more than numerical noise. Lower bounds are <= obj by
  // construction, so the same check applies.
  require(ratio >= 1.0 - 1e-6, "run_comparison: algorithm beat the reference objective");
  slot.ratio.add(ratio);
  slot.acceptance.add(solution.acceptance_ratio());
  slot.objective.add(obj);
}

}  // namespace

void AlgoStats::merge(const AlgoStats& other) {
  ratio.merge(other.ratio);
  acceptance.merge(other.acceptance);
  objective.merge(other.objective);
  metrics.merge(other.metrics);
}

std::vector<std::vector<AlgoStats>> run_comparison_batch(
    const std::vector<ProblemFactory>& factories,
    const std::vector<std::unique_ptr<RejectionSolver>>& lineup,
    const ReferenceObjective& reference, int instances, std::uint64_t seed0, int jobs,
    const BatchOptions& options) {
  require(!factories.empty(), "run_comparison: at least one sweep point required");
  require(instances >= 1, "run_comparison: at least one instance required");
  require(!lineup.empty(), "run_comparison: empty algorithm lineup");

  const std::size_t points = factories.size();
  const std::size_t algos = lineup.size();
  const auto reps = static_cast<std::size_t>(instances);

  // One slot per point x instance x algorithm cell, written by exactly one
  // worker; reduced in index order below so the aggregates do not depend on
  // the parallel interleaving. The parallel unit is a BLOCK of instance
  // groups (lockstep_lanes() consecutive seeds, each spanning every sweep
  // point): blocks keep the state sweep-reuse shares between points on a
  // single thread, and instances of one block that skip the sweep path feed
  // the lockstep batch solver together. The block partition depends only on
  // the lane count, never on `jobs`, so aggregates and metric attribution
  // stay bit-identical at any job count.
  std::vector<AlgoStats> slots(points * reps * algos);
  const auto slot_at = [&](std::size_t point, std::size_t k, std::size_t a) -> AlgoStats& {
    return slots[((point * reps + k) * algos) + a];
  };

  const std::size_t lanes =
      options.lockstep ? static_cast<std::size_t>(std::max(1, lockstep_lanes())) : 1;
  const std::size_t blocks = (reps + lanes - 1) / lanes;

  // One energy row per sweep point, shared by every block and worker: each
  // E(w) of the point is computed once for the whole grid instead of once
  // per block (cache/energy_row.hpp). The row serves the per-point memos
  // whose platform matches the point's first instance (`row_refs`); counts
  // and bits stay per block either way. A caller-supplied memo spans one
  // platform by contract, so it gets one row for the call.
  std::vector<RejectionProblem> row_refs;
  std::vector<std::shared_ptr<EnergyRow>> rows(points);
  if (options.shared_energy_memo != nullptr) {
    options.shared_energy_memo->attach_row(
        EnergyMemo::make_row(factories.front()(seed0).cycle_capacity()));
  } else if (options.cell_energy_memo) {
    row_refs.reserve(points);
    for (std::size_t point = 0; point < points; ++point) {
      row_refs.push_back(factories[point](seed0));
      rows[point] = EnergyMemo::make_row(row_refs.back().cycle_capacity());
    }
  }
  const auto make_memo = [&](std::size_t point, const RejectionProblem& cell) {
    auto memo = std::make_shared<EnergyMemo>();
    if (rows[point] != nullptr && same_platforms(row_refs[point], cell)) {
      memo->attach_row(rows[point]);
    }
    return memo;
  };

  parallel_for(blocks, [&](std::size_t b) {
    const std::size_t k_lo = b * lanes;
    const std::size_t block = std::min(reps, k_lo + lanes) - k_lo;

    // Instance state for the block, indexed j = k - k_lo.
    std::vector<std::vector<RejectionProblem>> problems(block);
    std::vector<std::vector<double>> refs(block, std::vector<double>(points));
    std::vector<char> grouped(block);
    // One energy memo per sweep point, shared by every instance of the
    // block whose platform matches the point's first instance. A sweep
    // point fixes (curve, work_per_cycle) across seeds in the canonical
    // grids, so instance 0's select-sweep evaluations serve the whole block
    // — the cross-instance sharing the lockstep select gets structurally.
    // same_platforms guards the memo sharing contract per cell
    // (cache/energy_memo.hpp); a factory whose platform varies with the
    // seed degrades to a private memo, never to a wrong energy.
    std::vector<std::shared_ptr<EnergyMemo>> point_memos(points);
    for (std::size_t j = 0; j < block; ++j) {
      problems[j].reserve(points);
      for (std::size_t point = 0; point < points; ++point) {
        problems[j].push_back(factories[point](seed0 + static_cast<std::uint64_t>(k_lo + j)));
        RejectionProblem& cell = problems[j].back();
        if (options.shared_energy_memo != nullptr) {
          cell.attach_energy_memo(options.shared_energy_memo);
        } else if (options.cell_energy_memo) {
          if (point_memos[point] != nullptr && !same_platforms(problems[0][point], cell)) {
            cell.attach_energy_memo(make_memo(point, cell));
          } else {
            if (point_memos[point] == nullptr) point_memos[point] = make_memo(point, cell);
            cell.attach_energy_memo(point_memos[point]);
          }
        }
      }
      for (std::size_t point = 0; point < points; ++point) {
        refs[j][point] = reference(problems[j][point]);
        require(refs[j][point] >= 0.0, "run_comparison: negative reference objective");
      }
      // Sweep-reuse grouping: points carrying one task set (a capacity /
      // work_per_cycle sweep) are handed to the solver as a batch so it can
      // share work across them (e.g. the exact DP's warm-started table).
      bool reuse = options.sweep_reuse && points > 1;
      for (std::size_t point = 1; point < points && reuse; ++point) {
        reuse = same_task_sets(problems[j][0].tasks(), problems[j][point].tasks());
      }
      grouped[j] = reuse ? 1 : 0;
    }

    for (std::size_t a = 0; a < algos; ++a) {
      std::vector<std::size_t> loose;  // block instances outside the sweep path
      std::vector<std::size_t> swept;  // block instances on the sweep path
      for (std::size_t j = 0; j < block; ++j) {
        (grouped[j] ? swept : loose).push_back(j);
      }

      for (const std::size_t j : swept) {
        const std::size_t k = k_lo + j;
        std::vector<const RejectionProblem*> group;
        group.reserve(points);
        for (const RejectionProblem& problem : problems[j]) group.push_back(&problem);
        std::vector<RejectionSolution> solutions;
        {
          // Shared work has no per-point attribution, so the whole batch's
          // solver metrics land in the first point's slot (documented on
          // BatchOptions::sweep_reuse).
          obs::ActiveScope scope(slot_at(0, k, a).metrics);
          solutions = lineup[a]->solve_sweep(group);
        }
        RETASK_ASSERT(solutions.size() == points);
        for (std::size_t point = 0; point < points; ++point) {
          AlgoStats& slot = slot_at(point, k, a);
          {
            obs::ActiveScope scope(slot.metrics);
            RETASK_COUNT("harness.solves", 1);
            RETASK_COUNT("harness.tasks_total", problems[j][point].size());
            RETASK_COUNT("harness.tasks_rejected",
                         problems[j][point].size() - solutions[point].accepted_count());
          }
          score_cell(problems[j][point], solutions[point], refs[j][point], slot);
        }
      }

      if (lanes >= 2 && loose.size() >= 2) {
        // Lockstep across the block's remaining instances, one fleet per
        // point. solve_batch returns per-lane bit-identical solutions (and
        // falls back to per-instance solves for odd shapes), so only metric
        // attribution differs: the batched work lands in the first
        // participating instance's cell (documented on
        // BatchOptions::lockstep).
        const BatchRejectionSolver batched(*lineup[a], BatchConfig{static_cast<int>(lanes)});
        for (std::size_t point = 0; point < points; ++point) {
          std::vector<const RejectionProblem*> fleet;
          fleet.reserve(loose.size());
          for (const std::size_t j : loose) fleet.push_back(&problems[j][point]);
          std::vector<RejectionSolution> solutions;
          {
            obs::ActiveScope scope(slot_at(point, k_lo + loose.front(), a).metrics);
            solutions = batched.solve_batch(fleet);
          }
          RETASK_ASSERT(solutions.size() == loose.size());
          for (std::size_t idx = 0; idx < loose.size(); ++idx) {
            const std::size_t j = loose[idx];
            const RejectionProblem& problem = problems[j][point];
            AlgoStats& slot = slot_at(point, k_lo + j, a);
            {
              obs::ActiveScope scope(slot.metrics);
              RETASK_COUNT("harness.solves", 1);
              RETASK_COUNT("harness.tasks_total", problem.size());
              RETASK_COUNT("harness.tasks_rejected",
                           problem.size() - solutions[idx].accepted_count());
            }
            score_cell(problem, solutions[idx], refs[j][point], slot);
          }
        }
      } else {
        for (const std::size_t j : loose) {
          for (std::size_t point = 0; point < points; ++point) {
            const RejectionProblem& problem = problems[j][point];
            AlgoStats& slot = slot_at(point, k_lo + j, a);
            RejectionSolution solution;
            {
              // Attribute the solver's metrics to this point x instance x algo
              // cell. The whole cell runs on one thread, so the scoped registry
              // sees exactly this solve; on scope exit it also folds into the
              // thread's default registry, keeping process totals complete.
              obs::ActiveScope scope(slot.metrics);
              solution = lineup[a]->solve(problem);
              RETASK_COUNT("harness.solves", 1);
              RETASK_COUNT("harness.tasks_total", problem.size());
              RETASK_COUNT("harness.tasks_rejected", problem.size() - solution.accepted_count());
            }
            score_cell(problem, solution, refs[j][point], slot);
          }
        }
      }
    }
  }, jobs);
  if (options.shared_energy_memo != nullptr) options.shared_energy_memo->attach_row(nullptr);

  std::vector<std::vector<AlgoStats>> stats(points, std::vector<AlgoStats>(algos));
  for (std::size_t point = 0; point < points; ++point) {
    for (std::size_t a = 0; a < algos; ++a) stats[point][a].name = lineup[a]->name();
    for (std::size_t k = 0; k < reps; ++k) {
      for (std::size_t a = 0; a < algos; ++a) {
        stats[point][a].merge(slot_at(point, k, a));
      }
    }
  }
  return stats;
}

std::vector<AlgoStats> run_comparison(const ProblemFactory& factory,
                                      const std::vector<std::unique_ptr<RejectionSolver>>& lineup,
                                      const ReferenceObjective& reference, int instances,
                                      std::uint64_t seed0, int jobs) {
  auto stats = run_comparison_batch({factory}, lineup, reference, instances, seed0, jobs);
  return std::move(stats.front());
}

}  // namespace retask
