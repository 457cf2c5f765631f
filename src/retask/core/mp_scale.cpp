#include "retask/core/mp_scale.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "retask/batch/lockstep.hpp"
#include "retask/cache/energy_memo.hpp"
#include "retask/common/parallel.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/obs/metrics.hpp"

namespace retask {

RejectionSolution MultiProcScaleSolver::solve(const RejectionProblem& problem) const {
  const std::size_t n = problem.size();
  const auto m = static_cast<std::size_t>(problem.processor_count());
  const Cycles capacity = problem.cycle_capacity();
  RETASK_COUNT("mp.scale_solves", 1);

  // One memo for the placement probes and every per-PE select. All loads
  // lie in [0, min(capacity, total cycles)]; the attached row makes that
  // range dense and lets the pool's shards share one E(w) row, so each
  // value is computed once per solve instead of once per worker thread.
  // A problem that already carries a row-backed memo (a sweep point's,
  // shared by all its instances) lends it instead, so the row is computed
  // once per sweep point; the subproblems share the platform, so the
  // memo's sharing contract holds for them too.
  std::shared_ptr<EnergyMemo> memo = problem.energy_memo();
  if (memo == nullptr || memo->row() == nullptr) {
    memo = std::make_shared<EnergyMemo>();
    memo->attach_row(EnergyMemo::make_row(std::min(capacity, problem.tasks().total_cycles())));
  }
  const auto energy_at = [&](Cycles cycles) {
    return memo->get_or_compute(cycles, [&](Cycles c) {
      return problem.curve().energy(problem.work_per_cycle() * static_cast<double>(c));
    });
  };

  // --- Steps 1-2: least-loaded marginal placement, then the deal ----------
  // pe_of[i]: the PE whose exact solve sees task i, or -1 for oversized
  // tasks, which can never be accepted on any PE.
  std::vector<int> pe_of(n, -1);
  {
    RETASK_SCOPED_TIMER("mp.partition_ns");
    std::vector<std::size_t> placeable;
    placeable.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (problem.tasks()[i].cycles <= capacity) placeable.push_back(i);
    }
    RETASK_COUNT("mp.oversized_rejected", n - placeable.size());
    std::vector<std::size_t> order = placeable;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return problem.tasks()[a].cycles > problem.tasks()[b].cycles;
    });

    std::vector<Cycles> load(m, 0);
    std::set<std::pair<Cycles, std::size_t>> by_load;  // begin(): least loaded, lowest index
    for (std::size_t p = 0; p < m; ++p) by_load.emplace(0, p);
    const auto add_load = [&](std::size_t p, Cycles cycles) {
      by_load.erase({load[p], p});
      load[p] += cycles;
      by_load.emplace(load[p], p);
    };
    // Places task i by the rule and returns what it now costs: its marginal
    // energy when accepted, else its penalty.
    const auto place = [&](std::size_t i) {
      const FrameTask& task = problem.tasks()[i];
      const auto [least, p] = *by_load.begin();
      if (least + task.cycles <= capacity) {
        const double marginal = energy_at(least + task.cycles) - energy_at(least);
        if (marginal < task.penalty) {
          add_load(p, task.cycles);
          pe_of[i] = static_cast<int>(p);
          return marginal;
        }
      }
      pe_of[i] = -1;
      return task.penalty;
    };
    for (const std::size_t i : order) place(i);

    for (int pass = 0; pass < 3; ++pass) {
      bool changed = false;
      for (const std::size_t i : placeable) {
        const FrameTask& task = problem.tasks()[i];
        double current_cost = task.penalty;
        if (pe_of[i] >= 0) {
          const auto p = static_cast<std::size_t>(pe_of[i]);
          const double with_task = energy_at(load[p]);
          add_load(p, -task.cycles);
          current_cost = with_task - energy_at(load[p]);
        }
        if (place(i) + 1e-12 < current_cost) changed = true;
      }
      if (!changed) break;
    }

    std::uint64_t dealt = 0;
    for (const std::size_t i : order) {
      if (pe_of[i] >= 0) continue;
      const std::size_t p = by_load.begin()->second;
      add_load(p, problem.tasks()[i].cycles);
      pe_of[i] = static_cast<int>(p);
      ++dealt;
    }
    RETASK_COUNT("mp.dealt_candidates", dealt);
  }

  // --- Step 3: lockstep per-PE exact rejection ----------------------------
  std::vector<std::vector<std::size_t>> member(m);  // global indices, index order
  for (std::size_t i = 0; i < n; ++i) {
    if (pe_of[i] >= 0) member[static_cast<std::size_t>(pe_of[i])].push_back(i);
  }
  std::vector<std::unique_ptr<RejectionProblem>> sub(m);
  for (std::size_t p = 0; p < m; ++p) {
    if (member[p].empty()) continue;
    std::vector<FrameTask> local;
    local.reserve(member[p].size());
    for (const std::size_t i : member[p]) local.push_back(problem.tasks()[i]);
    sub[p] = std::make_unique<RejectionProblem>(FrameTaskSet(std::move(local)), problem.curve(),
                                                problem.work_per_cycle(), 1);
    sub[p]->attach_energy_memo(memo);
  }

  // All subproblems share the platform, so same_shape reduces to equal task
  // counts; group PEs by size, cut groups into lane chunks, and shard the
  // chunks across the pool. Chunking and job count cannot change a bit.
  const int lanes = config_.lanes < 0 ? lockstep_lanes() : config_.lanes;
  const std::size_t chunk_lanes = lanes < 2 ? std::size_t{1} : static_cast<std::size_t>(lanes);
  std::vector<std::vector<std::size_t>> chunks;  // PE indices per lockstep chunk
  {
    std::map<std::size_t, std::vector<std::size_t>> by_size;  // deterministic order
    for (std::size_t p = 0; p < m; ++p) {
      if (sub[p] != nullptr) by_size[member[p].size()].push_back(p);
    }
    RETASK_COUNT("mp.pe_size_groups", by_size.size());
    for (const auto& [size, pes] : by_size) {
      (void)size;
      for (std::size_t pos = 0; pos < pes.size(); pos += chunk_lanes) {
        const std::size_t end = std::min(pes.size(), pos + chunk_lanes);
        chunks.emplace_back(pes.begin() + static_cast<std::ptrdiff_t>(pos),
                            pes.begin() + static_cast<std::ptrdiff_t>(end));
      }
    }
  }

  std::vector<RejectionSolution> pe_solution(m);
  {
    RETASK_SCOPED_TIMER("mp.pe_solve_ns");
    const ExactDpSolver dp;
    const BatchRejectionSolver batch(dp, BatchConfig{lanes});
    parallel_for(
        chunks.size(),
        [&](std::size_t c) {
          std::vector<const RejectionProblem*> chunk_problems;
          chunk_problems.reserve(chunks[c].size());
          for (const std::size_t p : chunks[c]) chunk_problems.push_back(sub[p].get());
          std::vector<RejectionSolution> solved = batch.solve_batch(chunk_problems);
          for (std::size_t j = 0; j < chunks[c].size(); ++j) {
            pe_solution[chunks[c][j]] = std::move(solved[j]);
          }
        },
        config_.jobs);
  }

  std::vector<bool> accepted(n, false);
  std::vector<int> processor_of(n, -1);
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t k = 0; k < member[p].size(); ++k) {
      if (pe_solution[p].accepted[k]) {
        accepted[member[p][k]] = true;
        processor_of[member[p][k]] = static_cast<int>(p);
      }
    }
  }
  RejectionSolution solution = make_solution(problem, std::move(accepted), std::move(processor_of));
  if (config_.record_bound_gap) {
    const double bound = multiproc_lower_bound(problem);
    if (bound > 0.0) {
      RETASK_RECORD("mp.bound_gap_permille",
                    std::max(0.0, (solution.objective() / bound - 1.0) * 1000.0));
    }
  }
  return solution;
}

}  // namespace retask
