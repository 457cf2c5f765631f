// Many-core partitioned rejection solver: least-loaded marginal placement
// plus exact per-PE solves.
//
// On a partitioned platform each PE's share of the objective Energy(A) + Σρ
// is exactly the single-PE rejection problem the prefix DP solves. This
// solver therefore spends its effort there and keeps the rest simple:
//
//  1. Placement, serial and O(n log m). Tasks no processor can ever hold
//     (cycles > capacity) are pruned: they are rejected in every feasible
//     solution. The others go in descending cycles (stable) to the
//     least-loaded PE (ties: lowest index), accepted if they fit and their
//     marginal energy E(l + c) − E(l) is below their penalty, rejected
//     otherwise. Up to three improvement passes then re-place every task in
//     index order by the same rule, stopping after a pass where no
//     re-placement beat its current cost by more than 1e-12.
//  2. Deal. The placement-rejected tasks, in descending cycles, each go to
//     the PE with the least accepted-plus-dealt cycles (ties: lowest index)
//     as candidates: the exact solve decides whether they pay there.
//  3. Exact per-PE solves. Each PE's members (global index order) form one
//     single-PE rejection problem. The m solves run through the lockstep
//     batch solver (batch/lockstep.hpp), sharded across the parallel_for
//     pool; every PE's solution is bit-identical to a solo ExactDpSolver
//     solve, so the result is invariant to RETASK_JOBS, RETASK_BATCH and
//     the SIMD backend. Placement and the subproblems read energies through
//     one dense EnergyMemo backed by one EnergyRow (cache/energy_row.hpp),
//     so each E(w) is computed once per solve. When the problem already
//     carries a row-backed memo (exp/mp_scale_sweep attaches one per sweep
//     point), that memo is used, and each E(w) is computed once per sweep
//     point instead.
//
// Each PE's exact solve is at least as good as the placement's accept set
// on that PE, so the result never exceeds the placement's objective.
// verify/reference.hpp's mp_scale_reference states the same semantics
// without caches, lanes or threads; retask_fuzz --mp-diff compares the two
// bit for bit. Counters: mp.scale_solves, mp.oversized_rejected,
// mp.dealt_candidates, mp.pe_size_groups, mp.bound_gap_permille; timers
// mp.partition_ns (steps 1-2) and mp.pe_solve_ns (step 3).
#ifndef RETASK_CORE_MP_SCALE_HPP
#define RETASK_CORE_MP_SCALE_HPP

#include "retask/core/solver.hpp"

namespace retask {

/// Knobs of the many-core solve. None changes a solution bit.
struct MpScaleConfig {
  /// Lockstep lanes for the per-PE solves; -1 resolves RETASK_BATCH.
  int lanes = -1;
  /// parallel_for jobs for the per-PE solves; 0 resolves RETASK_JOBS.
  int jobs = 0;
  /// Also compute the multiprocessor Lagrangian bound and record the
  /// relative gap as mp.bound_gap_permille (one extra O(n log n) pass).
  bool record_bound_gap = false;
};

/// O(n log m) least-loaded marginal placement + lockstep per-PE exact
/// rejection. Registry name "mp-scale".
class MultiProcScaleSolver final : public RejectionSolver {
 public:
  MultiProcScaleSolver() = default;
  explicit MultiProcScaleSolver(MpScaleConfig config) : config_(config) {}

  RejectionSolution solve(const RejectionProblem& problem) const override;
  std::string name() const override { return "MP-SCALE"; }

  const MpScaleConfig& config() const { return config_; }

 private:
  MpScaleConfig config_;
};

}  // namespace retask

#endif  // RETASK_CORE_MP_SCALE_HPP
