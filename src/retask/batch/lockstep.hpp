// Instance-batched lockstep solving: many same-shape instances, one pass.
//
// Sweep reuse (cache/sweep.hpp) collapses points that share a task set; a
// fleet of *different* instances with the same shape (equal task count, one
// processor, equal cycle capacity, bit-identical energy curve) gets no help
// from it — every instance pays its own DP fill and its own select sweep.
// This module runs up to `lanes` such instances in lockstep instead:
//
//  * Exact DP — one lane-major arena (lane k's table at arena[k * stride])
//    filled per lane by the same contiguous relaxation kernel the solo
//    solver uses, with per-lane reachability bounds and capacity pruning.
//    The select sweep reads the energies of all lanes through one
//    `energy_chunk` call per 64-row chunk over the union of the lanes'
//    rows — legal because the shape check guarantees every lane's curve
//    produces identical bits.
//    (A lane-interleaved fill was measured slower than per-lane contiguous
//    fills on AVX2 — gathers lose to the contiguous path — so the shared
//    work lives in the select, not the fill; see lockstep.cpp.)
//  * Density / marginal greedy — per-lane decisions replayed position by
//    position (density) or round by round (local search), with every
//    energy probe of every live lane fused into one batched evaluation.
//
// Lane-by-lane bit-identity: each lane's cells, prunes, probes and flips
// are exactly the single-instance solver's (the kernels touch disjoint
// strided cells, batched energies match scalar energies bit for bit), so
// solve_batch() == { base.solve(p) for p in batch } on every backend —
// tests/test_batch_lockstep.cpp asserts this per backend, and
// `retask_fuzz --lockstep-diff` re-checks it on random fleets.
#ifndef RETASK_BATCH_LOCKSTEP_HPP
#define RETASK_BATCH_LOCKSTEP_HPP

#include <string>
#include <vector>

#include "retask/core/solver.hpp"

namespace retask {

/// The process-wide lane count: the last set_lockstep_lanes() value, else
/// the RETASK_BATCH environment variable (off -> 0, auto or unset -> 4, or
/// an explicit lane count). 0 and 1 both mean "solve per instance".
int lockstep_lanes();

/// Overrides the lane count process-wide (0 disables lockstep batching).
void set_lockstep_lanes(int lanes);

/// Per-solver batching knobs.
struct BatchConfig {
  /// Lanes run in lockstep; -1 defers to lockstep_lanes(). Values below 2
  /// disable batching (every instance solves through the base solver).
  int lanes = -1;
};

/// True when `a` and `b` may share lockstep lanes: equal task count, one
/// processor each, equal cycle capacity and bitwise-equal energy curves
/// (window, idle discipline, sleep overheads, power model parameters,
/// work_per_cycle). Shape says nothing about the task data — lanes carry
/// different cycles and penalties; that is the point.
bool same_shape(const RejectionProblem& a, const RejectionProblem& b);

/// Facade turning a single-instance solver into a batch solver. Instances
/// are grouped by shape signature, groups are cut into lane-sized chunks,
/// and each chunk runs in lockstep when the base solver has a lockstep
/// implementation (exact DP, density greedy, marginal greedy); ragged
/// tails of size 1 and unsupported solvers fall back to per-instance
/// base.solve(). Results come back in input order.
class BatchRejectionSolver {
 public:
  /// `base` must outlive the facade.
  explicit BatchRejectionSolver(const RejectionSolver& base, BatchConfig config = {});

  /// Solves every instance; bit-identical to calling base.solve() per
  /// instance, in any grouping and at any lane count.
  std::vector<RejectionSolution> solve_batch(
      const std::vector<const RejectionProblem*>& problems) const;

  /// "<base name>+LOCKSTEP".
  std::string name() const;

 private:
  const RejectionSolver* base_;
  BatchConfig config_;
};

}  // namespace retask

#endif  // RETASK_BATCH_LOCKSTEP_HPP
