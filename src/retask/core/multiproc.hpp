// Multiprocessor rejection scheduling (partitioned, identical processors).
//
// The contextual anchor for the target paper places task rejection in the
// frame-based multiprocessor setting with a bounded top speed: when LTF-style
// partitioning cannot make the workload fit M processors, tasks must be
// rejected. Two heuristics are provided:
//
// * MultiProcLtfRejectSolver — the natural composition of the group's
//   machinery: Largest-Task-First partition of all tasks (sort by cycles
//   descending, assign to the least-loaded processor), then solve the
//   single-processor rejection subproblem optimally (exact DP) on each
//   processor independently.
// * MultiProcGreedySolver — globally greedy: tasks in descending cycles are
//   either rejected or placed on the processor where the exact marginal
//   energy increase is smallest, whichever is cheaper; followed by a
//   single-flip improvement pass. It makes O(n·m) marginal-cost probes per
//   pass, so each probe reads a per-solve energy table and a per-processor
//   E(load) cache; verify/reference.hpp keeps the cache-free semantics the
//   solver must match bit for bit.
#ifndef RETASK_CORE_MULTIPROC_HPP
#define RETASK_CORE_MULTIPROC_HPP

#include "retask/core/solver.hpp"

namespace retask {

/// LTF partition + optimal per-processor rejection.
class MultiProcLtfRejectSolver final : public RejectionSolver {
 public:
  RejectionSolution solve(const RejectionProblem& problem) const override;
  std::string name() const override { return "MP-LTF+DP"; }
};

/// Globally greedy placement/rejection with a local improvement pass.
class MultiProcGreedySolver final : public RejectionSolver {
 public:
  RejectionSolution solve(const RejectionProblem& problem) const override;
  std::string name() const override { return "MP-GREEDY"; }
};

/// RAND-style multiprocessor baseline: tasks in input order go to the
/// least-loaded processor; overflowing tasks are rejected.
class MultiProcRandSolver final : public RejectionSolver {
 public:
  RejectionSolution solve(const RejectionProblem& problem) const override;
  std::string name() const override { return "MP-RAND"; }
};

}  // namespace retask

#endif  // RETASK_CORE_MULTIPROC_HPP
