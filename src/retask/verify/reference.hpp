// Cache-free reference solvers: the normative semantics of production
// solvers whose hot loops are cached or otherwise accelerated.
//
// Each reference evaluates every energy it needs straight from the curve —
// no memo, no table, no per-processor cache — in exactly the order and with
// exactly the comparisons the production solver's contract specifies.
// Because E(W) is a pure function, a production solver that caches must
// match its reference bit for bit (accept mask, bindings, energy, penalty);
// tests and retask_fuzz --mp-diff compare the two. Not for production use.
#ifndef RETASK_VERIFY_REFERENCE_HPP
#define RETASK_VERIFY_REFERENCE_HPP

#include "retask/core/problem.hpp"
#include "retask/core/solution.hpp"

namespace retask {

/// MultiProcGreedySolver's semantics: tasks in descending cycles (stable)
/// go to the processor with the smallest marginal energy increase (strict <,
/// so the lowest index wins ties) unless rejecting is cheaper; then up to
/// three improvement passes re-place every task in index order, stopping
/// after a pass where no re-placement beat the task's current cost by more
/// than 1e-12.
RejectionSolution mp_greedy_reference(const RejectionProblem& problem);

/// MultiProcScaleSolver's semantics: tasks with cycles above the capacity
/// are rejected; the rest go in descending cycles (stable) to the
/// least-loaded processor (smallest (load, index), found by a linear scan),
/// accepted there if they fit and their marginal energy is below their
/// penalty; the same three improvement passes as mp_greedy_reference
/// re-place them by that rule; the tasks still rejected are dealt, in
/// descending cycles, to the processor with the least accepted-plus-dealt
/// cycles; finally a serial cold ExactDpSolver solves each processor's
/// members in index order.
RejectionSolution mp_scale_reference(const RejectionProblem& problem);

}  // namespace retask

#endif  // RETASK_VERIFY_REFERENCE_HPP
