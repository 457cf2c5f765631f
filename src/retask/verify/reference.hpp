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

}  // namespace retask

#endif  // RETASK_VERIFY_REFERENCE_HPP
