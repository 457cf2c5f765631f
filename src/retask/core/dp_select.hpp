// Chunked row selection over a filled knapsack value table.
//
// Reading a solution off the exact-DP table means sweeping every reachable
// accepted-cycle total w for the best objective E(w) + (total_penalty -
// kept[w]). The energy reads dominate that sweep. This header runs it in
// 64-row chunks — the cold solve, the sweep-reuse warm path
// (ExactDpSolver::solve_sweep) and the serve-mode delta solver all select
// through it, and the lockstep lanes (batch/lockstep.cpp) apply the same
// three steps with one union mask per chunk:
//
//   1. predict — per 64-row chunk, keep the rows that survive the penalty
//      prune against the best objective at chunk entry (one vector
//      select_mask_f64 word). The live best only ever decreases within the
//      chunk, so this snapshot keeps a superset of the rows the serial
//      sweep would evaluate; E is a pure function of the row, so reading
//      the extra rows cannot change the outcome.
//   2. chunk read — one energy-chunk call (EnergyMemo::chunk through
//      RejectionProblem::energy_chunk) returns a dense 64-slot view holding
//      E(w0 + b) for every predicted row b. On a dense memo it points
//      straight into the memo's row, and only rows never evaluated before
//      run through one fused batch kernel call; otherwise the rows are
//      gathered into a caller-owned 64-slot scratch. Either way the values
//      are the bits one-at-a-time evaluation produces.
//   3. replay — scan the predicted rows with the serial loop's live prunes:
//      the penalty prune re-checked against the current best, and the
//      energy early-exit (E non-decreasing in the load) ending the whole
//      sweep. The replay makes the same decisions in the same order as the
//      serial sweep, so the selected row is bit-identical.
#ifndef RETASK_CORE_DP_SELECT_HPP
#define RETASK_CORE_DP_SELECT_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "retask/simd/kernels.hpp"

namespace retask {

/// Outcome of one chunked select sweep.
struct DpSelectResult {
  std::size_t best_w = 0;
  double best_objective = std::numeric_limits<double>::infinity();
  std::uint64_t energy_evals = 0;  ///< predicted rows read through the chunk accessor
};

/// Sweeps rows [0, cap] of `kept` (the exact-DP value table: maximum total
/// penalty of accepted tasks at exactly w cycles, -inf when unreachable) for
/// the row minimizing E(w) + (total_penalty - kept[w]). Energies are read
/// per 64-row chunk through `energy_chunk(w0, mask, scratch)`, which returns
/// a pointer p with p[b] == E(w0 + b) for every set bit b of `mask` (the
/// contract of RejectionProblem::energy_chunk / EnergyMemo::chunk). The
/// result is bit-identical to the serial row-by-row sweep with the penalty
/// prune and energy early-exit.
template <class EnergyChunkFn>
DpSelectResult select_best_row(const std::vector<double>& kept, std::size_t cap,
                               double total_penalty, EnergyChunkFn&& energy_chunk) {
  constexpr std::size_t kChunk = 64;
  const simd::KernelTable& kernels = simd::kernels();
  DpSelectResult result;
  double scratch[kChunk] = {0.0};  // gather slots of non-dense reads
  bool done = false;
  for (std::size_t chunk = 0; chunk <= cap && !done; chunk += kChunk) {
    const std::size_t end = std::min(cap, chunk + kChunk - 1);
    // One vector mask per chunk instead of a scalar row loop; the kernel's
    // total - kept[w] < best predicate folds the -inf reachability skip in
    // (total - (-inf) == +inf never beats the bound).
    const std::uint64_t mask =
        kernels.select_mask_f64(kept.data() + chunk, end - chunk + 1, total_penalty,
                                result.best_objective);
    if (mask == 0) continue;
    const double* energy_at = energy_chunk(chunk, mask, scratch);
    result.energy_evals += static_cast<std::uint64_t>(__builtin_popcountll(mask));
    // Kernelized replay of the serial sweep's decision walk over the masked
    // rows (same prunes, same early-exit, same improvement order).
    done = kernels.select_scan_f64(kept.data() + chunk, energy_at, end - chunk + 1, mask,
                                   total_penalty, chunk, &result.best_objective,
                                   &result.best_w) != 0;
  }
  return result;
}

}  // namespace retask

#endif  // RETASK_CORE_DP_SELECT_HPP
