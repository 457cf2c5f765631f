// Experiment harness: runs an algorithm lineup over a family of random
// instances and aggregates the venue-standard metrics (mean/max objective
// ratio against a reference, acceptance ratio).
//
// Instances are solved concurrently (see common/parallel.hpp) into
// per-instance slots and reduced in instance order, so every aggregate is
// bit-identical regardless of the job count: per-instance seeding
// (seed0 + k) makes the inputs deterministic, and the ordered reduction
// makes the floating-point accumulation order deterministic too.
#ifndef RETASK_EXP_HARNESS_HPP
#define RETASK_EXP_HARNESS_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "retask/cache/energy_memo.hpp"
#include "retask/common/stats.hpp"
#include "retask/core/solver.hpp"
#include "retask/obs/metrics.hpp"

namespace retask {

/// Builds the instance for a given replication seed.
using ProblemFactory = std::function<RejectionProblem(std::uint64_t seed)>;

/// Reference objective (optimal or lower bound) for normalization.
using ReferenceObjective = std::function<double(const RejectionProblem&)>;

/// Aggregated outcome of one algorithm over the instance family.
struct AlgoStats {
  std::string name;
  OnlineStats ratio;       ///< objective / reference objective
  OnlineStats acceptance;  ///< fraction of tasks accepted
  OnlineStats objective;   ///< raw objective values
  /// Solver metrics collected while this algorithm ran on this point's
  /// instances (obs::ActiveScope per cell). Counters and histograms merge
  /// commutatively, so the merged registry is bit-identical at any job
  /// count; empty in RETASK_OBS=OFF builds.
  obs::Registry metrics;

  /// Ordered reduce: folds `other`'s accumulators into this one's (the
  /// name is kept). Folding single-instance slots in instance order yields
  /// the same bits as the sequential harness.
  void merge(const AlgoStats& other);
};

/// Runs every solver on `instances` instances (seeds seed0, seed0+1, ...),
/// normalizing by `reference`. Solver outputs are revalidated; a reference
/// of 0 with a 0 objective counts as ratio 1. `jobs` = 0 uses
/// default_jobs() (RETASK_JOBS / hardware); any job count produces
/// bit-identical aggregates, and jobs = 1 runs strictly sequentially.
std::vector<AlgoStats> run_comparison(const ProblemFactory& factory,
                                      const std::vector<std::unique_ptr<RejectionSolver>>& lineup,
                                      const ReferenceObjective& reference, int instances,
                                      std::uint64_t seed0 = 1, int jobs = 0);

/// Solve-reuse knobs of run_comparison_batch. The defaults are always
/// sound: they only enable reuse the harness can prove safe by itself.
struct BatchOptions {
  /// Group the sweep points of one instance (same seed) and solve them
  /// through RejectionSolver::solve_sweep when every point carries an
  /// identical task set (capacity/work_per_cycle sweeps). Solutions are
  /// bit-identical either way (the solve_sweep contract); the only
  /// observable difference is metric attribution — a grouped algorithm's
  /// solver metrics land in the FIRST point's AlgoStats instead of being
  /// split per point (the per-point split does not exist for shared work).
  bool sweep_reuse = true;
  /// Attach an EnergyMemo per sweep point, shared across every instance of
  /// a parallel block whose platform (curve, work_per_cycle) matches that
  /// point's first instance — cells are solved on one thread per block, so
  /// one instance's cycles -> energy evaluations serve the rest. All lineup
  /// algorithms solving a cell share its memo by reference. A factory whose
  /// platform varies with the seed fails the same_platforms guard and gets
  /// a private per-cell memo instead (bit-identical either way).
  ///
  /// Above the block memos sits one EnergyRow per sweep point, grid-wide:
  /// built before the parallel region for the point's seed0 instance and
  /// sized to its cycle_capacity() + 1 (not built past
  /// EnergyMemo::kDenseLimit). Every memo whose cell passes same_platforms
  /// against that instance attaches it, so each E(w) of the point is
  /// computed once across all blocks and workers instead of once per block.
  /// Hit/miss counters stay per block and jobs-invariant; the row adds one
  /// (W + 1)-double array per point, freed when the call returns.
  bool cell_energy_memo = true;
  /// Caller-supplied memo attached to EVERY problem of the grid instead of
  /// per-cell memos. The caller asserts all factories produce problems with
  /// one identical (EnergyCurve, work_per_cycle) pair — see
  /// RejectionProblem::attach_energy_memo. Leave null to use per-cell memos.
  /// For the duration of the call the harness attaches one grid-wide
  /// EnergyRow to it (EnergyMemo::attach_row) and detaches it on return;
  /// the memo's dense range stays reserved.
  std::shared_ptr<EnergyMemo> shared_energy_memo;
  /// Solve instances that do NOT take the sweep-reuse path through the
  /// lockstep batch solver (batch/lockstep.hpp): the replication axis is
  /// split into blocks of lockstep_lanes() instances, and each block's
  /// same-shape instances run through one BatchRejectionSolver per point.
  /// Solutions are bit-identical either way (the lockstep contract); like
  /// sweep_reuse, the only observable difference is metric attribution — a
  /// batched chunk's solver metrics land in the FIRST participating
  /// instance's AlgoStats for that point. RETASK_BATCH=off (lanes 0/1)
  /// disables batching even when this flag is set.
  bool lockstep = true;
};

/// Batch form used by the sweep drivers: one factory per sweep point, all
/// instances solved in a single parallel region (seeds
/// seed0 ... seed0 + instances - 1 within every point, matching a
/// run_comparison call per point). Returns one AlgoStats vector per factory.
/// Solutions and aggregates are bit-identical to calling run_comparison
/// point by point at any job count; see BatchOptions for the metric
/// attribution caveat under sweep_reuse.
std::vector<std::vector<AlgoStats>> run_comparison_batch(
    const std::vector<ProblemFactory>& factories,
    const std::vector<std::unique_ptr<RejectionSolver>>& lineup,
    const ReferenceObjective& reference, int instances, std::uint64_t seed0 = 1, int jobs = 0,
    const BatchOptions& options = {});

}  // namespace retask

#endif  // RETASK_EXP_HARNESS_HPP
