#include "retask/batch/lockstep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "retask/cache/sweep.hpp"
#include "retask/common/bit_matrix.hpp"
#include "retask/common/error.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/greedy.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/simd/kernels.hpp"

namespace retask {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();

std::atomic<int> g_lanes{-1};  // -1: not yet resolved from the environment

int resolve_lanes() {
  const char* env = std::getenv("RETASK_BATCH");
  const std::string name = env != nullptr ? std::string(env) : std::string();
  if (name.empty() || name == "auto") return 4;
  if (name == "off") return 0;
  char* end = nullptr;
  const long parsed = std::strtol(name.c_str(), &end, 10);
  if (end == name.c_str() || *end != '\0' || parsed < 0 || parsed > 64) {
    throw Error("RETASK_BATCH: unknown value '" + name + "' (expected off|auto|<lanes>)");
  }
  return static_cast<int>(parsed);
}

/// Per-lane fill capacity — the single-instance solver's fill_capacity.
std::size_t lane_cap(const RejectionProblem& problem) {
  require(problem.processor_count() == 1, "lockstep: single-processor algorithm");
  const Cycles cap = std::min(problem.cycle_capacity(), problem.tasks().total_cycles());
  require(cap >= 0, "lockstep: negative capacity");
  return static_cast<std::size_t>(cap);
}

/// Lane-major fill state of one lockstep chunk: lane k's value row lives at
/// arena[k * stride] (stride 64-aligned so every lane owns whole choice-bit
/// words), its choice bits at word offset k * stride / 64 of every take
/// row. Cells above a lane's own fill cap are never written or read, so
/// lane k's span is its solo table at capacity cap[k].
struct LaneTables {
  std::size_t stride = 0;        ///< doubles per lane, 64-aligned
  std::vector<std::size_t> cap;  ///< fill capacity per lane
  std::vector<double> arena;     ///< lane k's value row at arena[k * stride]
  BitMatrix take;                ///< n rows of stride * m choice bits
};

/// Fills every lane's knapsack table, each lane by the SAME contiguous
/// relaxation kernel the single-instance solver uses, with per-lane
/// reachability bounds and capacity pruning. The fill is per lane on
/// purpose: the descending relaxation is already vectorized on contiguous
/// cells, while a lane-interleaved traversal must gather strided cells —
/// measured several times slower on AVX2.
void lockstep_fill(const std::vector<const RejectionProblem*>& chunk, LaneTables& tables) {
  const std::size_t m = chunk.size();
  const std::size_t n = chunk[0]->size();
  tables.cap.resize(m);
  std::size_t max_cap = 0;
  for (std::size_t k = 0; k < m; ++k) {
    tables.cap[k] = lane_cap(*chunk[k]);
    max_cap = std::max(max_cap, tables.cap[k]);
  }
  const std::vector<std::size_t>& cap = tables.cap;
  const std::size_t width = max_cap + 1;
  tables.stride = (width + 63) / 64 * 64;  // whole take words per lane
  tables.arena.assign(tables.stride * m, kNegInf);
  tables.take.reset(n, tables.stride * m);
  const std::size_t stride = tables.stride;

  const simd::KernelTable& kernels = simd::kernels();
  // The exact_dp.* counters mirror the serial fill lane by lane (each lane's
  // cell counts use its own cap[k]+1 width), so obs reports stay comparable
  // whether or not the harness batched the solves.
  RETASK_OBS_ONLY(std::uint64_t cells_touched = 0; std::uint64_t cells_skipped = 0;
                  std::uint64_t tasks_pruned = 0;)
  for (std::size_t k = 0; k < m; ++k) {
    double* lane = tables.arena.data() + k * stride;
    lane[0] = 0.0;  // state w == 0
    const std::size_t word_offset = k * stride / 64;
    std::size_t reach = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const FrameTask& task = chunk[k]->tasks()[i];
      const auto ci = static_cast<std::size_t>(task.cycles);
      if (ci > cap[k]) {  // the serial fill prunes this task
        RETASK_OBS_ONLY(++tasks_pruned; cells_skipped += cap[k] + 1;)
      } else {
        const std::size_t top = std::min(cap[k], reach + ci);
        RETASK_OBS_ONLY(cells_touched += top + 1 - ci;
                        cells_skipped += cap[k] + 1 - (top + 1 - ci);)
        kernels.relax_desc_f64(lane, tables.take.row_words(i) + word_offset, ci, ci, top,
                               task.penalty);
        reach = top;
      }
    }
  }
  RETASK_COUNT("exact_dp.solves", m);
  RETASK_COUNT("exact_dp.cells_touched", cells_touched);
  RETASK_COUNT("exact_dp.cells_skipped", cells_skipped);
  RETASK_COUNT("exact_dp.tasks_pruned", tasks_pruned);
  RETASK_OBS_ONLY(for (std::size_t k = 0; k < m; ++k) {
    RETASK_RECORD("exact_dp.table_width", cap[k] + 1);
  })
}

/// Lockstep select over filled lane tables: sweeps rows [0, cap[k]] of every
/// lane for the best objective and reconstructs each lane's accept set off
/// the choice bits. Every lane reproduces the single-instance ExactDpSolver
/// bit for bit: the penalty/energy sweep prunes and the choice-bit
/// reconstruction are exactly the serial ones.
std::vector<RejectionSolution> lockstep_select(const std::vector<const RejectionProblem*>& chunk,
                                               const LaneTables& tables) {
  const std::size_t m = chunk.size();
  const std::size_t n = chunk[0]->size();
  const std::size_t stride = tables.stride;
  const std::vector<double>& arena = tables.arena;
  const BitMatrix& take = tables.take;
  const std::vector<std::size_t>& cap = tables.cap;
  std::size_t width = 0;
  for (std::size_t k = 0; k < m; ++k) width = std::max(width, cap[k] + 1);
  const simd::KernelTable& kernels = simd::kernels();
  // Select-scan attribution: retask_bench divides this by the enclosing
  // batch timer to report the select's share of lockstep time (timers never
  // enter the gated bench metrics).
  RETASK_SCOPED_TIMER("batch.select_scan_ns");

  // Chunked select: the serial sweep per lane, with the energy reads of all
  // lanes for one 64-row chunk fused into a single chunk read over the
  // union mask (core/dp_select.hpp's predict / chunk read / replay). The
  // rows needed are predicted at chunk start; the prediction is a superset
  // of the true need (the best objective only improves within a chunk), and
  // E is pure, so extra reads cannot change a bit. Both the predict
  // scan and the replay's row walk run off one select_mask_f64 word per
  // lane per chunk: bit w - w0 is set iff total - kept < snapshot, which
  // folds the -inf reachability skip into the bound compare, and ascending
  // bit iteration visits exactly the rows the scalar scan visited, in the
  // same order (rows the mask over-predicts are re-pruned against the live
  // best, exactly as the scalar replay re-checks them).
  std::vector<double> total(m);
  std::vector<double> best_obj(m, kPosInf);
  std::vector<double> snapshot(m, kPosInf);
  std::vector<std::size_t> best_w(m, 0);
  std::vector<char> done(m, 0);
  std::vector<std::uint64_t> lane_mask(m, 0);
  for (std::size_t k = 0; k < m; ++k) total[k] = chunk[k]->tasks().total_penalty();
  double scratch[64] = {0.0};  // gather slots of non-dense chunk reads
  RETASK_OBS_ONLY(std::uint64_t scan_words = 0;)
  for (std::size_t w0 = 0; w0 < width; w0 += 64) {
    const std::size_t w1 = std::min(width, w0 + 64);
    std::uint64_t need_mask = 0;
    bool all_done = true;
    for (std::size_t k = 0; k < m; ++k) {
      lane_mask[k] = 0;
      if (done[k]) continue;
      all_done = false;
      snapshot[k] = best_obj[k];
      if (w0 > cap[k]) continue;
      const std::size_t rows = std::min(w1, cap[k] + 1) - w0;
      lane_mask[k] =
          kernels.select_mask_f64(arena.data() + k * stride + w0, rows, total[k], snapshot[k]);
      need_mask |= lane_mask[k];
    }
    if (all_done) break;
    if (need_mask == 0) continue;
    // One chunk read for the union of the lanes' rows; the view stays valid
    // through the lane scans (no other memo call intervenes).
    const double* energy_at = chunk[0]->energy_chunk(w0, need_mask, scratch);
    RETASK_COUNT("batch.select_energy_evals", __builtin_popcountll(need_mask));
    // Kernelized replay of every live lane's decision walk over its masked
    // rows (same prunes, same early-exit, same improvement order as the
    // serial sweep; see select_scan_f64 in simd/kernels.hpp).
    for (std::size_t k = 0; k < m; ++k) {
      if (done[k] || lane_mask[k] == 0) continue;
      RETASK_OBS_ONLY(++scan_words;)
      const std::size_t rows = std::min(w1, cap[k] + 1) - w0;
      done[k] = kernels.select_scan_f64(arena.data() + k * stride + w0, energy_at, rows,
                                        lane_mask[k], total[k], w0, &best_obj[k],
                                        &best_w[k]) != 0
                    ? 1
                    : 0;
    }
  }
  RETASK_COUNT("batch.select_scan_words", scan_words);

  std::vector<RejectionSolution> out;
  out.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    RETASK_ASSERT(best_obj[k] < kPosInf);
    std::vector<bool> accepted(n, false);
    std::size_t w = best_w[k];
    for (std::size_t i = n; i-- > 0;) {
      if (take.test(i, k * stride + w)) {
        accepted[i] = true;
        w -= static_cast<std::size_t>(chunk[k]->tasks()[i].cycles);
      }
    }
    RETASK_ASSERT(w == 0);
    out.push_back(make_solution_on_one(*chunk[k], std::move(accepted)));
  }
  return out;
}

/// Lockstep exact DP over one same-shape chunk: one shared fill, one fused
/// select. The shared win of the batch is the select — one fused
/// cycles->energy evaluation per needed row instead of one solo evaluation
/// per lane per row (the shape check guarantees identical curves).
std::vector<RejectionSolution> lockstep_exact_dp(
    const std::vector<const RejectionProblem*>& chunk) {
  LaneTables tables;
  lockstep_fill(chunk, tables);
  return lockstep_select(chunk, tables);
}

/// Lockstep density greedy: per-lane density orders and feasibility
/// rejection, then one position-by-position pass where the two energy
/// probes of every live lane are fused into one batched evaluation.
/// Returns the accept masks (also the marginal solver's seed).
std::vector<std::vector<bool>> lockstep_density_masks(
    const std::vector<const RejectionProblem*>& chunk) {
  const std::size_t m = chunk.size();
  const std::size_t n = chunk[0]->size();
  std::vector<std::vector<std::size_t>> order(m);
  std::vector<std::vector<bool>> accepted(m);
  std::vector<Cycles> load(m, 0);
  for (std::size_t k = 0; k < m; ++k) {
    require(chunk[k]->processor_count() == 1, "lockstep: single-processor algorithm");
    order[k] = density_order(*chunk[k]);
    accepted[k].assign(n, true);
    load[k] = reject_until_feasible(*chunk[k], order[k], accepted[k]);
  }
  // Parity with the serial density pass (the marginal solver also seeds
  // through it, so both lockstep callers inherit the count here).
  RETASK_COUNT("greedy.density_solves", m);

  std::vector<Cycles> probes;
  std::vector<double> energies;
  RETASK_OBS_ONLY(std::uint64_t rejections = 0;)
  for (std::size_t j = 0; j < n; ++j) {
    probes.clear();
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t i = order[k][j];
      if (!accepted[k][i]) continue;
      probes.push_back(load[k]);
      probes.push_back(load[k] - chunk[k]->tasks()[i].cycles);
    }
    if (probes.empty()) continue;
    energies.resize(probes.size());
    chunk[0]->energy_of_cycles_batch(probes.data(), energies.data(), probes.size());
    std::size_t p = 0;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t i = order[k][j];
      if (!accepted[k][i]) continue;
      const double saving = energies[p] - energies[p + 1];
      p += 2;
      const FrameTask& task = chunk[k]->tasks()[i];
      if (saving > task.penalty) {
        accepted[k][i] = false;
        load[k] -= task.cycles;
        RETASK_OBS_ONLY(++rejections;)
      }
    }
  }
  RETASK_COUNT("greedy.density_rejections", rejections);
  return accepted;
}

std::vector<RejectionSolution> lockstep_density(
    const std::vector<const RejectionProblem*>& chunk) {
  std::vector<std::vector<bool>> masks = lockstep_density_masks(chunk);
  std::vector<RejectionSolution> out;
  out.reserve(chunk.size());
  for (std::size_t k = 0; k < chunk.size(); ++k) {
    out.push_back(make_solution_on_one(*chunk[k], std::move(masks[k])));
  }
  return out;
}

/// Lockstep marginal greedy: density-seeded steepest descent, one round per
/// iteration across all live lanes, with every probe load of every lane
/// fused into one batched energy call. Each lane runs exactly the serial
/// round sequence (same probes, same deltas, same argmin, same stopping
/// round), lanes that converge drop out of the batch.
std::vector<RejectionSolution> lockstep_marginal(
    const std::vector<const RejectionProblem*>& chunk) {
  const std::size_t m = chunk.size();
  const std::size_t n = chunk[0]->size();
  std::vector<std::vector<bool>> accepted = lockstep_density_masks(chunk);
  std::vector<Cycles> load(m, 0);
  std::vector<char> done(m, 0);
  for (std::size_t k = 0; k < m; ++k) load[k] = chunk[k]->accepted_cycles(accepted[k]);
  RETASK_COUNT("greedy.marginal_solves", m);

  const simd::KernelTable& kernels = simd::kernels();
  const std::size_t max_moves = 4 * n * n + 16;
  std::vector<Cycles> probes;
  std::vector<double> energies;
  std::vector<double> delta(n, kPosInf);
  for (std::size_t move = 0; move < max_moves; ++move) {
    probes.clear();
    for (std::size_t k = 0; k < m; ++k) {
      if (done[k]) continue;
      probes.push_back(load[k]);  // E at the current load, hoisted per round
      for (std::size_t i = 0; i < n; ++i) {
        const FrameTask& task = chunk[k]->tasks()[i];
        if (accepted[k][i]) {
          probes.push_back(load[k] - task.cycles);
        } else if (load[k] + task.cycles <= chunk[k]->cycle_capacity()) {
          probes.push_back(load[k] + task.cycles);
        }
      }
    }
    if (probes.empty()) break;  // every lane converged
    energies.resize(probes.size());
    chunk[0]->energy_of_cycles_batch(probes.data(), energies.data(), probes.size());

    std::size_t p = 0;
    for (std::size_t k = 0; k < m; ++k) {
      if (done[k]) continue;
      const double energy_at_load = energies[p++];
      const double objective = energy_at_load + chunk[k]->rejected_penalty(accepted[k]);
      delta.assign(n, kPosInf);
      for (std::size_t i = 0; i < n; ++i) {
        const FrameTask& task = chunk[k]->tasks()[i];
        if (accepted[k][i]) {
          delta[i] = task.penalty - (energy_at_load - energies[p++]);
        } else if (load[k] + task.cycles <= chunk[k]->cycle_capacity()) {
          delta[i] = (energies[p++] - energy_at_load) - task.penalty;
        }
      }
      const double threshold = -1e-12 * std::max(objective, 1.0);
      const std::size_t best_index = kernels.argmin_strided_f64(delta.data(), n, 1, threshold);
      if (best_index == simd::kNpos) {
        done[k] = 1;
        continue;
      }
      if (accepted[k][best_index]) {
        accepted[k][best_index] = false;
        load[k] -= chunk[k]->tasks()[best_index].cycles;
      } else {
        accepted[k][best_index] = true;
        load[k] += chunk[k]->tasks()[best_index].cycles;
      }
    }
  }

  std::vector<RejectionSolution> out;
  out.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    out.push_back(make_solution_on_one(*chunk[k], std::move(accepted[k])));
  }
  return out;
}

enum class LockstepKind { kNone, kExactDp, kDensity, kMarginal };

LockstepKind kind_of(const RejectionSolver& solver) {
  if (dynamic_cast<const ExactDpSolver*>(&solver) != nullptr) return LockstepKind::kExactDp;
  if (dynamic_cast<const DensityGreedySolver*>(&solver) != nullptr) return LockstepKind::kDensity;
  if (dynamic_cast<const MarginalGreedySolver*>(&solver) != nullptr) {
    return LockstepKind::kMarginal;
  }
  return LockstepKind::kNone;
}

}  // namespace

int lockstep_lanes() {
  int lanes = g_lanes.load(std::memory_order_acquire);
  if (lanes < 0) {
    lanes = resolve_lanes();  // deterministic: a first-use race is benign
    g_lanes.store(lanes, std::memory_order_release);
  }
  return lanes;
}

void set_lockstep_lanes(int lanes) {
  require(lanes >= 0 && lanes <= 64, "set_lockstep_lanes: lanes must be in [0, 64]");
  g_lanes.store(lanes, std::memory_order_release);
}

bool same_shape(const RejectionProblem& a, const RejectionProblem& b) {
  // Platform equality (curve/work_per_cycle; see cache/sweep.hpp) plus the
  // lane-layout constraints: same task count and the single-processor form.
  return a.size() == b.size() && a.processor_count() == 1 && b.processor_count() == 1 &&
         a.cycle_capacity() == b.cycle_capacity() && same_platforms(a, b);
}

BatchRejectionSolver::BatchRejectionSolver(const RejectionSolver& base, BatchConfig config)
    : base_(&base), config_(config) {}

std::string BatchRejectionSolver::name() const { return base_->name() + "+LOCKSTEP"; }

std::vector<RejectionSolution> BatchRejectionSolver::solve_batch(
    const std::vector<const RejectionProblem*>& problems) const {
  const std::size_t count = problems.size();
  std::vector<RejectionSolution> out(count);
  const int lanes_cfg = config_.lanes < 0 ? lockstep_lanes() : config_.lanes;
  const LockstepKind kind = kind_of(*base_);
  if (lanes_cfg < 2 || kind == LockstepKind::kNone || count < 2) {
    for (std::size_t i = 0; i < count; ++i) out[i] = base_->solve(*problems[i]);
    RETASK_COUNT("batch.scalar_fallbacks", count);
    return out;
  }
  RETASK_SCOPED_TIMER("batch.lockstep_ns");
  const auto lanes = static_cast<std::size_t>(lanes_cfg);

  // First-fit shape grouping; groups and their chunks keep input order, so
  // lane assignment is deterministic for a fixed batch.
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < count; ++i) {
    bool placed = false;
    for (std::vector<std::size_t>& group : groups) {
      if (same_shape(*problems[group[0]], *problems[i])) {
        group.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({i});
  }
  RETASK_COUNT("batch.solves", 1);
  RETASK_COUNT("batch.groups", groups.size());

  std::vector<const RejectionProblem*> chunk;
  for (const std::vector<std::size_t>& group : groups) {
    for (std::size_t pos = 0; pos < group.size(); pos += lanes) {
      const std::size_t chunk_size = std::min(lanes, group.size() - pos);
      if (chunk_size < 2) {
        out[group[pos]] = base_->solve(*problems[group[pos]]);
        RETASK_COUNT("batch.scalar_fallbacks", 1);
        continue;
      }
      chunk.assign(chunk_size, nullptr);
      for (std::size_t j = 0; j < chunk_size; ++j) chunk[j] = problems[group[pos + j]];
      std::vector<RejectionSolution> solved;
      switch (kind) {
        case LockstepKind::kExactDp:
          solved = lockstep_exact_dp(chunk);
          break;
        case LockstepKind::kDensity:
          solved = lockstep_density(chunk);
          break;
        case LockstepKind::kMarginal:
          solved = lockstep_marginal(chunk);
          break;
        case LockstepKind::kNone:
          break;  // unreachable: handled above
      }
      for (std::size_t j = 0; j < chunk_size; ++j) {
        out[group[pos + j]] = std::move(solved[j]);
      }
      RETASK_COUNT("batch.lockstep_chunks", 1);
      RETASK_COUNT("batch.lanes_filled", chunk_size);
      RETASK_COUNT("batch.padding_waste", lanes - chunk_size);
    }
  }
  return out;
}

}  // namespace retask
