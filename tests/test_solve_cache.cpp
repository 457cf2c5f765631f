// Sweep-aware solve caching: warm-vs-cold bit-identity of the prefix-DP
// sweep paths, the shared energy memo, and the harness's grouped solving —
// plus the energy-monotonicity property the warm starts lean on (reading a
// smaller capacity off a larger table only works because E(W) is a pure,
// non-decreasing function of the accepted load).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "retask/batch/lockstep.hpp"
#include "retask/cache/energy_memo.hpp"
#include "retask/cache/energy_row.hpp"
#include "retask/cache/sweep.hpp"
#include "retask/common/error.hpp"
#include "retask/common/parallel.hpp"
#include "retask/common/rng.hpp"
#include "retask/core/algorithm_registry.hpp"
#include "retask/core/budgeted.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/exp/harness.hpp"
#include "retask/exp/workload.hpp"
#include "retask/io/cli_options.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/serve/delta_solver.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

// ---------------------------------------------------------------------------
// Energy monotonicity: E(cycles) is non-decreasing in the accepted load for
// every registered power model, both idle disciplines, and with dormant
// overheads. Executing always draws at least the idle power, so accepting
// more work can never save energy — the property the capacity warm start
// and the budget binary search both rely on.

struct MonotoneCase {
  const char* model;
  IdleDiscipline idle;
  SleepParams sleep;
};

class EnergyMonotonicity : public ::testing::TestWithParam<MonotoneCase> {};

TEST_P(EnergyMonotonicity, EnergyOfCyclesIsNonDecreasing) {
  const MonotoneCase& param = GetParam();
  const std::unique_ptr<PowerModel> model = make_model_by_name(param.model);
  const EnergyCurve curve(*model, /*window=*/1.0, param.idle, param.sleep);
  const Cycles cap = 400;
  const RejectionProblem problem(FrameTaskSet({{0, cap, 1.0}}), curve,
                                 curve.max_workload() / static_cast<double>(cap), 1);
  double previous = problem.energy_of_cycles(0);
  EXPECT_GE(previous, 0.0);
  for (Cycles c = 1; c <= cap; ++c) {
    const double energy = problem.energy_of_cycles(c);
    // Exact comparison up to accumulated rounding in the hull evaluation.
    EXPECT_GE(energy, previous - 1e-9 * std::max(1.0, previous))
        << param.model << " cycles=" << c;
    previous = energy;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, EnergyMonotonicity,
    ::testing::Values(MonotoneCase{"xscale", IdleDiscipline::kDormantEnable, {}},
                      MonotoneCase{"xscale", IdleDiscipline::kDormantDisable, {}},
                      MonotoneCase{"xscale", IdleDiscipline::kDormantEnable, {0.02, 0.05}},
                      MonotoneCase{"cubic", IdleDiscipline::kDormantEnable, {}},
                      MonotoneCase{"cubic", IdleDiscipline::kDormantDisable, {}},
                      MonotoneCase{"cubic", IdleDiscipline::kDormantEnable, {0.05, 0.1}},
                      MonotoneCase{"table5", IdleDiscipline::kDormantEnable, {}},
                      MonotoneCase{"table5", IdleDiscipline::kDormantDisable, {}},
                      MonotoneCase{"table5", IdleDiscipline::kDormantEnable, {0.01, 0.02}}));

// ---------------------------------------------------------------------------
// Warm-vs-cold bit-identity: the sweep entry points promise the same bits
// as per-point cold solves, so every comparison below is exact (EXPECT_EQ
// on doubles, whole accept masks).

TEST(SweepCache, CapacitySweepMatchesColdSolvesBitForBit) {
  const std::vector<double> factors = {0.9, 0.45, 1.0, 0.6, 0.35};  // unsorted on purpose
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RejectionProblem base =
        test::small_instance(seed, 12, 1.5, /*penalty_scale=*/seed % 2 ? 1.0 : 0.2);
    const std::vector<RejectionProblem> points = make_capacity_sweep(base, factors);
    std::vector<const RejectionProblem*> group;
    for (const RejectionProblem& point : points) group.push_back(&point);
    const std::vector<RejectionSolution> warm = ExactDpSolver().solve_sweep(group);
    ASSERT_EQ(warm.size(), points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      const RejectionSolution cold = ExactDpSolver().solve(points[p]);
      EXPECT_EQ(warm[p].accepted, cold.accepted) << "seed=" << seed << " point=" << p;
      EXPECT_EQ(warm[p].energy, cold.energy) << "seed=" << seed << " point=" << p;
      EXPECT_EQ(warm[p].penalty, cold.penalty) << "seed=" << seed << " point=" << p;
    }
  }
}

TEST(SweepCache, SweepFallsBackWhenTaskSetsDiffer) {
  // Different seeds draw different task sets: solve_sweep must detect the
  // broken precondition and still return per-point optimal bits.
  const RejectionProblem a = test::small_instance(3, 10, 1.4);
  const RejectionProblem b = test::small_instance(4, 10, 1.4);
  const std::vector<const RejectionProblem*> group = {&a, &b};
  const std::vector<RejectionSolution> warm = ExactDpSolver().solve_sweep(group);
  ASSERT_EQ(warm.size(), 2u);
  const RejectionSolution cold_a = ExactDpSolver().solve(a);
  const RejectionSolution cold_b = ExactDpSolver().solve(b);
  EXPECT_EQ(warm[0].accepted, cold_a.accepted);
  EXPECT_EQ(warm[1].accepted, cold_b.accepted);
  EXPECT_EQ(warm[0].energy, cold_a.energy);
  EXPECT_EQ(warm[1].energy, cold_b.energy);
}

TEST(SweepCache, BudgetedSweepMatchesColdSolvesBitForBit) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RejectionProblem base = test::small_instance(seed, 12, 1.4);
    BudgetedProblem problem{base.tasks(), base.curve(), base.work_per_cycle(), 1.0};
    const Cycles cap = std::min<Cycles>(base.cycle_capacity(), base.tasks().total_cycles());
    ASSERT_GE(cap, 1);
    // Budgets at varied fills, deliberately out of order.
    std::vector<double> budgets;
    for (const double fill : {0.8, 0.3, 1.0, 0.55}) {
      const double budget = base.energy_of_cycles(
          std::max<Cycles>(static_cast<Cycles>(static_cast<double>(cap) * fill), 1));
      if (budget > 0.0) budgets.push_back(budget);
    }
    ASSERT_FALSE(budgets.empty());
    const std::vector<BudgetedSolution> warm = solve_budgeted_dp_sweep(problem, budgets);
    ASSERT_EQ(warm.size(), budgets.size());
    for (std::size_t b = 0; b < budgets.size(); ++b) {
      BudgetedProblem cold_problem = problem;
      cold_problem.energy_budget = budgets[b];
      const BudgetedSolution cold = solve_budgeted_dp(cold_problem);
      EXPECT_EQ(warm[b].accepted, cold.accepted) << "seed=" << seed << " budget=" << b;
      EXPECT_EQ(warm[b].value, cold.value) << "seed=" << seed << " budget=" << b;
      EXPECT_EQ(warm[b].energy, cold.energy) << "seed=" << seed << " budget=" << b;
    }
  }
}

// ---------------------------------------------------------------------------
// EnergyMemo: memoized lookups return the cold path's bits, per-thread
// shards never race, and a memo-attached problem is observably identical.

TEST(EnergyMemoTest, MemoizedProblemMatchesColdBits) {
  const RejectionProblem cold = test::small_instance(5, 10, 1.5);
  RejectionProblem warm = cold;
  warm.attach_energy_memo(std::make_shared<EnergyMemo>());
  for (Cycles c = 0; c <= cold.cycle_capacity(); ++c) {
    EXPECT_EQ(warm.energy_of_cycles(c), cold.energy_of_cycles(c)) << "cycles=" << c;
  }
  // Second pass hits the memo and must still return the identical bits.
  for (Cycles c = 0; c <= cold.cycle_capacity(); ++c) {
    EXPECT_EQ(warm.energy_of_cycles(c), cold.energy_of_cycles(c)) << "cycles=" << c;
  }
}

TEST(EnergyMemoTest, ComputesOncePerCyclesPerThread) {
  EnergyMemo memo;
  std::atomic<int> computes{0};
  const auto compute = [&](Cycles cycles) {
    computes.fetch_add(1, std::memory_order_relaxed);
    return static_cast<double>(cycles) * 2.0;
  };
  EXPECT_EQ(memo.get_or_compute(7, compute), 14.0);
  EXPECT_EQ(memo.get_or_compute(7, compute), 14.0);
  EXPECT_EQ(memo.get_or_compute(9, compute), 18.0);
  EXPECT_EQ(computes.load(), 2);
  EXPECT_EQ(memo.local_size(), 2u);
  EXPECT_GE(memo.shard_count(), 1u);
}

TEST(EnergyMemoTest, SharedAcrossWorkersReturnsColdValues) {
  const RejectionProblem cold = test::small_instance(6, 10, 1.5);
  const auto memo = std::make_shared<EnergyMemo>();
  RejectionProblem warm = cold;
  warm.attach_energy_memo(memo);
  // Reference values computed before the parallel region (cold path).
  std::vector<double> expected;
  for (Cycles c = 0; c <= cold.cycle_capacity(); ++c) {
    expected.push_back(cold.energy_of_cycles(c));
  }
  const std::size_t rounds = 64;
  std::vector<double> got(rounds * expected.size(), -1.0);
  parallel_for(
      rounds,
      [&](std::size_t r) {
        // Every round revisits every cycle count, so threads repeatedly hit
        // and populate their own shards concurrently.
        for (std::size_t c = 0; c < expected.size(); ++c) {
          got[r * expected.size() + c] = warm.energy_of_cycles(static_cast<Cycles>(c));
        }
      },
      /*jobs=*/8);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i % expected.size()]);
  }
}

// ---------------------------------------------------------------------------
// The chunk accessor (EnergyMemo::chunk through RejectionProblem::
// energy_chunk): dense, hash and memo-free reads of one 64-row chunk hand
// back exactly the bits of one-at-a-time evaluation, including chunks that
// straddle the dense width, and a pointer taken before the dense row grows
// is never needed again — each chunk read re-acquires it.

enum class MemoMode { kNone, kHash, kDense };

/// xscale platform whose cycle capacity (256) covers every row read below.
RejectionProblem chunk_problem(MemoMode mode, Cycles dense_capacity) {
  const EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  RejectionProblem problem(FrameTaskSet({{0, 10, 1.0}}), curve, curve.max_workload() / 256.0, 1);
  if (mode != MemoMode::kNone) {
    auto memo = std::make_shared<EnergyMemo>();
    if (mode == MemoMode::kDense) memo->reserve_dense(dense_capacity);
    problem.attach_energy_memo(std::move(memo));
  }
  return problem;
}

void expect_chunk_bits(const RejectionProblem& problem, const RejectionProblem& cold,
                       std::size_t w0, std::uint64_t mask, const char* where) {
  double scratch[64] = {0.0};
  const double* energy = problem.energy_chunk(w0, mask, scratch);
  double sum = 0.0;  // every slot is readable (sanitizer builds check it)
  for (std::size_t b = 0; b < 64; ++b) sum += energy[b];
  EXPECT_FALSE(std::isnan(sum)) << where;
  for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
    const auto b = static_cast<std::size_t>(__builtin_ctzll(bits));
    const double want = cold.energy_of_cycles(static_cast<Cycles>(w0 + b));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(energy[b]), std::bit_cast<std::uint64_t>(want))
        << where << " w0=" << w0 << " row=" << b;
  }
}

TEST(EnergyChunk, DenseHashAndMemoFreeReadsMatchColdBits) {
  const RejectionProblem cold = chunk_problem(MemoMode::kNone, 0);
  const std::uint64_t masks[] = {std::uint64_t{1}, std::uint64_t{1} << 63, ~std::uint64_t{0},
                                 0x00f0'0000'0000'0f0full};
  for (const Cycles capacity : {63, 64, 65}) {
    for (const MemoMode mode : {MemoMode::kNone, MemoMode::kHash, MemoMode::kDense}) {
      const RejectionProblem problem = chunk_problem(mode, capacity);
      // Two passes: the first records misses, the second replays hits.
      for (int pass = 0; pass < 2; ++pass) {
        for (const std::size_t w0 : {0u, 64u, 128u}) {
          for (const std::uint64_t mask : masks) {
            expect_chunk_bits(problem, cold, w0, mask, "chunk read");
          }
        }
      }
    }
  }
}

TEST(EnergyChunk, PointerIsReacquiredWhenTheDenseRowGrows) {
  const RejectionProblem cold = chunk_problem(MemoMode::kNone, 0);
  const RejectionProblem problem = chunk_problem(MemoMode::kDense, 100);
  const std::uint64_t low = (std::uint64_t{1} << 36) - 1;  // rows 64..99
  expect_chunk_bits(problem, cold, 64, low, "before growth");
  // Growing the reservation reallocates the dense row on the next read.
  problem.energy_memo()->reserve_dense(250);
  expect_chunk_bits(problem, cold, 128, ~std::uint64_t{0}, "grown row");
  expect_chunk_bits(problem, cold, 64, ~std::uint64_t{0}, "rows kept across growth");
  expect_chunk_bits(problem, cold, 0, ~std::uint64_t{0}, "first chunk after growth");
}

TEST(EnergyChunk, DeltaSolverBeyondTheDenseLimitMatchesColdSolves) {
  // A capacity whose row exceeds EnergyMemo::kDenseLimit: the solver's
  // reserve_dense request is ignored and its select gathers through the
  // hash path — the answers must not change.
  const auto capacity = static_cast<double>(EnergyMemo::kDenseLimit + 1000);
  const EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  DeltaSolver delta(curve, curve.max_workload() / capacity);
  ASSERT_GE(static_cast<std::size_t>(delta.cycle_capacity()), EnergyMemo::kDenseLimit);
  const auto expect_cold = [&](const char* where) {
    const RejectionSolution cold = ExactDpSolver().solve(delta.make_problem());
    EXPECT_EQ(delta.solution().accepted, cold.accepted) << where;
    EXPECT_EQ(delta.solution().energy, cold.energy) << where;
    EXPECT_EQ(delta.solution().penalty, cold.penalty) << where;
  };
  const Cycles unit = delta.cycle_capacity() / 5;
  const std::vector<FrameTask> tasks = {{1, 2 * unit, 0.9},     {2, unit + 17, 0.3},
                                        {3, 3 * unit + 5, 1.4}, {4, unit / 2, 0.05},
                                        {5, 2 * unit - 3, 0.7}};
  for (const FrameTask& task : tasks) {
    delta.admit(task);
    expect_cold("admit");
  }
  delta.reprice(2, 2.5);
  expect_cold("reprice");
  delta.remove(3);
  expect_cold("remove");
}

// ---------------------------------------------------------------------------
// EnergyRow: the grid-wide row computes each E(w) once across threads,
// hands back cold bits, survives a throwing batch, and — attached under a
// memo — leaves the memo's hit/miss accounting exactly as it was.

/// Cold energies of rows [0, width) of chunk_problem's platform.
std::vector<double> cold_row(std::size_t width) {
  const RejectionProblem cold = chunk_problem(MemoMode::kNone, 0);
  std::vector<double> energy(width);
  for (std::size_t w = 0; w < width; ++w) energy[w] = cold.energy_of_cycles(static_cast<Cycles>(w));
  return energy;
}

TEST(EnergyRowTest, ConcurrentOverlappingReadsComputeEachRowOnce) {
  const RejectionProblem cold = chunk_problem(MemoMode::kNone, 0);
  const std::size_t width = static_cast<std::size_t>(cold.cycle_capacity()) + 1;  // 257
  const std::vector<double> expected = cold_row(width);
  EnergyRow row(width);
  std::vector<std::atomic<int>> computed(width);
  const auto batch = [&](const Cycles* cycles, double* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      computed[static_cast<std::size_t>(cycles[i])].fetch_add(1, std::memory_order_relaxed);
      out[i] = cold.energy_of_cycles(cycles[i]);
    }
  };
  constexpr std::size_t kThreads = 8;
  constexpr int kReads = 200;
  std::vector<std::vector<char>> read(kThreads, std::vector<char>(width, 0));
  std::atomic<int> mismatches{0};
  parallel_for(
      kThreads,
      [&](std::size_t t) {
        Rng rng(1000 + t);
        for (int r = 0; r < kReads; ++r) {
          const std::size_t w0 = 64 * static_cast<std::size_t>(rng.uniform_int(0, 4));
          const std::uint64_t mask = row.inside(w0, rng() & rng());
          double dst[64];
          row.fill(w0, mask, dst, batch);
          for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
            const std::size_t w = w0 + static_cast<std::size_t>(__builtin_ctzll(bits));
            read[t][w] = 1;
            if (std::bit_cast<std::uint64_t>(dst[w - w0]) !=
                std::bit_cast<std::uint64_t>(expected[w])) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      },
      /*jobs=*/static_cast<int>(kThreads));
  EXPECT_EQ(mismatches.load(), 0);
  std::size_t distinct = 0;
  for (std::size_t w = 0; w < width; ++w) {
    bool any = false;
    for (std::size_t t = 0; t < kThreads; ++t) any = any || read[t][w] != 0;
    distinct += any ? 1 : 0;
    EXPECT_EQ(computed[w].load(), any ? 1 : 0) << "row " << w;
  }
  EXPECT_GT(distinct, width / 2);  // the masks really overlapped the row
}

TEST(EnergyRowTest, ThrowingBatchReleasesItsClaim) {
  const std::size_t width = 200;
  const std::vector<double> expected = cold_row(width);
  EnergyRow row(width);
  const Cycles poisoned = 70;
  std::atomic<bool> armed{true};
  const auto batch = [&](const Cycles* cycles, double* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (cycles[i] == poisoned && armed.exchange(false)) throw Error("poisoned row");
      out[i] = expected[static_cast<std::size_t>(cycles[i])];
    }
  };
  double dst[64];
  EXPECT_THROW(row.fill(64, ~std::uint64_t{0}, dst, batch), Error);
  // The claim on the failed batch is gone: a later call (here from other
  // threads, which would spin forever on a leaked claim) computes the rows.
  std::vector<std::vector<double>> got(4, std::vector<double>(64, -1.0));
  parallel_for(
      4, [&](std::size_t t) { row.fill(64, ~std::uint64_t{0}, got[t].data(), batch); },
      /*jobs=*/4);
  for (const std::vector<double>& values : got) {
    for (std::size_t b = 0; b < 64; ++b) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(values[b]),
                std::bit_cast<std::uint64_t>(expected[64 + b]))
          << "row " << 64 + b;
    }
  }
}

#if defined(RETASK_OBS_ENABLED) && RETASK_OBS_ENABLED
TEST(EnergyRowTest, AttachedRowKeepsTheMemoCounters) {
  const RejectionProblem cold = chunk_problem(MemoMode::kNone, 0);
  const auto row = std::make_shared<EnergyRow>(200);  // narrower than the 257-row problem
  // Warm the row from another memo first: the counted memo must still see
  // every one of its own first reads as a miss.
  {
    RejectionProblem other = cold;
    auto memo = std::make_shared<EnergyMemo>();
    memo->attach_row(row);
    other.attach_energy_memo(memo);
    double scratch[64];
    for (const std::size_t w0 : {0u, 64u, 128u, 192u}) {
      (void)other.energy_chunk(w0, ~std::uint64_t{0}, scratch);
    }
  }
  const auto counters = [&](bool with_row) {
    RejectionProblem problem = cold;
    auto memo = std::make_shared<EnergyMemo>();
    if (with_row) memo->attach_row(row);
    problem.attach_energy_memo(memo);
    obs::Registry metrics;
    {
      obs::ActiveScope scope(metrics);
      double scratch[64];
      for (int pass = 0; pass < 2; ++pass) {
        for (const std::size_t w0 : {0u, 64u, 128u, 192u, 256u}) {
          // Row 256 is the capacity: its chunk holds one readable row.
          const std::uint64_t mask = 0x00ff'00f0'f00f'0f01ull << pass;
          (void)problem.energy_chunk(w0, w0 == 256 ? std::uint64_t{1} : mask, scratch);
        }
        for (const Cycles c : {3, 3, 70, 199, 200, 256, 5}) (void)problem.energy_of_cycles(c);
      }
    }
    const auto counter = [&](const char* name) {
      return metrics.counter(obs::intern_metric(obs::MetricKind::kCounter, name));
    };
    return std::pair{counter("cache.energy_hits"), counter("cache.energy_misses")};
  };
  const auto with_row = counters(true);
  const auto without_row = counters(false);
  EXPECT_GT(with_row.first, 0u);
  EXPECT_GT(with_row.second, 0u);
  EXPECT_EQ(with_row, without_row);
}
#endif  // RETASK_OBS_ENABLED

// ---------------------------------------------------------------------------
// Harness: grouped sweep solving and per-cell memos change nothing about
// the aggregates, at any job count.

std::vector<std::vector<AlgoStats>> run_batch(const BatchOptions& options, int jobs) {
  std::vector<ProblemFactory> factories;
  for (const double factor : {1.0, 0.8, 0.6}) {
    factories.push_back([factor](std::uint64_t seed) {
      return make_capacity_sweep(test::small_instance(seed, 10, 1.4), {factor}).front();
    });
  }
  const auto reference = [](const RejectionProblem& p) { return fractional_lower_bound(p); };
  const auto lineup = standard_uniproc_lineup();
  return run_comparison_batch(factories, lineup, reference, /*instances=*/4,
                              /*seed0=*/11, jobs, options);
}

void expect_same_aggregates(const std::vector<std::vector<AlgoStats>>& a,
                            const std::vector<std::vector<AlgoStats>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].size(), b[p].size());
    for (std::size_t s = 0; s < a[p].size(); ++s) {
      EXPECT_EQ(a[p][s].name, b[p][s].name);
      EXPECT_EQ(a[p][s].ratio.count(), b[p][s].ratio.count());
      EXPECT_EQ(a[p][s].ratio.mean(), b[p][s].ratio.mean());
      EXPECT_EQ(a[p][s].ratio.min(), b[p][s].ratio.min());
      EXPECT_EQ(a[p][s].ratio.max(), b[p][s].ratio.max());
      EXPECT_EQ(a[p][s].acceptance.mean(), b[p][s].acceptance.mean());
      EXPECT_EQ(a[p][s].objective.mean(), b[p][s].objective.mean());
      EXPECT_EQ(a[p][s].objective.min(), b[p][s].objective.min());
      EXPECT_EQ(a[p][s].objective.max(), b[p][s].objective.max());
    }
  }
}

TEST(HarnessSweepCache, GroupedSolvingMatchesColdHarnessBitForBit) {
  BatchOptions cold;
  cold.sweep_reuse = false;
  cold.cell_energy_memo = false;
  expect_same_aggregates(run_batch(cold, /*jobs=*/1), run_batch({}, /*jobs=*/1));
}

TEST(HarnessSweepCache, GroupedSolvingIsJobCountInvariant) {
  expect_same_aggregates(run_batch({}, /*jobs=*/1), run_batch({}, /*jobs=*/8));
}

// The grid-wide energy rows: a capacity sweep over at least three blocks,
// one of whose factories varies its platform with the seed (so the
// same_platforms guard must refuse that point's row for some cells), gives
// the same aggregates at jobs 1 and 4 and without any memo, and the same
// solver counters at jobs 1 and 4.
TEST(HarnessSweepCache, EnergyRowsChangeNoAggregateOrCounter) {
  std::vector<ProblemFactory> factories;
  for (const double factor : {1.0, 0.7, 0.45}) {
    factories.push_back([factor](std::uint64_t seed) {
      return make_capacity_sweep(test::small_instance(seed, 10, 1.4), {factor}).front();
    });
  }
  factories.push_back([](std::uint64_t seed) {
    return make_capacity_sweep(test::small_instance(seed, 10, 1.4), {seed % 3 == 0 ? 0.8 : 0.85})
        .front();
  });
  const auto reference = [](const RejectionProblem& p) { return fractional_lower_bound(p); };
  const auto lineup = standard_uniproc_lineup();
  const int lanes = std::max(1, lockstep_lanes());
  const int instances = 3 * lanes + 1;  // >= 3 blocks at any lane count
  const auto run = [&](const BatchOptions& options, int jobs) {
    return run_comparison_batch(factories, lineup, reference, instances, /*seed0=*/21, jobs,
                                options);
  };
  const auto counters = [](const std::vector<std::vector<AlgoStats>>& stats) {
    std::ostringstream os;
    for (const auto& point : stats) {
      for (const AlgoStats& s : point) {
        for (const obs::MetricRow& row : obs::report_rows(s.metrics, /*include_timers=*/false)) {
          os << s.name << " " << row.name << "=" << row.value << "\n";
        }
      }
    }
    return os.str();
  };
  const auto sequential = run({}, /*jobs=*/1);
  const auto parallel = run({}, /*jobs=*/4);
  BatchOptions no_memo;
  no_memo.cell_energy_memo = false;
  expect_same_aggregates(sequential, parallel);
  expect_same_aggregates(sequential, run(no_memo, /*jobs=*/4));
  EXPECT_EQ(counters(sequential), counters(parallel));
}

#if defined(RETASK_OBS_ENABLED) && RETASK_OBS_ENABLED
TEST(HarnessSweepCache, WarmStartCountersProveReuse) {
  const RejectionProblem base = test::small_instance(9, 12, 1.5);
  const std::vector<RejectionProblem> points =
      make_capacity_sweep(base, {1.0, 0.8, 0.6, 0.4});
  std::vector<const RejectionProblem*> group;
  for (const RejectionProblem& point : points) group.push_back(&point);
  obs::Registry metrics;
  {
    obs::ActiveScope scope(metrics);
    (void)ExactDpSolver().solve_sweep(group);
  }
  const auto counter = [&](const char* name) {
    return metrics.counter(obs::intern_metric(obs::MetricKind::kCounter, name));
  };
  // One table fill serves all four points: 1 solve, 3 warm starts.
  EXPECT_EQ(counter("exact_dp.solves"), 1u);
  EXPECT_EQ(counter("dp.warm_starts"), 3u);
  EXPECT_EQ(counter("dp.sweep_fallbacks"), 0u);
}

TEST(HarnessSweepCache, EnergyMemoCountersProveReuse) {
  const RejectionProblem cold = test::small_instance(10, 8, 1.4);
  RejectionProblem warm = cold;
  warm.attach_energy_memo(std::make_shared<EnergyMemo>());
  obs::Registry metrics;
  {
    obs::ActiveScope scope(metrics);
    (void)warm.energy_of_cycles(5);
    (void)warm.energy_of_cycles(5);
    (void)warm.energy_of_cycles(6);
  }
  const auto counter = [&](const char* name) {
    return metrics.counter(obs::intern_metric(obs::MetricKind::kCounter, name));
  };
  EXPECT_EQ(counter("cache.energy_misses"), 2u);
  EXPECT_EQ(counter("cache.energy_hits"), 1u);
}
#endif  // RETASK_OBS_ENABLED

}  // namespace
}  // namespace retask
