// Tests for the lockstep batch solver (batch/lockstep.hpp): solve_batch must
// reproduce per-instance base.solve() bit for bit on every backend, through
// shape grouping, ragged tails and lane-count fallbacks; the harness path
// that feeds it must stay job-count invariant.
#include "retask/batch/lockstep.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "retask/common/error.hpp"
#include "retask/common/rng.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/fptas.hpp"
#include "retask/core/greedy.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/exp/harness.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/simd/backend.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

/// Every backend the host can actually execute (always includes scalar).
std::vector<simd::Backend> available_backends() {
  std::vector<simd::Backend> out;
  for (const simd::Backend b : {simd::Backend::kScalar, simd::Backend::kSse2,
                                simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (simd::backend_available(b)) out.push_back(b);
  }
  return out;
}

/// A same-shape fleet: one scenario config, consecutive seeds. Shape is a
/// function of the config alone (task count, capacity, curve), so every
/// member may share lockstep lanes while carrying different task data.
std::vector<RejectionProblem> make_fleet(std::size_t count, std::uint64_t seed0,
                                         int task_count = 10) {
  std::vector<RejectionProblem> fleet;
  fleet.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    fleet.push_back(test::small_instance(seed0 + i, task_count));
  }
  return fleet;
}

std::vector<const RejectionProblem*> pointers(const std::vector<RejectionProblem>& fleet) {
  std::vector<const RejectionProblem*> out;
  out.reserve(fleet.size());
  for (const RejectionProblem& p : fleet) out.push_back(&p);
  return out;
}

/// Bit-level solution equality: the accept mask and both objective facets.
void expect_identical(const std::vector<RejectionSolution>& batched,
                      const std::vector<RejectionSolution>& solo) {
  ASSERT_EQ(batched.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    EXPECT_EQ(batched[i].accepted, solo[i].accepted);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[i].energy),
              std::bit_cast<std::uint64_t>(solo[i].energy));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batched[i].penalty),
              std::bit_cast<std::uint64_t>(solo[i].penalty));
  }
}

std::vector<RejectionSolution> solve_solo(const RejectionSolver& base,
                                          const std::vector<const RejectionProblem*>& fleet) {
  std::vector<RejectionSolution> out;
  out.reserve(fleet.size());
  for (const RejectionProblem* p : fleet) out.push_back(base.solve(*p));
  return out;
}

/// Counter value by name, or 0 when absent (also in RETASK_OBS=OFF builds).
std::uint64_t counter_of(const obs::Registry& registry, const std::string& name) {
  for (const obs::MetricRow& row : obs::report_rows(registry)) {
    if (row.name == name) return static_cast<std::uint64_t>(row.numeric);
  }
  return 0;
}

/// True in builds that collect metrics (the counter assertions below are
/// vacuous otherwise).
bool obs_enabled() {
  obs::Registry probe;
  {
    obs::ActiveScope scope(probe);
    RETASK_COUNT("test_batch.probe", 1);
  }
  return counter_of(probe, "test_batch.probe") == 1;
}

TEST(BatchLockstep, LaneBitIdentityEveryBackendEverySolver) {
  const std::vector<RejectionProblem> fleet = make_fleet(8, 101);
  const std::vector<const RejectionProblem*> ptrs = pointers(fleet);
  std::vector<std::unique_ptr<RejectionSolver>> bases;
  bases.push_back(std::make_unique<ExactDpSolver>());
  bases.push_back(std::make_unique<DensityGreedySolver>());
  bases.push_back(std::make_unique<MarginalGreedySolver>());
  for (const simd::Backend backend : available_backends()) {
    simd::ScopedBackend forced(backend);
    for (const auto& base : bases) {
      SCOPED_TRACE(std::string(simd::to_string(backend)) + " / " + base->name());
      for (const int lanes : {4, 8}) {
        const BatchRejectionSolver batched(*base, BatchConfig{lanes});
        expect_identical(batched.solve_batch(ptrs), solve_solo(*base, ptrs));
      }
    }
  }
}

TEST(BatchLockstep, RaggedTailFallsBackPerInstance) {
  // 7 instances at 4 lanes: one full chunk, one 3-wide ragged chunk — and 5
  // instances make the tail a singleton, which must fall back to base.solve.
  const ExactDpSolver base;
  for (const std::size_t count : {7u, 5u}) {
    const std::vector<RejectionProblem> fleet = make_fleet(count, 211);
    const std::vector<const RejectionProblem*> ptrs = pointers(fleet);
    const BatchRejectionSolver batched(base, BatchConfig{4});
    obs::Registry metrics;
    std::vector<RejectionSolution> solutions;
    {
      obs::ActiveScope scope(metrics);
      solutions = batched.solve_batch(ptrs);
    }
    expect_identical(solutions, solve_solo(base, ptrs));
    if (obs_enabled()) {
      // 7 = chunks of 4+3 (lanes_filled 7, one padded lane); 5 = 4+1 (the
      // singleton tail is a scalar fallback, not a 1-lane chunk).
      EXPECT_EQ(counter_of(metrics, "batch.lanes_filled"), count == 7 ? 7u : 4u);
      EXPECT_EQ(counter_of(metrics, "batch.padding_waste"), count == 7 ? 1u : 0u);
      EXPECT_EQ(counter_of(metrics, "batch.scalar_fallbacks"), count == 7 ? 0u : 1u);
    }
  }
}

TEST(BatchLockstep, ShapeGroupingKeepsMixedFleetsApart) {
  // Interleave two shapes (different task counts); grouping must split them
  // into two lockstep groups and still return input-order solutions.
  std::vector<RejectionProblem> fleet;
  for (std::size_t i = 0; i < 4; ++i) {
    fleet.push_back(test::small_instance(301 + i, /*task_count=*/10));
    fleet.push_back(test::small_instance(351 + i, /*task_count=*/12));
  }
  const std::vector<const RejectionProblem*> ptrs = pointers(fleet);
  ASSERT_FALSE(same_shape(*ptrs[0], *ptrs[1]));
  ASSERT_TRUE(same_shape(*ptrs[0], *ptrs[2]));
  const MarginalGreedySolver base;
  const BatchRejectionSolver batched(base, BatchConfig{4});
  obs::Registry metrics;
  std::vector<RejectionSolution> solutions;
  {
    obs::ActiveScope scope(metrics);
    solutions = batched.solve_batch(ptrs);
  }
  expect_identical(solutions, solve_solo(base, ptrs));
  if (obs_enabled()) {
    EXPECT_EQ(counter_of(metrics, "batch.groups"), 2u);
    EXPECT_EQ(counter_of(metrics, "batch.lockstep_chunks"), 2u);
  }
}

TEST(BatchLockstep, LanesBelowTwoDisableBatching) {
  const std::vector<RejectionProblem> fleet = make_fleet(4, 401);
  const std::vector<const RejectionProblem*> ptrs = pointers(fleet);
  const ExactDpSolver base;
  const std::vector<RejectionSolution> solo = solve_solo(base, ptrs);
  for (const int lanes : {0, 1}) {
    obs::Registry metrics;
    std::vector<RejectionSolution> solutions;
    {
      obs::ActiveScope scope(metrics);
      solutions = BatchRejectionSolver(base, BatchConfig{lanes}).solve_batch(ptrs);
    }
    expect_identical(solutions, solo);
    if (obs_enabled()) {
      EXPECT_EQ(counter_of(metrics, "batch.scalar_fallbacks"), fleet.size());
    }
  }
  // BatchConfig{-1} defers to the process-wide knob; 0 there must disable
  // batching the same way (RETASK_BATCH=off resolves to exactly this).
  const int before = lockstep_lanes();
  set_lockstep_lanes(0);
  expect_identical(BatchRejectionSolver(base).solve_batch(ptrs), solo);
  set_lockstep_lanes(before);
}

TEST(BatchLockstep, SolverWithoutLockstepBodyFallsBack) {
  const std::vector<RejectionProblem> fleet = make_fleet(4, 501);
  const std::vector<const RejectionProblem*> ptrs = pointers(fleet);
  const FptasSolver base(0.1);
  const BatchRejectionSolver batched(base, BatchConfig{4});
  EXPECT_EQ(batched.name(), base.name() + "+LOCKSTEP");
  expect_identical(batched.solve_batch(ptrs), solve_solo(base, ptrs));
}

/// The harness splits the replication axis into lane blocks independently of
/// the job count, so lockstep batching must keep aggregates bit-identical at
/// jobs=1 and jobs=8 (with a lineup that exercises all three lockstep
/// bodies).
TEST(BatchLockstep, HarnessLockstepIsJobCountInvariant) {
  const auto factory = [](std::uint64_t seed) { return test::small_instance(seed, 10, 1.5); };
  const auto reference = [](const RejectionProblem& p) { return fractional_lower_bound(p); };
  std::vector<std::unique_ptr<RejectionSolver>> lineup;
  lineup.push_back(std::make_unique<ExactDpSolver>());
  lineup.push_back(std::make_unique<DensityGreedySolver>());
  lineup.push_back(std::make_unique<MarginalGreedySolver>());
  const int before = lockstep_lanes();
  set_lockstep_lanes(4);
  const auto sequential = run_comparison(factory, lineup, reference, 14, 1, /*jobs=*/1);
  const auto parallel = run_comparison(factory, lineup, reference, 14, 1, /*jobs=*/8);
  set_lockstep_lanes(before);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t a = 0; a < sequential.size(); ++a) {
    SCOPED_TRACE(sequential[a].name);
    EXPECT_EQ(sequential[a].ratio.mean(), parallel[a].ratio.mean());
    EXPECT_EQ(sequential[a].objective.mean(), parallel[a].objective.mean());
    EXPECT_EQ(sequential[a].acceptance.mean(), parallel[a].acceptance.mean());
  }
}

/// Lockstep on and off must produce identical harness aggregates — batching
/// may only change metric attribution, never a solution bit.
TEST(BatchLockstep, HarnessLockstepMatchesUnbatchedRuns) {
  const auto factory = [](std::uint64_t seed) { return test::small_instance(seed, 10, 1.5); };
  const auto reference = [](const RejectionProblem& p) { return fractional_lower_bound(p); };
  std::vector<std::unique_ptr<RejectionSolver>> lineup;
  lineup.push_back(std::make_unique<ExactDpSolver>());
  lineup.push_back(std::make_unique<MarginalGreedySolver>());
  BatchOptions on;
  BatchOptions off;
  off.lockstep = false;
  const std::vector<ProblemFactory> factories{factory};
  const int before = lockstep_lanes();
  set_lockstep_lanes(8);
  const auto batched = run_comparison_batch(factories, lineup, reference, 12, 1, 0, on);
  const auto plain = run_comparison_batch(factories, lineup, reference, 12, 1, 0, off);
  set_lockstep_lanes(before);
  for (std::size_t a = 0; a < lineup.size(); ++a) {
    SCOPED_TRACE(batched[0][a].name);
    EXPECT_EQ(batched[0][a].ratio.mean(), plain[0][a].ratio.mean());
    EXPECT_EQ(batched[0][a].objective.mean(), plain[0][a].objective.mean());
  }
}

TEST(BatchLockstep, SameShapeRejectsDifferentGeometry) {
  const RejectionProblem a = test::small_instance(601, 10);
  const RejectionProblem b = test::small_instance(602, 10);
  EXPECT_TRUE(same_shape(a, b));
  EXPECT_FALSE(same_shape(a, test::small_instance(603, 12)));           // task count
  EXPECT_FALSE(same_shape(a, test::small_instance(604, 10, 1.4, 1.0,   // processors
                                                  /*processors=*/2)));
  EXPECT_FALSE(same_shape(
      a, test::small_instance(605, 10, 1.4, 1.0, 1, IdleDiscipline::kDormantDisable)));  // curve
}

TEST(BatchLockstep, LaneKnobValidatesItsRange) {
  const int before = lockstep_lanes();
  EXPECT_THROW(set_lockstep_lanes(-2), Error);
  EXPECT_THROW(set_lockstep_lanes(65), Error);
  set_lockstep_lanes(before);
}

}  // namespace
}  // namespace retask
