// Tests for the fractional lower bound: validity (never above the true
// optimum), tightness on fractional-friendly instances, and multiprocessor
// behaviour.
#include "retask/core/lower_bound.hpp"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "retask/core/exact_dp.hpp"
#include "retask/core/exhaustive.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

TEST(LowerBound, NeverExceedsOptimalUniproc) {
  const ExactDpSolver dp;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    for (const double load : {0.6, 1.2, 2.0, 3.0}) {
      const RejectionProblem p = test::small_instance(seed, 10, load, 1.0);
      const double lb = fractional_lower_bound(p);
      const double opt = dp.solve(p).objective();
      EXPECT_LE(lb, opt + 1e-6 * std::max(1.0, opt)) << "seed " << seed << " load " << load;
    }
  }
}

TEST(LowerBound, NeverExceedsOptimalMultiproc) {
  const MultiProcExhaustiveSolver opt;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 8, 1.8, 1.0, 2);
    const double lb = fractional_lower_bound(p);
    const double o = opt.solve(p).objective();
    EXPECT_LE(lb, o + 1e-6 * std::max(1.0, o)) << "seed " << seed;
  }
}

TEST(LowerBound, TightWhenNoRejectionIsNeeded) {
  // Light load, huge penalties: the fractional optimum accepts everything,
  // exactly like the integral optimum.
  const RejectionProblem p = test::small_instance(3, 10, 0.7, 50.0);
  const double lb = fractional_lower_bound(p);
  const double opt = ExactDpSolver().solve(p).objective();
  EXPECT_NEAR(lb, opt, 1e-4 * opt);
}

TEST(LowerBound, TightWhenEverythingIsFree) {
  // Zero penalties: both the relaxation and the optimum reject everything.
  const FrameTaskSet tasks({{0, 50, 0.0}, {1, 70, 0.0}});
  EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  const RejectionProblem p(tasks, std::move(curve), 0.01, 1);
  EXPECT_NEAR(fractional_lower_bound(p), 0.0, 1e-9);
}

TEST(LowerBound, CountsIdleEnergyOfAllProcessorsUnderDormantDisable) {
  // Dormant-disable: every processor pays leakage for the whole window even
  // when empty, so the bound must include M * E(0).
  const FrameTaskSet tasks({{0, 10, 0.001}});
  EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantDisable);
  const RejectionProblem p(tasks, std::move(curve), 0.01, 4);
  EXPECT_GE(fractional_lower_bound(p), 4 * 0.08 - 1e-9);
}

TEST(LowerBound, MultiprocBoundNeverExceedsOptimal) {
  // The Lagrangian MP bound against the exhaustive partitioned optimum,
  // across idle disciplines. Free-sleep and dormant-disable curves are
  // convex; the bound must hold on every one of them.
  const MultiProcExhaustiveSolver opt;
  for (const IdleDiscipline idle :
       {IdleDiscipline::kDormantEnable, IdleDiscipline::kDormantDisable}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      for (const int m : {2, 3}) {
        const RejectionProblem p = test::small_instance(seed, 7, 1.7, 1.0, m, idle);
        const double lb = multiproc_lower_bound(p);
        const double o = opt.solve(p).objective();
        EXPECT_LE(lb, o + 1e-6 * std::max(1.0, o)) << "seed " << seed << " m " << m;
      }
    }
  }
}

TEST(LowerBound, MultiprocBoundSoundUnderSwitchOverheads) {
  // Dormant-enable with positive switch overheads makes E non-convex (the
  // wake-up jump), which is exactly where the naive Jensen step m * E(W/m)
  // over-counts: concentrating the load on fewer PEs and keeping the rest
  // dormant beats the balanced split. The bound must route through the
  // convex floor and stay below the exhaustive optimum.
  const MultiProcExhaustiveSolver opt;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ScenarioConfig config;
    config.task_count = 7;
    config.load = 0.9;
    config.resolution = 300.0;
    config.penalty_scale = 0.6;
    config.processor_count = 3;
    config.seed = seed;
    RejectionProblem base = make_scenario(config, PolynomialPowerModel::xscale());
    EnergyCurve curve(base.curve().model(), base.curve().window(),
                      IdleDiscipline::kDormantEnable, SleepParams{0.13, 0.065});
    EXPECT_FALSE(curve.convex());
    const RejectionProblem p(FrameTaskSet(base.tasks()), std::move(curve),
                             base.work_per_cycle(), 3);
    const double lb = multiproc_lower_bound(p);
    const double o = opt.solve(p).objective();
    EXPECT_LE(lb, o + 1e-6 * std::max(1.0, o)) << "seed " << seed;
  }
}

TEST(LowerBound, MultiprocBoundPricesOversizedTasks) {
  // A task larger than one processor's window is rejected in every
  // partitioned solution; the MP bound charges its penalty up front and so
  // strictly dominates the plain fractional bound here.
  const FrameTaskSet tasks({{0, 900, 2.0}, {1, 120, 0.4}, {2, 150, 0.5}});
  EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  const RejectionProblem p(tasks, std::move(curve), 1.0 / 400.0, 2);
  const MultiProcBound bound = multiproc_lower_bound_detail(p);
  EXPECT_EQ(bound.forced_count, 1u);
  EXPECT_DOUBLE_EQ(bound.forced_penalty, 2.0);
  EXPECT_GE(bound.value, fractional_lower_bound(p) - 1e-12);
  EXPECT_GE(bound.value, 2.0);
}

TEST(LowerBound, MultiprocBoundMatchesFractionalWithoutOversizedTasks) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 9, 1.9, 1.0, 3);
    bool oversized = false;
    for (const FrameTask& task : p.tasks().tasks()) {
      oversized = oversized || task.cycles > p.cycle_capacity();
    }
    if (oversized) continue;
    EXPECT_EQ(multiproc_lower_bound(p), fractional_lower_bound(p)) << "seed " << seed;
  }
}

TEST(LowerBound, IncreasesWithPenaltyScale) {
  const RejectionProblem cheap = test::small_instance(9, 10, 2.0, 0.3);
  const RejectionProblem dear = test::small_instance(9, 10, 2.0, 3.0);
  EXPECT_LT(fractional_lower_bound(cheap), fractional_lower_bound(dear));
}

// Bit-pinned bounds: fractional_lower_bound minimizes its relaxation with
// minimize_unimodal over convex_floor, and these hex patterns were recorded
// before the minimizer took its objective as a template parameter.
TEST(LowerBound, FractionalBoundKeepsItsPinnedBits) {
  const RejectionProblem instances[] = {
      test::small_instance(1, 10, 1.4),
      test::small_instance(2, 12, 2.0, 1.0, /*processors=*/2),
      test::small_instance(3, 9, 0.8, 0.5, 1, IdleDiscipline::kDormantDisable)};
  const std::uint64_t pinned[] = {0x3fe6dc6e1745e7f9ull, 0x3ff2561ad49efa23ull,
                                  0x3fce8fffe509bfceull};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fractional_lower_bound(instances[i])), pinned[i])
        << "instance " << i;
  }
}

}  // namespace
}  // namespace retask
