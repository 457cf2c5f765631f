// Tests for the multiprocessor solvers: validity, optimality gap against the
// exhaustive optimum on small instances, dominance over the RAND baseline on
// average, and the lower-bound sandwich.
#include "retask/core/multiproc.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "retask/cache/energy_memo.hpp"
#include "retask/common/error.hpp"
#include "retask/core/exhaustive.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/verify/differential.hpp"
#include "retask/verify/reference.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

TEST(MultiProcLtf, ProducesValidSolutions) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 12, 2.6, 1.0, 3);
    const RejectionSolution s = MultiProcLtfRejectSolver().solve(p);
    check_solution(p, s);
    for (const Cycles load : processor_loads(p, s)) {
      EXPECT_LE(load, p.cycle_capacity());
    }
  }
}

TEST(MultiProcLtf, UsesAllProcessorsUnderLoad) {
  const RejectionProblem p = test::small_instance(3, 12, 2.4, 2.0, 3);
  const RejectionSolution s = MultiProcLtfRejectSolver().solve(p);
  const auto loads = processor_loads(p, s);
  for (const Cycles load : loads) EXPECT_GT(load, 0);
}

TEST(MultiProcGreedy, ProducesValidSolutions) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 12, 2.6, 1.0, 3);
    check_solution(p, MultiProcGreedySolver().solve(p));
  }
}

TEST(MultiProcRand, FeasibleEvenUnderHeavyOverload) {
  const RejectionProblem p = test::small_instance(5, 16, 5.0, 1.0, 2);
  const RejectionSolution s = MultiProcRandSolver().solve(p);
  check_solution(p, s);
  EXPECT_LT(s.accepted_count(), p.size());
}

TEST(MultiProcExhaustive, MatchesUniprocessorExhaustiveWhenMIsOne) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 9, 1.6);
    const double a = MultiProcExhaustiveSolver().solve(p).objective();
    const double b = ExhaustiveSolver().solve(p).objective();
    EXPECT_NEAR(a, b, 1e-9 * std::max(1.0, b)) << "seed " << seed;
  }
}

TEST(MultiProcHeuristics, SandwichedBetweenBoundAndBaseline) {
  // LB <= OPT <= heuristics on every instance; heuristics <= RAND on sums.
  const MultiProcExhaustiveSolver opt;
  const MultiProcLtfRejectSolver ltf;
  const MultiProcGreedySolver greedy;
  const MultiProcRandSolver rnd;
  double sum_ltf = 0.0;
  double sum_greedy = 0.0;
  double sum_rand = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 8, 1.8, 1.0, 2);
    const double lb = fractional_lower_bound(p);
    const double o = opt.solve(p).objective();
    const double l = ltf.solve(p).objective();
    const double g = greedy.solve(p).objective();
    const double r = rnd.solve(p).objective();
    EXPECT_LE(lb, o + 1e-6 * std::max(1.0, o)) << "seed " << seed;
    EXPECT_GE(l, o - 1e-9) << "seed " << seed;
    EXPECT_GE(g, o - 1e-9) << "seed " << seed;
    sum_ltf += l;
    sum_greedy += g;
    sum_rand += r;
  }
  EXPECT_LE(sum_ltf, sum_rand + 1e-9);
  EXPECT_LE(sum_greedy, sum_rand + 1e-9);
}

TEST(MultiProcLtf, CloseToOptimalOnSmallInstances) {
  // The venue-style check: LTF+DP stays within a modest factor of optimal.
  const MultiProcExhaustiveSolver opt;
  const MultiProcLtfRejectSolver ltf;
  double worst_ratio = 1.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 8, 2.0, 1.0, 2);
    const double o = opt.solve(p).objective();
    const double l = ltf.solve(p).objective();
    if (o > 0.0) worst_ratio = std::max(worst_ratio, l / o);
  }
  EXPECT_LE(worst_ratio, 1.5);
}

TEST(MultiProcLtf, LargeProcessorCountStaysValidAndBalanced) {
  // m = 48 exercises the heap-based least-loaded partitioner well past the
  // linear-scan comfort zone; every solution must stay feasible and no PE
  // may exceed its cycle capacity.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 60, 30.0, 1.0, 48);
    const RejectionSolution s = MultiProcLtfRejectSolver().solve(p);
    check_solution(p, s);
    for (const Cycles load : processor_loads(p, s)) {
      EXPECT_LE(load, p.cycle_capacity());
    }
  }
}

TEST(MultiProcLtf, MoreProcessorsThanTasksLeavesEmptyPes) {
  // m > n: the heap hands each task its own bin and the surplus PEs stay
  // empty — a dormant-enable platform accepts everything for free.
  const RejectionProblem p = test::small_instance(2, 5, 0.8, 5.0, 16);
  const RejectionSolution s = MultiProcLtfRejectSolver().solve(p);
  check_solution(p, s);
  EXPECT_EQ(s.accepted_count(), p.size());
  const auto loads = processor_loads(p, s);
  int empty = 0;
  for (const Cycles load : loads) empty += load == 0 ? 1 : 0;
  EXPECT_GE(empty, 11);
}

TEST(MultiProcGreedy, MatchesCacheFreeReference) {
  // The solver reads every probe energy from a flat per-solve table and a
  // per-PE E(load) cache; the reference calls curve().energy on every
  // probe. Caching must not move a bit. The sweep covers m = 1/2/8/64,
  // convex (free sleep), dormant-disable and sleep-overhead (non-convex)
  // curves, tasks exactly at the per-PE capacity, equal-penalty ties, and a
  // load range too wide for the table (the map path).
  const auto expect_reference = [](const RejectionProblem& p, std::uint64_t seed) {
    const RejectionSolution got = MultiProcGreedySolver().solve(p);
    const RejectionSolution want = mp_greedy_reference(p);
    EXPECT_EQ(got.accepted, want.accepted) << "seed " << seed;
    EXPECT_EQ(got.processor_of, want.processor_of) << "seed " << seed;
    EXPECT_EQ(got.energy, want.energy) << "seed " << seed;
    EXPECT_EQ(got.penalty, want.penalty) << "seed " << seed;
    return got.accepted_count() < p.size();
  };
  const char* const models[] = {"xscale", "cubic", "table5"};
  const int processor_counts[] = {1, 2, 8, 64};
  int at_capacity = 0;
  int with_rejections = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    InstanceSpec spec;
    spec.model = models[seed % 3];
    spec.processor_count = processor_counts[seed % 4];
    spec.resolution = 160.0 + 40.0 * static_cast<double>(seed % 5);
    switch ((seed / 4) % 3) {
      case 1:
        spec.idle = IdleDiscipline::kDormantDisable;
        break;
      case 2:
        spec.switch_energy = 0.15;
        spec.switch_time = 0.05;
        break;
      default:
        break;
    }
    spec.task_count = std::min(12 + 3 * spec.processor_count, 96);
    spec.load = (0.8 + 0.15 * static_cast<double>(seed % 7)) * spec.processor_count;
    spec.penalty_scale = 0.3 + 0.4 * static_cast<double>(seed % 4);
    spec.seed = seed;
    std::vector<FrameTask> tasks = draw_tasks(spec).tasks();
    const Cycles capacity = build_problem(spec, FrameTaskSet(tasks)).cycle_capacity();
    if (seed % 2 == 0) {
      tasks.front().cycles = capacity;
      tasks[tasks.size() / 2].cycles = capacity;
      ++at_capacity;
    }
    if (seed % 3 == 0) {
      for (FrameTask& task : tasks) task.penalty = tasks.front().penalty;
    }
    if (expect_reference(build_problem(spec, FrameTaskSet(std::move(tasks))), seed)) {
      ++with_rejections;
    }
  }
  EXPECT_EQ(at_capacity, 32);
  EXPECT_GT(with_rejections, 16);

  InstanceSpec wide;
  wide.processor_count = 2;
  wide.task_count = 12;
  wide.load = 2.4;
  wide.resolution = 2.0 * static_cast<double>(EnergyMemo::kDenseLimit);
  for (std::uint64_t seed = 65; seed <= 68; ++seed) {
    wide.seed = seed;
    const RejectionProblem p = build_instance(wide);
    ASSERT_GE(std::min(p.cycle_capacity(), p.tasks().total_cycles()),
              static_cast<Cycles>(EnergyMemo::kDenseLimit));
    expect_reference(p, seed);
  }
}

TEST(MultiProcExhaustive, GuardsHugeInstances) {
  const RejectionProblem p = test::small_instance(1, 20, 1.0, 1.0, 4);
  EXPECT_THROW(MultiProcExhaustiveSolver().solve(p), Error);
}

TEST(MultiProc, MoreProcessorsNeverHurtOnAverage) {
  // With dormant-enable idle processors cost nothing, so added capacity can
  // only reduce the optimal objective.
  double sum1 = 0.0;
  double sum2 = 0.0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RejectionProblem p1 = test::small_instance(seed, 8, 2.0, 1.0, 1);
    const RejectionProblem p2 = test::small_instance(seed, 8, 2.0, 1.0, 2);
    sum1 += ExhaustiveSolver().solve(p1).objective();
    sum2 += MultiProcExhaustiveSolver().solve(p2).objective();
  }
  EXPECT_LE(sum2, sum1 + 1e-9);
}

}  // namespace
}  // namespace retask
