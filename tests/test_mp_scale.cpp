// Tests for the many-core scale solver: validity, the bound/optimum
// sandwich, bit-identity with its cache-free reference, bitwise invariance
// across jobs / lockstep lanes / SIMD backends, the sweep's shared energy
// row, and overload handling.
#include "retask/core/mp_scale.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "retask/core/algorithm_registry.hpp"
#include "retask/core/exhaustive.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/core/multiproc.hpp"
#include "retask/exp/mp_scale_sweep.hpp"
#include "retask/exp/workload.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/simd/backend.hpp"
#include "retask/verify/reference.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

/// Bitwise solution equality: accept mask, placement, energy, penalty.
::testing::AssertionResult same_solution(const RejectionSolution& a,
                                         const RejectionSolution& b) {
  if (a.accepted != b.accepted) return ::testing::AssertionFailure() << "accept masks differ";
  if (a.processor_of != b.processor_of) {
    return ::testing::AssertionFailure() << "placements differ";
  }
  if (a.energy != b.energy || a.penalty != b.penalty) {
    return ::testing::AssertionFailure()
           << "objective differs: " << a.energy << "+" << a.penalty << " vs " << b.energy << "+"
           << b.penalty;
  }
  return ::testing::AssertionSuccess();
}

/// FNV-1a over the placement vector (-1 = rejected), for pinning a large
/// solution in one constant.
std::uint64_t placement_hash(const RejectionSolution& s) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const int p : s.processor_of) {
    hash ^= static_cast<std::uint64_t>(p + 1);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

bool has_oversized_task(const RejectionProblem& p) {
  for (const FrameTask& task : p.tasks().tasks()) {
    if (task.cycles > p.cycle_capacity()) return true;
  }
  return false;
}

TEST(MpScale, SandwichedBetweenBoundAndOptimum) {
  // LB <= OPT <= MP-SCALE on instances small enough for exhaustive search.
  const MultiProcExhaustiveSolver opt;
  const MultiProcScaleSolver scale;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const int m : {2, 3}) {
      const RejectionProblem p = test::small_instance(seed, 8, 1.9, 1.0, m);
      const RejectionSolution s = scale.solve(p);
      check_solution(p, s);
      for (const Cycles load : processor_loads(p, s)) {
        EXPECT_LE(load, p.cycle_capacity());
      }
      const double o = opt.solve(p).objective();
      const double tol = 1e-9 * std::max(1.0, o);
      EXPECT_GE(s.objective(), o - tol) << "seed " << seed << " m " << m;
      EXPECT_GE(o, multiproc_lower_bound(p) - tol) << "seed " << seed << " m " << m;
    }
  }
}

TEST(MpScale, MatchesCacheFreeReferenceBitwise) {
  // The memo, the least-loaded set and the lockstep lanes are pure
  // speedups: the linear-scan, curve-evaluating, serial reference gives the
  // same bits, including with oversized tasks and under overload.
  const MultiProcScaleSolver scale;
  int with_oversized = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const double load : {0.9, 2.4, 6.0}) {
      for (const int m : {1, 2, 3, 7}) {
        const RejectionProblem p = test::small_instance(seed, 20, load * m, 1.0, m);
        with_oversized += has_oversized_task(p) ? 1 : 0;
        EXPECT_TRUE(same_solution(scale.solve(p), mp_scale_reference(p)))
            << "seed " << seed << " load " << load << " m " << m;
      }
    }
  }
  EXPECT_GT(with_oversized, 0);
}

TEST(MpScale, BitwiseInvariantAcrossJobsLanesAndBackends) {
  const MultiProcScaleSolver base_solver;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 16, 3.0, 1.0, 5);
    const RejectionSolution base = base_solver.solve(p);
    for (const int jobs : {1, 2, 4}) {
      for (const int lanes : {0, 2, 8}) {
        MpScaleConfig config;
        config.jobs = jobs;
        config.lanes = lanes;
        EXPECT_TRUE(same_solution(MultiProcScaleSolver(config).solve(p), base))
            << "seed " << seed << " jobs " << jobs << " lanes " << lanes;
      }
    }
    for (const simd::Backend backend : {simd::Backend::kScalar, simd::Backend::kSse2,
                                        simd::Backend::kAvx2, simd::Backend::kNeon}) {
      if (!simd::backend_available(backend)) continue;
      simd::ScopedBackend scope(backend);
      EXPECT_TRUE(same_solution(base_solver.solve(p), base))
          << "seed " << seed << " backend " << simd::to_string(backend);
    }
  }
}

TEST(MpScale, SharedRowKeepsRecordedSolutionAndCounters) {
  // One n = 2000, m = 16 instance, pinned when the solver became
  // least-loaded placement + deal + per-PE exact solves. The shared
  // EnergyRow changes only which thread computes an E(w) value, so the
  // solution and the placement counters stay bit-identical at any job
  // count. cache.energy_hits / energy_misses are per-shard by the
  // EnergyMemo contract: at one job they are pinned; on a pool the hit/miss
  // split depends on which thread ran which lane chunk, and only their sum
  // (the lookups made) is fixed.
  ScenarioConfig config;
  config.task_count = 2000;
  config.load = 0.75 * 16;
  config.resolution = 2000.0;
  config.processor_count = 16;
  config.seed = 1;
  const RejectionProblem p = make_scenario(config, PolynomialPowerModel::xscale());
  RejectionSolution base;
  for (const int jobs : {1, 4}) {
    MpScaleConfig scale_config;
    scale_config.jobs = jobs;
    scale_config.lanes = 4;  // the lookups made depend on the lane count
    obs::reset_all();
    const RejectionSolution s = MultiProcScaleSolver(scale_config).solve(p);
    const obs::Registry metrics = obs::global_snapshot();
    EXPECT_EQ(s.accepted_count(), 1397u) << "jobs " << jobs;
    EXPECT_EQ(placement_hash(s), 0x29923a7889984ee6ULL) << "jobs " << jobs;
    EXPECT_EQ(s.energy, 0x1.48e6c2a104e8dp+1) << "jobs " << jobs;
    EXPECT_EQ(s.penalty, 0x1.567365d1e5cddp+1) << "jobs " << jobs;
    if (jobs == 1) {
      base = s;
    } else {
      EXPECT_TRUE(same_solution(s, base));
    }
#if RETASK_OBS_ENABLED
    const auto counter = [&](const char* name) {
      return metrics.counter(obs::intern_metric(obs::MetricKind::kCounter, name));
    };
    EXPECT_EQ(counter("mp.scale_solves"), 1u);
    EXPECT_EQ(counter("mp.pe_size_groups"), 12u);
    EXPECT_EQ(counter("mp.oversized_rejected"), 0u);
    EXPECT_EQ(counter("mp.dealt_candidates"), 602u);
    const std::uint64_t hits = counter("cache.energy_hits");
    const std::uint64_t misses = counter("cache.energy_misses");
    EXPECT_EQ(hits + misses, 38076u) << "jobs " << jobs;
    if (jobs == 1) {
      EXPECT_EQ(hits, 36927u);
      EXPECT_EQ(misses, 1149u);
    }
#else
    EXPECT_TRUE(metrics.empty());
#endif
  }
}

TEST(MpScale, SweepSharedRowMatchesMemoFreeSolves) {
  // run_mp_scale_sweep lends one prefilled, row-backed EnergyMemo to every
  // instance of the point. Every per-solver aggregate must equal the one
  // built from memo-free direct solves of the same seeds, bit for bit, at
  // one job and on a pool (which fills the row concurrently).
  MpScaleSweepConfig config;
  config.scenario.task_count = 600;
  config.scenario.load = 0.75 * 8;
  config.scenario.resolution = 1000.0;
  config.scenario.processor_count = 8;
  config.instances = 3;
  config.seed0 = 5;
  const PolynomialPowerModel model = PolynomialPowerModel::xscale();

  std::vector<OnlineStats> objective(config.solvers.size());
  std::vector<OnlineStats> acceptance(config.solvers.size());
  std::vector<OnlineStats> bound_ratio(config.solvers.size());
  for (int k = 0; k < config.instances; ++k) {
    ScenarioConfig scenario = config.scenario;
    scenario.seed = config.seed0 + static_cast<std::uint64_t>(k);
    const RejectionProblem p = make_scenario(scenario, model);
    ASSERT_EQ(p.energy_memo(), nullptr);
    const double bound = multiproc_lower_bound(p);
    ASSERT_GT(bound, 0.0);
    for (std::size_t s = 0; s < config.solvers.size(); ++s) {
      const RejectionSolution solution = make_solver(config.solvers[s])->solve(p);
      objective[s].add(solution.objective());
      acceptance[s].add(solution.acceptance_ratio());
      bound_ratio[s].add(solution.objective() / bound);
    }
  }

  for (const int jobs : {1, 4}) {
    const MpScaleSweepResult result = run_mp_scale_sweep(config, model, jobs);
    ASSERT_EQ(result.solvers.size(), config.solvers.size());
    EXPECT_GE(result.row_seconds, 0.0);
    for (std::size_t s = 0; s < config.solvers.size(); ++s) {
      const MpScaleSolverStats& stats = result.solvers[s];
      EXPECT_EQ(stats.objective.mean(), objective[s].mean())
          << config.solvers[s] << " jobs " << jobs;
      EXPECT_EQ(stats.acceptance.mean(), acceptance[s].mean())
          << config.solvers[s] << " jobs " << jobs;
      EXPECT_EQ(stats.bound_ratio.mean(), bound_ratio[s].mean())
          << config.solvers[s] << " jobs " << jobs;
    }
  }
}

TEST(MpScale, OverloadRejectsAndStaysValid) {
  // Overloaded system: the dealt candidates that fit nowhere are rejected by
  // the per-PE solves, and the solution must still verify.
  const MultiProcScaleSolver scale;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 18, 6.0, 1.0, 2);
    const RejectionSolution s = scale.solve(p);
    check_solution(p, s);
    EXPECT_LT(s.accepted_count(), p.size());
    for (const Cycles load : processor_loads(p, s)) {
      EXPECT_LE(load, p.cycle_capacity());
    }
  }
}

TEST(MpScale, ManyProcessorsWithEmptyPes) {
  // m far beyond n: surplus PEs stay empty, the lockstep phase sees lanes of
  // empty/1-task subproblems, and everything still verifies.
  const RejectionProblem p = test::small_instance(4, 6, 0.9, 4.0, 32);
  const RejectionSolution s = MultiProcScaleSolver().solve(p);
  check_solution(p, s);
  EXPECT_EQ(s.accepted_count(), p.size());
}

TEST(MpScale, BoundGapRecordingStaysSound) {
  MpScaleConfig config;
  config.record_bound_gap = true;
  const MultiProcScaleSolver scale(config);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const RejectionProblem p = test::small_instance(seed, 12, 2.2, 1.0, 3);
    const RejectionSolution s = scale.solve(p);
    const double bound = multiproc_lower_bound(p);
    EXPECT_GE(s.objective(), bound - 1e-9 * std::max(1.0, bound)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace retask
