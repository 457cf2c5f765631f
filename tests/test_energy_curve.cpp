// Tests for the energy curve E(W): closed forms, both idle disciplines,
// discrete-speed hull behaviour, execution-plan consistency, and
// parameterized property sweeps (convexity, monotonicity) across models.
#include "retask/power/energy_curve.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "retask/common/error.hpp"
#include "retask/power/critical_speed.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/power/table_power.hpp"

namespace retask {
namespace {

TEST(EnergyCurve, RejectsNonPositiveWindow) {
  const PolynomialPowerModel m = PolynomialPowerModel::cubic();
  EXPECT_THROW(EnergyCurve(m, 0.0, IdleDiscipline::kDormantEnable), Error);
}

TEST(EnergyCurve, FeasibilityCapIsTopSpeedTimesWindow) {
  const PolynomialPowerModel m = PolynomialPowerModel::cubic();
  const EnergyCurve curve(m, 2.0, IdleDiscipline::kDormantEnable);
  EXPECT_DOUBLE_EQ(curve.max_workload(), 2.0);
  EXPECT_TRUE(curve.feasible(2.0));
  EXPECT_TRUE(curve.feasible(0.0));
  EXPECT_FALSE(curve.feasible(2.1));
  EXPECT_FALSE(curve.feasible(-0.1));
  EXPECT_THROW(curve.energy(2.5), Error);
}

TEST(EnergyCurve, CubicDormantEnableClosedForm) {
  // P(s) = s^3, sleep allowed: optimal speed is W/D, E = W^3 / D^2.
  const PolynomialPowerModel m = PolynomialPowerModel::cubic();
  const EnergyCurve curve(m, 1.0, IdleDiscipline::kDormantEnable);
  EXPECT_NEAR(curve.energy(0.0), 0.0, 1e-12);
  for (const double w : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    EXPECT_NEAR(curve.energy(w), w * w * w, 1e-6) << "W = " << w;
  }
}

TEST(EnergyCurve, CubicScalesWithWindow) {
  const PolynomialPowerModel m = PolynomialPowerModel::cubic();
  const EnergyCurve curve(m, 4.0, IdleDiscipline::kDormantEnable);
  // E = W^3 / D^2.
  EXPECT_NEAR(curve.energy(2.0), 8.0 / 16.0, 1e-6);
}

TEST(EnergyCurve, XscaleEnableUsesCriticalSpeedWhenLight) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  const EnergyCurve curve(m, 1.0, IdleDiscipline::kDormantEnable);
  const double s_crit = m.analytic_critical_speed();
  const double light = 0.5 * s_crit;  // below the critical rate
  EXPECT_NEAR(curve.energy(light), light * m.energy_per_cycle(s_crit), 1e-6);
  // Above the critical rate the processor stretches work over the window.
  const double heavy = 0.8;
  EXPECT_NEAR(curve.energy(heavy), m.power(heavy) * 1.0, 1e-6);
}

TEST(EnergyCurve, XscaleDisablePaysLeakageForWholeWindow) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  const EnergyCurve curve(m, 1.0, IdleDiscipline::kDormantDisable);
  // E(W) = beta1 * D + beta2 * W^3 / D^2 (dynamic part runs at W/D).
  EXPECT_NEAR(curve.energy(0.0), 0.08, 1e-12);
  for (const double w : {0.2, 0.5, 0.9}) {
    EXPECT_NEAR(curve.energy(w), 0.08 + 1.52 * w * w * w, 1e-6) << "W = " << w;
  }
}

TEST(EnergyCurve, DisableNeverCheaperThanEnable) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  const EnergyCurve enable(m, 1.0, IdleDiscipline::kDormantEnable);
  const EnergyCurve disable(m, 1.0, IdleDiscipline::kDormantDisable);
  for (double w = 0.0; w <= 1.0; w += 0.05) {
    EXPECT_LE(enable.energy(w), disable.energy(w) + 1e-9) << "W = " << w;
  }
}

TEST(EnergyCurve, DiscreteHullInterpolatesBetweenSpeeds) {
  const TablePowerModel m = TablePowerModel::xscale5();
  const EnergyCurve curve(m, 1.0, IdleDiscipline::kDormantEnable);
  // The 0.15 point lies above the (0,0)-(0.4,P(0.4)) hull segment, so the
  // energy at rate 0.2 is linear interpolation toward (0.4, P(0.4)).
  const double p04 = 0.08 + 1.52 * 0.4 * 0.4 * 0.4;
  EXPECT_NEAR(curve.energy(0.2), 0.5 * p04, 1e-9);
  // At an exact hull speed the energy is the table power times the window.
  EXPECT_NEAR(curve.energy(0.4), p04, 1e-9);
  EXPECT_NEAR(curve.energy(1.0), 1.6, 1e-9);
}

TEST(EnergyCurve, DiscreteNeverBeatsIdealContinuous) {
  const PolynomialPowerModel ideal = PolynomialPowerModel::xscale();
  const TablePowerModel table = TablePowerModel::xscale5();
  const EnergyCurve ic(ideal, 1.0, IdleDiscipline::kDormantEnable);
  const EnergyCurve tc(table, 1.0, IdleDiscipline::kDormantEnable);
  for (double w = 0.0; w <= 1.0; w += 0.04) {
    EXPECT_LE(ic.energy(w), tc.energy(w) + 1e-9) << "W = " << w;
  }
}

TEST(EnergyCurve, FinerSpeedTablesApproachTheIdealCurve) {
  const PolynomialPowerModel ideal = PolynomialPowerModel::xscale();
  const EnergyCurve ic(ideal, 1.0, IdleDiscipline::kDormantEnable);
  double coarse_gap = 0.0;
  double fine_gap = 0.0;
  const TablePowerModel coarse = TablePowerModel::sampled(0.08, 1.52, 3.0, 0.25, 1.0, 2);
  const TablePowerModel fine = TablePowerModel::sampled(0.08, 1.52, 3.0, 0.25, 1.0, 16);
  const EnergyCurve cc(coarse, 1.0, IdleDiscipline::kDormantEnable);
  const EnergyCurve fc(fine, 1.0, IdleDiscipline::kDormantEnable);
  for (double w = 0.05; w <= 1.0; w += 0.05) {
    coarse_gap += cc.energy(w) - ic.energy(w);
    fine_gap += fc.energy(w) - ic.energy(w);
  }
  EXPECT_GE(coarse_gap, fine_gap);
  EXPECT_GE(fine_gap, -1e-9);
}

TEST(EnergyCurve, MarginalIsNonNegativeAndNonDecreasing) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  const EnergyCurve curve(m, 1.0, IdleDiscipline::kDormantEnable);
  double prev = -1.0;
  for (double w = 0.02; w <= 0.98; w += 0.04) {
    const double g = curve.marginal(w);
    EXPECT_GE(g, -1e-9);
    EXPECT_GE(g, prev - 1e-6) << "marginal decreased at W = " << w;
    prev = g;
  }
}

TEST(EnergyCurve, CopySemantics) {
  const PolynomialPowerModel m = PolynomialPowerModel::xscale();
  const EnergyCurve a(m, 1.0, IdleDiscipline::kDormantEnable);
  const EnergyCurve b = a;  // copy
  EXPECT_NEAR(a.energy(0.5), b.energy(0.5), 1e-15);
  EnergyCurve c(PolynomialPowerModel::cubic(), 2.0, IdleDiscipline::kDormantDisable);
  c = a;  // copy assign
  EXPECT_NEAR(c.energy(0.5), a.energy(0.5), 1e-15);
  EXPECT_EQ(c.window(), 1.0);
}

// ---------------------------------------------------------------------------
// Parameterized property sweep over models and disciplines.

struct CurveCase {
  const char* label;
  std::shared_ptr<const PowerModel> model;
  IdleDiscipline idle;
  double window;
};

class EnergyCurveProperty : public ::testing::TestWithParam<CurveCase> {};

TEST_P(EnergyCurveProperty, MonotoneIncreasing) {
  const CurveCase& c = GetParam();
  const EnergyCurve curve(*c.model, c.window, c.idle);
  double prev = curve.energy(0.0);
  for (int k = 1; k <= 40; ++k) {
    const double w = curve.max_workload() * static_cast<double>(k) / 40.0;
    const double e = curve.energy(w);
    EXPECT_GE(e, prev - 1e-9) << c.label << " at W = " << w;
    prev = e;
  }
}

TEST_P(EnergyCurveProperty, Convex) {
  const CurveCase& c = GetParam();
  const EnergyCurve curve(*c.model, c.window, c.idle);
  const double cap = curve.max_workload();
  for (int i = 0; i <= 20; ++i) {
    for (int j = i; j <= 20; ++j) {
      const double a = cap * static_cast<double>(i) / 20.0;
      const double b = cap * static_cast<double>(j) / 20.0;
      const double mid = 0.5 * (a + b);
      EXPECT_LE(curve.energy(mid), 0.5 * (curve.energy(a) + curve.energy(b)) + 1e-7)
          << c.label << " convexity violated at (" << a << ", " << b << ")";
    }
  }
}

TEST_P(EnergyCurveProperty, PlanReproducesWorkWindowAndEnergy) {
  const CurveCase& c = GetParam();
  const EnergyCurve curve(*c.model, c.window, c.idle);
  for (int k = 0; k <= 20; ++k) {
    const double w = curve.max_workload() * static_cast<double>(k) / 20.0;
    const ExecutionPlan plan = curve.plan(w);
    EXPECT_NEAR(plan.total_cycles(), w, 1e-6 * std::max(1.0, w)) << c.label;
    EXPECT_NEAR(plan.total_time(), c.window, 1e-6 * c.window) << c.label;
    EXPECT_NEAR(curve.plan_energy(plan), curve.energy(w),
                1e-4 * std::max(1.0, curve.energy(w)))
        << c.label << " at W = " << w;
  }
}

TEST_P(EnergyCurveProperty, ExecutionSpeedsStayInRange) {
  const CurveCase& c = GetParam();
  const EnergyCurve curve(*c.model, c.window, c.idle);
  for (int k = 1; k <= 10; ++k) {
    const double w = curve.max_workload() * static_cast<double>(k) / 10.0;
    for (const PlanSegment& seg : curve.plan(w).segments) {
      if (seg.speed > 0.0) {
        EXPECT_LE(seg.speed, c.model->max_speed() * (1.0 + 1e-9)) << c.label;
        EXPECT_GE(seg.speed, c.model->min_speed() - 1e-9) << c.label;
      }
    }
  }
}

TEST_P(EnergyCurveProperty, ConvexFloorMinorizesEnergyAndIsConvex) {
  const CurveCase& c = GetParam();
  // Free sleep / dormant-disable: the curve is convex and the floor IS the
  // curve, bit for bit. Switch overheads: the floor must stay below E
  // everywhere and keep non-decreasing chord slopes (the convexity the
  // multiprocessor lower bound's Jensen step relies on).
  for (const SleepParams sleep : {SleepParams{}, SleepParams{0.12, 0.07}}) {
    const EnergyCurve curve(*c.model, c.window, c.idle, sleep);
    const int grid = 160;
    std::vector<double> floor_at(grid + 1);
    double prev_slope = -std::numeric_limits<double>::infinity();
    for (int k = 0; k <= grid; ++k) {
      const double w = curve.max_workload() * static_cast<double>(k) / grid;
      floor_at[k] = curve.convex_floor(w);
      EXPECT_LE(floor_at[k], curve.energy(w) + 1e-12) << c.label << " w " << w;
      if (curve.convex()) {
        EXPECT_EQ(floor_at[k], curve.energy(w)) << c.label << " w " << w;
      }
      if (k > 0) {
        const double slope = floor_at[k] - floor_at[k - 1];
        EXPECT_GE(slope, prev_slope - 1e-9 * std::max(1.0, std::fabs(slope)))
            << c.label << " k " << k;
        prev_slope = slope;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndDisciplines, EnergyCurveProperty,
    ::testing::Values(
        CurveCase{"cubic-enable",
                  std::make_shared<PolynomialPowerModel>(PolynomialPowerModel::cubic()),
                  IdleDiscipline::kDormantEnable, 1.0},
        CurveCase{"cubic-disable",
                  std::make_shared<PolynomialPowerModel>(PolynomialPowerModel::cubic()),
                  IdleDiscipline::kDormantDisable, 1.0},
        CurveCase{"xscale-enable",
                  std::make_shared<PolynomialPowerModel>(PolynomialPowerModel::xscale()),
                  IdleDiscipline::kDormantEnable, 1.0},
        CurveCase{"xscale-disable",
                  std::make_shared<PolynomialPowerModel>(PolynomialPowerModel::xscale()),
                  IdleDiscipline::kDormantDisable, 2.5},
        CurveCase{"xscale-minspeed",
                  std::make_shared<PolynomialPowerModel>(0.08, 1.52, 3.0, 0.2, 1.0),
                  IdleDiscipline::kDormantEnable, 1.0},
        CurveCase{"quadratic-enable",
                  std::make_shared<PolynomialPowerModel>(0.05, 1.0, 2.0, 0.0, 1.0),
                  IdleDiscipline::kDormantEnable, 1.0},
        CurveCase{"table5-enable",
                  std::make_shared<TablePowerModel>(TablePowerModel::xscale5()),
                  IdleDiscipline::kDormantEnable, 1.0},
        CurveCase{"table5-disable",
                  std::make_shared<TablePowerModel>(TablePowerModel::xscale5()),
                  IdleDiscipline::kDormantDisable, 1.0},
        CurveCase{"table2-enable",
                  std::make_shared<TablePowerModel>(
                      TablePowerModel::sampled(0.08, 1.52, 3.0, 0.5, 1.0, 2)),
                  IdleDiscipline::kDormantEnable, 3.0}),
    [](const ::testing::TestParamInfo<CurveCase>& param_info) {
      std::string label = param_info.param.label;
      for (char& ch : label) {
        if (ch == '-') ch = '_';
      }
      return label;
    });

// Bit-pinned continuous energies: every continuous E(w) runs two
// golden-section searches through minimize_unimodal, and the memo, the
// energy rows and every exactness fuzz mode assume those bits never move.
// Hex patterns recorded before minimize_unimodal took its objective as a
// template parameter instead of a std::function.
struct PinnedCurve {
  const char* label;
  PolynomialPowerModel model;
  IdleDiscipline idle;
  SleepParams sleep;
  std::array<std::uint64_t, 8> energy;  ///< E(f * max_workload) for kPinnedLoads
};

constexpr std::array<double, 8> kPinnedLoads = {0.02, 0.1, 0.23, 0.37, 0.5, 0.66, 0.81, 0.97};

TEST(EnergyCurve, ContinuousEnergiesKeepTheirPinnedBits) {
  const PinnedCurve curves[] = {
      {"xscale enable", PolynomialPowerModel::xscale(), IdleDiscipline::kDormantEnable, {},
       {0x3f80865814e7ca4dull, 0x3fa4a7ee1a21bce1ull, 0x3fb7c11e9e0d32d0ull,
        0x3fc418550b7533fbull, 0x3fd147ae147af62eull, 0x3fe08b36d55446e7ull,
        0x3fec68c73ec39463ull, 0x3ff779e8b9bd7aa8ull}},
      {"xscale disable", PolynomialPowerModel::xscale(), IdleDiscipline::kDormantDisable, {},
       {0x3fb47bad4a7b7969ull, 0x3fb4de7ea5f84f97ull, 0x3fb936e46da86469ull,
        0x3fc418550b753fb6ull, 0x3fd147ae147afbc1ull, 0x3fe08b36d554493aull,
        0x3fec68c73ec39728ull, 0x3ff779e8b9bd7be8ull}},
      {"cubic enable", PolynomialPowerModel::cubic(), IdleDiscipline::kDormantEnable, {},
       {0x3ee0c6f7a0b89933ull, 0x3f50624dd2f2249dull, 0x3f88eb0318b9a4a9ull,
        0x3fa9ef30a4e3b521ull, 0x3fc00000000022d6ull, 0x3fd266559f6ee716ull,
        0x3fe101908e5841c3ull, 0x3fed349e01de5faaull}},
      {"cubic disable", PolynomialPowerModel::cubic(), IdleDiscipline::kDormantDisable, {},
       {0x3ee0c6f7a0b89933ull, 0x3f50624dd2f2249dull, 0x3f88eb0318b9a4a9ull,
        0x3fa9ef30a4e3b521ull, 0x3fc00000000022d6ull, 0x3fd266559f6ee716ull,
        0x3fe101908e5841c3ull, 0x3fed349e01de5faaull}},
      {"xscale enable, sleep overheads", PolynomialPowerModel::xscale(),
       IdleDiscipline::kDormantEnable, {0.02, 0.05},
       {0x3fadbb2f9ed38c2dull, 0x3fb4de7ea5f84f97ull, 0x3fb936e46da86469ull,
        0x3fc418550b753fb6ull, 0x3fd147ae147afbc1ull, 0x3fe08b36d554493aull,
        0x3fec68c73ec39728ull, 0x3ff779e8b9bd7be8ull}},
  };
  for (const PinnedCurve& pin : curves) {
    const EnergyCurve curve(pin.model, 1.0, pin.idle, pin.sleep);
    for (std::size_t i = 0; i < kPinnedLoads.size(); ++i) {
      const double energy = curve.energy(kPinnedLoads[i] * curve.max_workload());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(energy), pin.energy[i])
          << pin.label << " load fraction " << kPinnedLoads[i];
    }
  }
}

}  // namespace
}  // namespace retask
