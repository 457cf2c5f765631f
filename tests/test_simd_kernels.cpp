// Tests for the SIMD kernel layer: every available backend must reproduce
// the scalar reference kernels bit for bit at every width (including the
// vector-width edges), the fused hull-energy kernel must match
// EnergyCurve::energy exactly, and whole solvers must be backend- and
// thread-count-invariant down to the last bit.
#include "retask/simd/kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "retask/common/error.hpp"
#include "retask/common/rng.hpp"
#include "retask/core/budgeted.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/fptas.hpp"
#include "retask/core/greedy.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/exp/harness.hpp"
#include "retask/power/table_power.hpp"
#include "retask/simd/backend.hpp"
#include "test_util.hpp"

namespace retask {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Every backend the host can actually execute (always includes scalar).
std::vector<simd::Backend> available_backends() {
  std::vector<simd::Backend> out;
  for (const simd::Backend b : {simd::Backend::kScalar, simd::Backend::kSse2,
                                simd::Backend::kAvx2, simd::Backend::kNeon}) {
    if (simd::backend_available(b)) out.push_back(b);
  }
  return out;
}

/// Row widths covering the interesting edges: below/at/above every vector
/// width in use (2 and 4 lanes), the take-bit word boundary, and a bulk size.
const std::vector<std::size_t> kWidths = {1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 130, 4096};

/// Bitwise equality for doubles (distinguishes -0.0 from 0.0 and compares
/// NaN/inf payloads exactly).
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << a << " != " << b << " (bitwise)";
}

/// A random DP value row: mostly finite values, ~25% -inf sentinels.
std::vector<double> random_f64_row(Rng& rng, std::size_t width) {
  std::vector<double> row(width);
  for (double& v : row) {
    v = rng.uniform() < 0.25 ? -kInf : rng.uniform(-50.0, 50.0);
  }
  return row;
}

TEST(SimdBackend, ParseNamesRoundTrip) {
  simd::Backend b = simd::Backend::kScalar;
  EXPECT_TRUE(simd::parse_backend("off", b));
  EXPECT_EQ(b, simd::Backend::kScalar);
  EXPECT_TRUE(simd::parse_backend("scalar", b));
  EXPECT_EQ(b, simd::Backend::kScalar);
  EXPECT_TRUE(simd::parse_backend("sse2", b));
  EXPECT_EQ(b, simd::Backend::kSse2);
  EXPECT_TRUE(simd::parse_backend("avx2", b));
  EXPECT_EQ(b, simd::Backend::kAvx2);
  EXPECT_TRUE(simd::parse_backend("neon", b));
  EXPECT_EQ(b, simd::Backend::kNeon);
  // "auto" and "" defer to detection: recognized but not a fixed backend.
  EXPECT_FALSE(simd::parse_backend("auto", b));
  EXPECT_FALSE(simd::parse_backend("", b));
  EXPECT_THROW(simd::parse_backend("avx512", b), Error);
  EXPECT_EQ(simd::to_string(simd::Backend::kScalar), "scalar");
  EXPECT_EQ(simd::to_string(simd::Backend::kAvx2), "avx2");
}

TEST(SimdBackend, ScalarAlwaysAvailableAndDetectIsAvailable) {
  EXPECT_TRUE(simd::backend_available(simd::Backend::kScalar));
  EXPECT_TRUE(simd::backend_available(simd::detect_backend()));
  EXPECT_EQ(&simd::kernels_for(simd::Backend::kScalar), simd::scalar_table());
  EXPECT_NE(simd::scalar_table(), nullptr);
}

TEST(SimdBackend, ScopedOverrideNestsAndRestores) {
  const simd::Backend ambient = simd::active_backend();
  {
    simd::ScopedBackend outer(simd::Backend::kScalar);
    EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);
    if (simd::backend_available(simd::Backend::kSse2)) {
      simd::ScopedBackend inner(simd::Backend::kSse2);
      EXPECT_EQ(simd::active_backend(), simd::Backend::kSse2);
    }
    EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);
  }
  EXPECT_EQ(simd::active_backend(), ambient);
}

/// Runs one relax_desc_f64 call through the scalar reference and `table`
/// on copies of the same row and take bitset (`take` may be wider than the
/// row; the call sees it from word `word_offset` on, as a lockstep lane
/// does) and compares both results bit for bit, untouched words included.
::testing::AssertionResult relax_f64_matches(const simd::KernelTable& table,
                                             const std::vector<double>& row,
                                             const std::vector<std::uint64_t>& take,
                                             std::size_t word_offset, std::size_t shift,
                                             std::size_t lo, std::size_t hi, double add) {
  std::vector<double> row_a = row;
  std::vector<double> row_b = row;
  std::vector<std::uint64_t> take_a = take;
  std::vector<std::uint64_t> take_b = take;
  simd::scalar_table()->relax_desc_f64(row_a.data(), take_a.data() + word_offset, shift, lo, hi,
                                       add);
  table.relax_desc_f64(row_b.data(), take_b.data() + word_offset, shift, lo, hi, add);
  for (std::size_t w = 0; w < row.size(); ++w) {
    if (!bits_equal(row_a[w], row_b[w])) return bits_equal(row_a[w], row_b[w]) << " at w=" << w;
  }
  if (take_a != take_b) return ::testing::AssertionFailure() << "take bits differ";
  return ::testing::AssertionSuccess();
}

std::string relax_case(simd::Backend backend, std::size_t shift, std::size_t lo,
                       std::size_t hi) {
  return std::string(simd::to_string(backend)) + " shift=" + std::to_string(shift) +
         " lo=" + std::to_string(lo) + " hi=" + std::to_string(hi);
}

TEST(SimdKernels, RelaxF64MatchesScalarAtEveryWidth) {
  for (const simd::Backend backend : available_backends()) {
    const simd::KernelTable& table = simd::kernels_for(backend);
    for (const std::size_t width : kWidths) {
      Rng rng(0xC0FFEE ^ (width * 4u + static_cast<std::size_t>(backend)));
      for (int rep = 0; rep < 8; ++rep) {
        const auto shift = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(width) - 1));
        const std::vector<double> base = random_f64_row(rng, width);
        std::vector<std::uint64_t> base_take((width + 63) / 64);
        for (auto& w : base_take) w = rng();
        ASSERT_TRUE(relax_f64_matches(table, base, base_take, 0, shift, shift, width - 1,
                                      rng.uniform(0.1, 20.0)))
            << relax_case(backend, shift, shift, width - 1);
      }
    }
  }
}

TEST(SimdKernels, RelaxF64EmptyRangeIsANoop) {
  for (const simd::Backend backend : available_backends()) {
    const simd::KernelTable& table = simd::kernels_for(backend);
    std::vector<double> row = {1.0, 2.0, 3.0};
    std::vector<std::uint64_t> take = {0};
    // hi < lo: the descending loop never executes.
    table.relax_desc_f64(row.data(), take.data(), 2, 2, 1, 5.0);
    EXPECT_EQ(row, (std::vector<double>{1.0, 2.0, 3.0}));
    EXPECT_EQ(take[0], 0u);
  }
}

TEST(SimdKernels, RelaxF64MatchesScalarOnArbitrarySubranges) {
  // lo > shift and hi < width - 1, empty ranges (hi == lo - 1) included,
  // small shifts (a source cell inside the vector chunk) and shifts around
  // one choice word, over pre-set take bits.
  const std::vector<std::size_t> shifts = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65};
  for (const simd::Backend backend : available_backends()) {
    const simd::KernelTable& table = simd::kernels_for(backend);
    for (const std::size_t width : {9u, 64u, 70u, 130u, 300u, 1000u}) {
      Rng rng(0x5B7A6E ^ (width * 4u + static_cast<std::size_t>(backend)));
      for (const std::size_t shift : shifts) {
        if (shift >= width) continue;
        for (int rep = 0; rep < 24; ++rep) {
          const auto lo = static_cast<std::size_t>(rng.uniform_int(
              static_cast<std::int64_t>(shift), static_cast<std::int64_t>(width) - 1));
          const auto hi = rep % 6 == 0 ? lo - 1
                                       : static_cast<std::size_t>(rng.uniform_int(
                                             static_cast<std::int64_t>(lo),
                                             static_cast<std::int64_t>(width) - 1));
          const std::vector<double> row = random_f64_row(rng, width);
          std::vector<std::uint64_t> take((width + 63) / 64);
          for (auto& word : take) word = rng() & rng();
          ASSERT_TRUE(relax_f64_matches(table, row, take, 0, shift, lo, hi,
                                        rng.uniform(0.1, 20.0)))
              << relax_case(backend, shift, lo, hi);
        }
      }
    }
  }
}

TEST(SimdKernels, RelaxF64MatchesScalarAtEveryRangeEndResidue) {
  // lo and hi + 1 at every residue mod 64 (hence mod 8): ranges inside one
  // choice word (empty when both ends coincide) and ranges spanning two.
  constexpr std::size_t kWidth = 320;
  for (const simd::Backend backend : available_backends()) {
    const simd::KernelTable& table = simd::kernels_for(backend);
    Rng rng(0xE5D1E ^ static_cast<std::size_t>(backend));
    const std::vector<double> row = random_f64_row(rng, kWidth);
    std::vector<std::uint64_t> take(kWidth / 64);
    for (auto& word : take) word = rng() & rng();
    for (const std::size_t shift : {0u, 3u, 8u, 65u}) {
      for (std::size_t lo_residue = 0; lo_residue < 64; ++lo_residue) {
        const std::size_t lo = 128 + lo_residue;
        for (std::size_t end_residue = 0; end_residue < 64; ++end_residue) {
          for (const std::size_t end_word : {128u, 256u}) {
            const std::size_t end = end_word + end_residue;  // hi + 1
            if (end < lo) continue;
            ASSERT_TRUE(relax_f64_matches(table, row, take, 0, shift, lo, end - 1, 7.5))
                << relax_case(backend, shift, lo, end - 1);
          }
        }
      }
    }
  }
}

TEST(SimdKernels, RelaxF64WritesOnlyItsOwnWordsAtAWordOffset) {
  // The lockstep lanes pass row_words(i) + word_offset: the kernel must
  // index bits from that pointer and leave the words around it alone.
  constexpr std::size_t kWidth = 200;
  constexpr std::size_t kOffset = 3;
  for (const simd::Backend backend : available_backends()) {
    const simd::KernelTable& table = simd::kernels_for(backend);
    Rng rng(0x0FF5E7 ^ static_cast<std::size_t>(backend));
    for (int rep = 0; rep < 32; ++rep) {
      const std::vector<double> row = random_f64_row(rng, kWidth);
      std::vector<std::uint64_t> take(kOffset + (kWidth + 63) / 64 + 2);
      for (auto& word : take) word = rng() & rng();
      const auto shift = static_cast<std::size_t>(rng.uniform_int(0, 40));
      const auto lo = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(shift), kWidth - 1));
      const auto hi = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(lo), kWidth - 1));
      ASSERT_TRUE(relax_f64_matches(table, row, take, kOffset, shift, lo, hi,
                                    rng.uniform(0.1, 20.0)))
          << relax_case(backend, shift, lo, hi);
    }
  }
}

TEST(SimdKernels, RelaxF64MatchesScalarOnAWideRowWithUnpredictableImprovements) {
  // W = 10001 with roughly 40 % of the cells improving in no pattern: as in
  // a real exact-DP fill, no branch on "did any lane improve" can predict
  // it. Row values are i.i.d.; the negative add and the -inf sprinkle set
  // the improving share.
  constexpr std::size_t kWidth = 10001;
  for (const simd::Backend backend : available_backends()) {
    const simd::KernelTable& table = simd::kernels_for(backend);
    Rng rng(0x10001 ^ static_cast<std::size_t>(backend));
    for (const std::size_t shift : {1u, 7u, 37u, 613u}) {
      std::vector<double> row(kWidth);
      for (double& v : row) v = rng.uniform() < 0.1 ? -kInf : rng.uniform(0.0, 100.0);
      const std::vector<std::uint64_t> take((kWidth + 63) / 64, 0);
      const double add = -12.5;
      ASSERT_TRUE(relax_f64_matches(table, row, take, 0, shift, shift, kWidth - 1, add))
          << relax_case(backend, shift, shift, kWidth - 1);
      std::vector<double> probe = row;
      std::vector<std::uint64_t> bits = take;
      table.relax_desc_f64(probe.data(), bits.data(), shift, shift, kWidth - 1, add);
      std::size_t improved = 0;
      for (const std::uint64_t word : bits) {
        improved += static_cast<std::size_t>(std::popcount(word));
      }
      const double share = static_cast<double>(improved) / static_cast<double>(kWidth - shift);
      EXPECT_GT(share, 0.3) << shift;
      EXPECT_LT(share, 0.5) << shift;
    }
  }
}

TEST(SimdKernels, RelaxI64MatchesScalarAtEveryWidth) {
  const simd::KernelTable& scalar = *simd::scalar_table();
  for (const simd::Backend backend : available_backends()) {
    const simd::KernelTable& table = simd::kernels_for(backend);
    for (const std::size_t width : kWidths) {
      Rng rng(0xBADD1E ^ (width * 4u + static_cast<std::size_t>(backend)));
      for (int rep = 0; rep < 8; ++rep) {
        const auto shift = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(width) - 1));
        std::vector<std::int64_t> base_rej(width);
        std::vector<double> base_pay(width);
        for (std::size_t w = 0; w < width; ++w) {
          base_rej[w] = rng.uniform() < 0.3 ? -1 : rng.uniform_int(0, 1000000);
          base_pay[w] = rng.uniform(0.0, 100.0);
        }
        const std::size_t words = (width + 63) / 64;
        std::vector<std::uint64_t> base_take(words);
        for (auto& w : base_take) w = rng();
        const std::int64_t add_cycles = rng.uniform_int(1, 5000);
        const double add_pay = rng.uniform(0.1, 10.0);

        std::vector<std::int64_t> rej_a = base_rej;
        std::vector<std::int64_t> rej_b = base_rej;
        std::vector<double> pay_a = base_pay;
        std::vector<double> pay_b = base_pay;
        std::vector<std::uint64_t> take_a = base_take;
        std::vector<std::uint64_t> take_b = base_take;
        scalar.relax_desc_i64(rej_a.data(), pay_a.data(), take_a.data(), shift, shift, width - 1,
                              add_cycles, add_pay);
        table.relax_desc_i64(rej_b.data(), pay_b.data(), take_b.data(), shift, shift, width - 1,
                             add_cycles, add_pay);
        ASSERT_EQ(rej_a, rej_b) << simd::to_string(backend) << " width=" << width;
        for (std::size_t w = 0; w < width; ++w) {
          ASSERT_TRUE(bits_equal(pay_a[w], pay_b[w]))
              << simd::to_string(backend) << " width=" << width << " w=" << w;
        }
        ASSERT_EQ(take_a, take_b) << simd::to_string(backend) << " width=" << width;
      }
    }
  }
}

TEST(SimdKernels, ArgmaxMatchesScalarIncludingTies) {
  const simd::KernelTable& scalar = *simd::scalar_table();
  for (const simd::Backend backend : available_backends()) {
    const simd::KernelTable& table = simd::kernels_for(backend);
    for (const std::size_t n : kWidths) {
      Rng rng(0xA97A ^ (n * 4u + static_cast<std::size_t>(backend)));
      for (int rep = 0; rep < 12; ++rep) {
        std::vector<double> values(n);
        for (double& v : values) v = rng.uniform(-10.0, 10.0);
        // Force ties (duplicate the value at a random index elsewhere) and
        // signed zeros so the first-attainment rule is actually exercised.
        if (n >= 2) {
          const auto i = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
          const auto j = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
          values[j] = values[i];
          values[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))] =
              rng.uniform() < 0.5 ? 0.0 : -0.0;
        }
        for (const double init : {-kInf, 0.0, values[0], 100.0}) {
          ASSERT_EQ(scalar.argmax_f64(values.data(), n, init),
                    table.argmax_f64(values.data(), n, init))
              << simd::to_string(backend) << " n=" << n << " init=" << init;
        }
      }
    }
  }
}

TEST(SimdKernels, ArgminStridedMatchesScalarIncludingInfSentinels) {
  const simd::KernelTable& scalar = *simd::scalar_table();
  for (const simd::Backend backend : available_backends()) {
    const simd::KernelTable& table = simd::kernels_for(backend);
    for (const std::size_t n : kWidths) {
      for (const std::size_t stride : {std::size_t{1}, std::size_t{3}}) {
        Rng rng(0x317 ^ (n * 8u + stride + static_cast<std::size_t>(backend)));
        for (int rep = 0; rep < 8; ++rep) {
          std::vector<double> values(n * stride, 1e300);
          for (std::size_t i = 0; i < n; ++i) {
            // The greedy's delta rows mix finite deltas with +inf sentinels.
            values[i * stride] = rng.uniform() < 0.3 ? kInf : rng.uniform(-5.0, 5.0);
          }
          if (n >= 2) values[(n - 1) * stride] = values[0];  // tie across ends
          for (const double init : {kInf, 0.0, -1e-12}) {
            ASSERT_EQ(scalar.argmin_strided_f64(values.data(), n, stride, init),
                      table.argmin_strided_f64(values.data(), n, stride, init))
                << simd::to_string(backend) << " n=" << n << " stride=" << stride;
          }
        }
      }
    }
  }
}

TEST(SimdKernels, SelectMaskMatchesScalarAtEveryWidth) {
  // The lockstep/select prediction scan: bit i set iff
  // total - kept[i] < snapshot. -inf kept entries (unreachable rows) fold
  // into the compare — total - (-inf) = +inf is never < snapshot, even when
  // snapshot is +inf itself. Widths are capped at the kernel's 64-row
  // contract.
  const simd::KernelTable& scalar = *simd::scalar_table();
  for (const simd::Backend backend : available_backends()) {
    const simd::KernelTable& table = simd::kernels_for(backend);
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
                                std::size_t{5}, std::size_t{7}, std::size_t{8}, std::size_t{9},
                                std::size_t{31}, std::size_t{63}, std::size_t{64}}) {
      Rng rng(0x5E1E ^ (n * 4u + static_cast<std::size_t>(backend)));
      for (int rep = 0; rep < 12; ++rep) {
        const std::vector<double> kept = random_f64_row(rng, n);
        const double total = rng.uniform(0.0, 100.0);
        for (const double snapshot : {kInf, total, rng.uniform(-50.0, 150.0), 0.0}) {
          std::uint64_t expected = 0;
          for (std::size_t i = 0; i < n; ++i) {
            if (total - kept[i] < snapshot) expected |= std::uint64_t{1} << i;
          }
          ASSERT_EQ(scalar.select_mask_f64(kept.data(), n, total, snapshot), expected)
              << "scalar n=" << n;
          ASSERT_EQ(table.select_mask_f64(kept.data(), n, total, snapshot), expected)
              << simd::to_string(backend) << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdKernels, SelectScanMatchesScalarAtEveryWidth) {
  // The select's replay walk: visits the set mask bits in ascending order,
  // prunes rows whose penalty alone reaches the incumbent, early-exits (and
  // reports done) when a candidate's energy alone reaches it, and otherwise
  // takes objective improvements. Every backend must reproduce the scalar
  // walk's (best, best_w, done) triple exactly — the walk is order-sensitive,
  // so a single divergence shows up in the outputs. Widths are capped at the
  // kernel's 64-row contract; mask bits at or above n are zero per contract.
  const simd::KernelTable& scalar = *simd::scalar_table();
  for (const simd::Backend backend : available_backends()) {
    const simd::KernelTable& table = simd::kernels_for(backend);
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
                                std::size_t{5}, std::size_t{7}, std::size_t{8}, std::size_t{9},
                                std::size_t{31}, std::size_t{63}, std::size_t{64}}) {
      Rng rng(0x5CA9 ^ (n * 4u + static_cast<std::size_t>(backend)));
      for (int rep = 0; rep < 12; ++rep) {
        const std::vector<double> kept = random_f64_row(rng, n);
        // Ascending non-negative energies, as the solver's capacity rows
        // produce — including exact duplicates so ties hit both prune arms.
        std::vector<double> energy(n);
        double acc = rng.uniform(0.0, 1.0);
        for (std::size_t i = 0; i < n; ++i) {
          if (rng.uniform() < 0.7) acc += rng.uniform(0.0, 3.0);
          energy[i] = acc;
        }
        const double total = rng.uniform(0.0, 100.0);
        std::uint64_t mask = rng();
        if (n < 64) mask &= (std::uint64_t{1} << n) - 1;
        const std::size_t w0 = static_cast<std::size_t>(rng.uniform_int(0, 1000));
        for (const double init : {kInf, total, rng.uniform(-50.0, 150.0), energy[0]}) {
          double best_a = init;
          double best_b = init;
          std::size_t w_a = static_cast<std::size_t>(-1);
          std::size_t w_b = static_cast<std::size_t>(-1);
          const std::uint32_t done_a =
              scalar.select_scan_f64(kept.data(), energy.data(), n, mask, total, w0, &best_a, &w_a);
          const std::uint32_t done_b =
              table.select_scan_f64(kept.data(), energy.data(), n, mask, total, w0, &best_b, &w_b);
          ASSERT_EQ(done_a, done_b)
              << simd::to_string(backend) << " n=" << n << " init=" << init;
          ASSERT_TRUE(bits_equal(best_a, best_b))
              << simd::to_string(backend) << " n=" << n << " init=" << init;
          ASSERT_EQ(w_a, w_b) << simd::to_string(backend) << " n=" << n << " init=" << init;
        }
      }
    }
  }
}

/// Curves covering both idle disciplines and a costly sleep transition on a
/// discrete (hull) model — the kernel's entire domain.
std::vector<EnergyCurve> hull_curves() {
  const TablePowerModel model = TablePowerModel::xscale5();
  std::vector<EnergyCurve> curves;
  curves.emplace_back(model, 1.0, IdleDiscipline::kDormantEnable);
  curves.emplace_back(model, 2.5, IdleDiscipline::kDormantDisable);
  SleepParams sleep;
  sleep.switch_time = 0.2;
  sleep.switch_energy = 0.05;
  curves.emplace_back(model, 1.0, IdleDiscipline::kDormantEnable, sleep);
  return curves;
}

TEST(SimdKernels, EnergyBatchMatchesPerElementEnergyBitwise) {
  for (const EnergyCurve& curve : hull_curves()) {
    const double wpc = 1.0 / 1000.0;
    const auto cap = static_cast<std::int64_t>(curve.max_workload() / wpc * (1.0 - 1e-9));
    for (const simd::Backend backend : available_backends()) {
      simd::ScopedBackend forced(backend);
      for (const std::size_t n : kWidths) {
        Rng rng(0xE6E ^ (n * 4u + static_cast<std::size_t>(backend)));
        std::vector<std::int64_t> cycles(n);
        for (auto& c : cycles) c = rng.uniform_int(0, cap);
        cycles[0] = 0;  // the e_zero blend lane
        if (n >= 2) cycles[1] = cap;
        std::vector<double> batch(n);
        curve.energy_cycles_batch(wpc, cycles.data(), batch.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          const double one = curve.energy(wpc * static_cast<double>(cycles[i]));
          ASSERT_TRUE(bits_equal(batch[i], one))
              << simd::to_string(backend) << " n=" << n << " cycles=" << cycles[i];
        }
      }
    }
  }
}

/// A discrete-model rejection instance (hull energy kernel engaged).
RejectionProblem hull_instance(std::uint64_t seed, int task_count = 12, double load = 1.6) {
  ScenarioConfig config;
  config.task_count = task_count;
  config.load = load;
  config.resolution = 400.0;
  config.seed = seed;
  return make_scenario(config, TablePowerModel::xscale5());
}

TEST(SimdSolvers, EveryBackendReproducesForcedScalarBitwise) {
  std::vector<std::unique_ptr<RejectionSolver>> solvers;
  solvers.push_back(std::make_unique<ExactDpSolver>());
  solvers.push_back(std::make_unique<FptasSolver>(0.1));
  solvers.push_back(std::make_unique<DensityGreedySolver>());
  solvers.push_back(std::make_unique<MarginalGreedySolver>());
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    // Both model families: continuous (relax/argmin kernels only) and
    // discrete (adds the fused hull-energy kernel).
    const std::vector<RejectionProblem> problems = {test::small_instance(seed, 12, 1.6),
                                                    hull_instance(seed)};
    for (std::size_t p = 0; p < problems.size(); ++p) {
      for (const auto& solver : solvers) {
        SCOPED_TRACE(solver->name() + " seed=" + std::to_string(seed) +
                     " problem=" + std::to_string(p));
        RejectionSolution reference;
        {
          simd::ScopedBackend forced(simd::Backend::kScalar);
          reference = solver->solve(problems[p]);
        }
        for (const simd::Backend backend : available_backends()) {
          simd::ScopedBackend forced(backend);
          const RejectionSolution got = solver->solve(problems[p]);
          EXPECT_EQ(got.accepted, reference.accepted) << simd::to_string(backend);
          EXPECT_TRUE(bits_equal(got.energy, reference.energy)) << simd::to_string(backend);
          EXPECT_TRUE(bits_equal(got.penalty, reference.penalty)) << simd::to_string(backend);
        }
      }
    }
  }
}

TEST(SimdSolvers, BudgetedDpIsBackendInvariant) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const RejectionProblem source = hull_instance(seed, 10, 1.4);
    BudgetedProblem problem{source.tasks(), source.curve(), source.work_per_cycle(),
                            /*energy_budget=*/0.6 * source.energy_of_cycles(
                                std::min(source.tasks().total_cycles(), source.cycle_capacity()))};
    BudgetedSolution reference;
    {
      simd::ScopedBackend forced(simd::Backend::kScalar);
      reference = solve_budgeted_dp(problem);
    }
    for (const simd::Backend backend : available_backends()) {
      simd::ScopedBackend forced(backend);
      const BudgetedSolution got = solve_budgeted_dp(problem);
      EXPECT_EQ(got.accepted, reference.accepted) << simd::to_string(backend);
      EXPECT_TRUE(bits_equal(got.value, reference.value)) << simd::to_string(backend);
      EXPECT_TRUE(bits_equal(got.energy, reference.energy)) << simd::to_string(backend);
    }
  }
}

/// Restores the process-wide backend on scope exit (the jobs-invariance test
/// must force worker threads too, which the thread-local override cannot).
class GlobalBackendGuard {
 public:
  explicit GlobalBackendGuard(simd::Backend forced) : saved_(simd::active_backend()) {
    simd::set_backend(forced);
  }
  ~GlobalBackendGuard() { simd::set_backend(saved_); }
  GlobalBackendGuard(const GlobalBackendGuard&) = delete;
  GlobalBackendGuard& operator=(const GlobalBackendGuard&) = delete;

 private:
  simd::Backend saved_;
};

TEST(SimdSolvers, HarnessStatsAreJobCountInvariantUnderEveryBackend) {
  const auto factory = [](std::uint64_t seed) { return hull_instance(seed, 10, 1.5); };
  const auto reference = [](const RejectionProblem& p) { return fractional_lower_bound(p); };
  for (const simd::Backend backend : available_backends()) {
    SCOPED_TRACE(std::string("backend=") + std::string(simd::to_string(backend)));
    GlobalBackendGuard forced(backend);
    std::vector<std::unique_ptr<RejectionSolver>> lineup;
    lineup.push_back(std::make_unique<DensityGreedySolver>());
    lineup.push_back(std::make_unique<FptasSolver>(0.1));
    constexpr int kInstances = 24;
    const auto sequential = run_comparison(factory, lineup, reference, kInstances, 1, /*jobs=*/1);
    const auto parallel = run_comparison(factory, lineup, reference, kInstances, 1, /*jobs=*/8);
    ASSERT_EQ(sequential.size(), parallel.size());
    for (std::size_t a = 0; a < sequential.size(); ++a) {
      SCOPED_TRACE(sequential[a].name);
      EXPECT_EQ(sequential[a].ratio.mean(), parallel[a].ratio.mean());
      EXPECT_EQ(sequential[a].ratio.variance(), parallel[a].ratio.variance());
      EXPECT_EQ(sequential[a].objective.mean(), parallel[a].objective.mean());
      EXPECT_EQ(sequential[a].objective.min(), parallel[a].objective.min());
      EXPECT_EQ(sequential[a].objective.max(), parallel[a].objective.max());
    }
  }
}

}  // namespace
}  // namespace retask
