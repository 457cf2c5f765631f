// Small numeric toolbox shared across the library: tolerant comparisons,
// one-dimensional convex minimization, and integer lcm with overflow checks.
//
// The rejection schedulers repeatedly minimize convex single-variable
// functions (energy-per-cycle over speed, frame energy over execution time),
// so the minimizers here are written once, tested once, and reused.
#ifndef RETASK_COMMON_MATH_HPP
#define RETASK_COMMON_MATH_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "retask/common/error.hpp"

namespace retask {

/// Default relative tolerance used by the tolerant comparisons below.
inline constexpr double kRelTol = 1e-9;

/// True when `a` and `b` agree within `tol` relative to their magnitude
/// (falls back to an absolute comparison near zero).
bool almost_equal(double a, double b, double tol = kRelTol);

/// True when `a <= b` up to the tolerant comparison above. Used by the
/// feasibility checks so that analytically tight solutions (e.g. running
/// exactly at `smax`) are not rejected for rounding noise.
bool leq_tol(double a, double b, double tol = kRelTol);

/// Clamps `x` into `[lo, hi]`; requires `lo <= hi`.
double clamp(double x, double lo, double hi);

/// Minimizes a strictly unimodal (e.g. convex) function `f` over `[lo, hi]`
/// by golden-section search until the bracket is below `x_tol` wide.
/// Returns the abscissa of the minimum; requires `lo <= hi`. A template so
/// that every continuous energy evaluation (two searches per E(w) miss)
/// calls its objective inline instead of through a std::function.
template <typename F>
double minimize_unimodal(const F& f, double lo, double hi, double x_tol = 1e-12,
                         int max_iter = 200) {
  require(lo <= hi, "minimize_unimodal: lo must not exceed hi");
  if (hi - lo <= x_tol) return 0.5 * (lo + hi);

  // Golden-section search keeps one interior evaluation per step.
  constexpr double kInvPhi = 0.6180339887498949;  // 1/phi
  double a = lo;
  double b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  for (int it = 0; it < max_iter && (b - a) > x_tol * std::max(1.0, std::fabs(a) + std::fabs(b));
       ++it) {
    if (f1 <= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    }
  }
  return 0.5 * (a + b);
}

/// Least common multiple with overflow detection (throws retask::Error).
/// Arguments must be positive.
std::int64_t checked_lcm(std::int64_t a, std::int64_t b);

/// Integer power with overflow detection (throws retask::Error on overflow).
std::int64_t checked_mul(std::int64_t a, std::int64_t b);

}  // namespace retask

#endif  // RETASK_COMMON_MATH_HPP
