#include "retask/common/math.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "retask/common/error.hpp"

namespace retask {

bool almost_equal(double a, double b, double tol) {
  // Non-finite values compare exactly: infinity is never "almost" a finite
  // number, and NaN is never almost anything.
  if (!std::isfinite(a) || !std::isfinite(b)) return a == b;
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= tol * scale;
}

bool leq_tol(double a, double b, double tol) { return a <= b || almost_equal(a, b, tol); }

double clamp(double x, double lo, double hi) {
  require(lo <= hi, "clamp: lo must not exceed hi");
  return std::min(std::max(x, lo), hi);
}

std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  require(!__builtin_mul_overflow(a, b, &out), "checked_mul: 64-bit overflow");
  return out;
}

std::int64_t checked_lcm(std::int64_t a, std::int64_t b) {
  require(a > 0 && b > 0, "checked_lcm: arguments must be positive");
  const std::int64_t g = std::gcd(a, b);
  return checked_mul(a / g, b);
}

}  // namespace retask
