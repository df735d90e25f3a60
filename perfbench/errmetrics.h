// The paper's correctness metrics (§III-D), written out again from their
// definitions so the benchmark can recheck a campaign's recorded errors
// without trusting the tuner's own implementation:
//
//   scalar      |b - v| / |b|                  (funarc)
//   l2_rel      sqrt(Σ_i (|b_i - v_i| / |b_i|)²)   (ADCIRC, MOM6)
//   l2_group    sqrt(Σ_g (max_{i∈g} |b_i - v_i| / |b_i|)²)   (MPAS-A)
//
// Conventions: 0/0 is 0, x/0 is +inf, and a non-finite variant output or a
// length mismatch makes the error +inf (always over any threshold).
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

inline double scalar_rel_error(double baseline, double variant) {
  if (!std::isfinite(variant)) return std::numeric_limits<double>::infinity();
  const double diff = std::fabs(baseline - variant);
  if (diff == 0.0) return 0.0;
  if (baseline == 0.0) return std::numeric_limits<double>::infinity();
  return diff / std::fabs(baseline);
}

/// L2 norm across groups of `group` consecutive entries of the per-group
/// maximum relative error; group == 1 is the plain L2 of relative errors.
inline double l2_group_max_rel_error(const std::vector<double>& baseline,
                                     const std::vector<double>& variant,
                                     std::size_t group) {
  const double inf = std::numeric_limits<double>::infinity();
  if (group == 0 || baseline.empty() || baseline.size() != variant.size() ||
      baseline.size() % group != 0) {
    return inf;
  }
  long double sum = 0.0L;
  for (std::size_t g = 0; g < baseline.size(); g += group) {
    double worst = 0.0;
    for (std::size_t i = g; i < g + group; ++i) {
      const double e = scalar_rel_error(baseline[i], variant[i]);
      if (std::isinf(e)) return inf;
      if (e > worst) worst = e;
    }
    sum += static_cast<long double>(worst) * worst;
  }
  return static_cast<double>(std::sqrt(sum));
}

inline double l2_rel_error(const std::vector<double>& baseline,
                           const std::vector<double>& variant) {
  return l2_group_max_rel_error(baseline, variant, 1);
}

}  // namespace perfbench
