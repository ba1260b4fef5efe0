#pragma once
/// \file student_t.hpp
/// \brief Student-t 97.5% quantile for small-sample confidence intervals.
///
/// Every CI the simulation layer reports (steady-state replications,
/// transient curve points) is a t-interval: with n samples the half width is
/// t_{0.975, n-1} * s / sqrt(n).  Small replication counts need t, not z — a z-based CI under-covers (93% instead of 95% at
/// n = 16), which the differential harness would see as excess statistical
/// misses.

#include <cstddef>

namespace patchsec::sim {

/// Student-t 97.5% quantile: exact table for dof <= 8 (where the expansion
/// below is off by up to 44%), then the Cornish-Fisher expansion around the
/// normal quantile (~4e-3 low at dof 9, three-decimal accurate from
/// dof ~15; the envelope is pinned in tests/test_seed_stream.cpp).
[[nodiscard]] inline double t_quantile_975(std::size_t dof) noexcept {
  constexpr double kExact[] = {12.7062, 4.3027, 3.1824, 2.7764,
                               2.5706,  2.4469, 2.3646, 2.3060};
  if (dof == 0) return kExact[0];  // degenerate: callers require n >= 2
  if (dof <= 8) return kExact[dof - 1];
  const double z = 1.959963985;
  const double v = static_cast<double>(dof);
  const double z3 = z * z * z;
  const double z5 = z3 * z * z;
  return z + (z3 + z) / (4.0 * v) + (5.0 * z5 + 16.0 * z3 + 3.0 * z) / (96.0 * v * v);
}

}  // namespace patchsec::sim
