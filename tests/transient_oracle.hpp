#pragma once
// The pre-workspace uniformization, kept as the scalar reference the
// ctmc::TransientSolver kernels are checked against (test_transient_solver,
// test_spmv_kernel): Poisson terms accumulated from k = 0 in log space, one
// plain CsrMatrix::left_multiply per term, no Fox-Glynn window and no SIMD.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "patchsec/ctmc/ctmc.hpp"
#include "patchsec/linalg/csr_matrix.hpp"
#include "patchsec/linalg/vector_ops.hpp"

namespace transient_oracle {

/// pi(t) from `initial`.  When `occupancy` is non-null it receives the
/// expected time spent in each state over [0, t], int_0^t pi(s) ds, from
/// the same series: term k weighted by (1 - F(k)) / Lambda, F the Poisson
/// CDF.  A reward's accumulated value is then dot(occupancy, rewards).
inline std::vector<double> naive_transient(const patchsec::ctmc::Ctmc& chain,
                                           const std::vector<double>& initial, double t,
                                           double epsilon = 1e-12,
                                           std::vector<double>* occupancy = nullptr) {
  const std::size_t n = chain.state_count();
  if (occupancy != nullptr) occupancy->assign(n, 0.0);
  if (t == 0.0) return initial;
  double max_exit = 0.0;
  for (const double rate : chain.exit_rates()) max_exit = std::max(max_exit, rate);
  const double lambda = std::max(max_exit * 1.02, 1e-12);
  const patchsec::linalg::CsrMatrix q = chain.generator();
  const double m = lambda * t;
  std::vector<double> term = initial;
  std::vector<double> piq(n);
  std::vector<double> result(n, 0.0);
  double log_pk = -m;
  double mass = 0.0;
  for (std::size_t k = 0; k <= 2'000'000; ++k) {
    const double pk = std::exp(log_pk);
    if (pk > 0.0) {
      for (std::size_t i = 0; i < n; ++i) result[i] += pk * term[i];
      mass += pk;
    }
    if (occupancy != nullptr) {
      const double survival = std::max(0.0, 1.0 - mass) / lambda;
      for (std::size_t i = 0; i < n; ++i) (*occupancy)[i] += survival * term[i];
    }
    if (mass >= 1.0 - epsilon) break;
    q.left_multiply(term, piq);
    for (std::size_t i = 0; i < n; ++i) {
      term[i] += piq[i] / lambda;
      if (term[i] < 0.0) term[i] = 0.0;
    }
    log_pk += std::log(m) - std::log(static_cast<double>(k + 1));
  }
  patchsec::linalg::normalize_probability(result);
  return result;
}

}  // namespace transient_oracle
