#pragma once
// Steady-state COA of the counting-form network net from each tier's
// birth-death chain, kept as the independent oracle of the closed-form
// upper layer (avail/lumped_coa.hpp; test_lumping, test_avail_network).
// It never forms a binomial: tier r's up-count is the chain over k = 0..n
// with k -> k-1 at rate k*lambda and k -> k+1 at rate (n-k)*mu, solved by
// the detailed-balance recursion pi_{k+1} = pi_k * (n-k) mu / ((k+1) lambda).
// The recursion is rescaled whenever it grows past 1e150, so stiff rates at
// k = 1,000 neither overflow nor lose the mass near k = n.

#include <cstddef>
#include <map>
#include <stdexcept>
#include <vector>

#include "patchsec/avail/aggregation.hpp"
#include "patchsec/enterprise/design.hpp"

namespace closed_form_oracle {

/// COA = (1/N) * sum_r E[#up_r] * prod_{q != r} P(#up_q > 0) at steady state.
inline double coa_closed_form(
    const patchsec::enterprise::RedundancyDesign& design,
    const std::map<patchsec::enterprise::ServerRole, patchsec::avail::AggregatedRates>& rates) {
  struct Tier {
    double expected_up = 0.0;
    double p_alive = 0.0;
  };
  std::vector<Tier> tiers;
  unsigned total = 0;
  for (unsigned index = 0; index < patchsec::enterprise::kRoleCount; ++index) {
    const auto role = static_cast<patchsec::enterprise::ServerRole>(index);
    const unsigned n = design.count(role);
    if (n == 0) continue;
    const auto it = rates.find(role);
    if (it == rates.end()) throw std::invalid_argument("coa_closed_form: missing rates");
    const double lambda = it->second.lambda_eq;
    const double mu = it->second.mu_eq;
    std::vector<double> pi(n + 1, 0.0);
    pi[0] = 1.0;
    for (unsigned k = 0; k < n; ++k) {
      pi[k + 1] = pi[k] * (static_cast<double>(n - k) * mu) / (static_cast<double>(k + 1) * lambda);
      if (pi[k + 1] > 1e150) {
        for (unsigned j = 0; j <= k + 1; ++j) pi[j] *= 1e-150;
      }
    }
    double mass = 0.0, up = 0.0, alive = 0.0;
    for (unsigned k = 0; k <= n; ++k) {
      mass += pi[k];
      up += static_cast<double>(k) * pi[k];
      if (k > 0) alive += pi[k];
    }
    tiers.push_back({up / mass, alive / mass});
    total += n;
  }
  if (total == 0) throw std::invalid_argument("coa_closed_form: empty design");

  double coa = 0.0;
  for (std::size_t r = 0; r < tiers.size(); ++r) {
    double term = tiers[r].expected_up;
    for (std::size_t q = 0; q < tiers.size(); ++q) {
      if (q != r) term *= tiers[q].p_alive;
    }
    coa += term;
  }
  return coa / static_cast<double>(total);
}

}  // namespace closed_form_oracle
