#include "patchsec/core/sensitivity.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "patchsec/linalg/stationary_solver.hpp"
#include "patchsec/petri/reachability.hpp"

namespace patchsec::core {

namespace {

std::vector<SensitivityEntry> sensitivity(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, avail::AggregatedRates>& rates, double relative_step,
    const petri::AnalyzerOptions& engine) {
  if (!(relative_step > 0.0) || relative_step >= 1.0) {
    throw std::invalid_argument("coa_sensitivity: relative_step must be in (0,1)");
  }
  // The perturbed nets differ from the base net only in rates: the base
  // exploration is re-rated for each, and one workspace solves them all
  // (both bit-identical to exploring and solving each net afresh).
  linalg::StationarySolver workspace;
  std::shared_ptr<const petri::ReachabilityGraph> exploration;
  const auto coa_at = [&](const std::map<enterprise::ServerRole, avail::AggregatedRates>& at) {
    return avail::capacity_oriented_availability_detailed(avail::build_network_srn(design, at),
                                                          engine, &workspace, &exploration)
        .coa;
  };
  const auto coa_with = [&](enterprise::ServerRole role, bool perturb_mu, double factor) {
    std::map<enterprise::ServerRole, avail::AggregatedRates> perturbed = rates;
    avail::AggregatedRates& r = perturbed.at(role);
    (perturb_mu ? r.mu_eq : r.lambda_eq) *= factor;
    return coa_at(perturbed);
  };
  const double base_coa = coa_at(rates);

  std::vector<SensitivityEntry> out;
  for (const auto& [role, r] : rates) {
    if (design.count(role) == 0) continue;
    for (bool perturb_mu : {true, false}) {
      const double base_value = perturb_mu ? r.mu_eq : r.lambda_eq;
      const double up = coa_with(role, perturb_mu, 1.0 + relative_step);
      const double down = coa_with(role, perturb_mu, 1.0 - relative_step);
      SensitivityEntry entry;
      entry.parameter = std::string(perturb_mu ? "mu_eq(" : "lambda_eq(") +
                        enterprise::to_string(role) + ")";
      entry.base_value = base_value;
      entry.derivative = (up - down) / (2.0 * relative_step * base_value);
      entry.elasticity = entry.derivative * base_value / base_coa;
      out.push_back(std::move(entry));
    }
  }
  std::sort(out.begin(), out.end(), [](const SensitivityEntry& a, const SensitivityEntry& b) {
    return std::abs(a.elasticity) > std::abs(b.elasticity);
  });
  return out;
}

}  // namespace

std::vector<SensitivityEntry> coa_sensitivity(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, avail::AggregatedRates>& rates, double relative_step) {
  return sensitivity(design, rates, relative_step, petri::AnalyzerOptions{});
}

std::vector<SensitivityEntry> coa_sensitivity(const Session& session,
                                              const enterprise::RedundancyDesign& design,
                                              double relative_step) {
  petri::AnalyzerOptions engine = session.scenario().engine().analyzer_options();
  // Elasticities carry no per-solve diagnostics, so a diverged solve could
  // not be surfaced to the caller — always escalate it instead.  That covers
  // the COA solves below; the memoized base rates were solved under the
  // session's own (possibly non-throwing) engine, so vet their diagnostics
  // with the same criterion SrnAnalyzer uses before building on them.
  engine.throw_on_divergence = true;
  const double hours = session.scenario().patch_interval_hours();
  for (const auto& [role, diag] : session.aggregation_diagnostics(hours)) {
    if (diag.badly_diverged()) {
      throw std::runtime_error(std::string("coa_sensitivity: lower-layer aggregation for role ") +
                               enterprise::to_string(role) + " did not converge");
    }
  }
  return sensitivity(design, session.aggregated_rates(hours), relative_step, engine);
}

}  // namespace patchsec::core
