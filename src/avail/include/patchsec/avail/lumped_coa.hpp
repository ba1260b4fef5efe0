#pragma once
/// \file lumped_coa.hpp
/// \brief Capacity-oriented availability of the counting-form network net,
/// evaluated by product form over its independent per-tier birth-death
/// chains instead of on the joint chain.
///
/// The counting-form NetworkSrn is already the exact per-tier aggregate of
/// the per-server model (tests/test_lumping.cpp checks it against a
/// per-server net).  This header adds the product form: the tiers are
/// independent components, the Table VI COA reward is separable —
///
///   COA = (1/N) * sum_r  E[#up_r] * prod_{q != r} P(#up_q > 0)
///
/// — and both the stationary and (from the deterministic patch-window
/// marking) the transient analysis run on four chains of k_r + 1 states
/// instead of one chain of prod_r (k_r + 1) states.  A 50-servers-per-tier
/// design solves 204 states instead of 6,765,201 — exactly, not
/// approximately; tests/test_lumping.cpp pins the agreement to 1e-10.

#include <map>
#include <vector>

#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/transient_coa.hpp"
#include "patchsec/petri/lumping.hpp"

namespace patchsec::avail {

/// The counting-form network model packaged for product-form analysis: the
/// per-tier component split and the COA reward in separable form.
struct LumpedNetworkModel {
  NetworkSrn net;               ///< the counting-form upper-layer SRN.
  petri::ComponentSplit split;  ///< one component per deployed tier.
  std::vector<enterprise::ServerRole> roles;  ///< role of each component, in split order.
  petri::SeparableReward coa;   ///< Table VI COA as sum-of-products over tiers.
};

/// Assemble the lumped form of the upper-layer model for a design.
[[nodiscard]] LumpedNetworkModel build_lumped_network(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates);

/// Steady-state COA by product form — the lumped counterpart of
/// capacity_oriented_availability_detailed.  The returned diagnostics report
/// the per-tier chains actually solved (tangible_states = sum of tier chain
/// sizes) and the joint space that was avoided (flat_states = product).
[[nodiscard]] CoaEvaluation capacity_oriented_availability_lumped_detailed(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const petri::AnalyzerOptions& engine = {});

/// Transient COA curve by product form — the lumped counterpart of
/// transient_coa_detailed.  Each tier's distribution is advanced by its own
/// uniformization from the patch-window marking; the accumulated COA
/// integrates the product curve by Gauss-Legendre panels (see
/// petri::FactoredAnalyzer::reward_curve).
[[nodiscard]] CoaCurveEvaluation transient_coa_lumped_detailed(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const std::vector<double>& time_points_hours, const TransientCoaOptions& options = {});

}  // namespace patchsec::avail
