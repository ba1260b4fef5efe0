#pragma once
// Upper-layer SRN for the whole network (paper Fig. 4): per service tier one
// pair of places (up / down-due-to-patch) initially holding as many tokens as
// the tier has servers.  The patch ("down") transition has the
// marking-dependent rate lambda_eq * #Pup; recovery proceeds independently
// per server (mu_eq * #Pdown).  Capacity-oriented availability is the
// expected steady-state reward of Table VI, generalized to any design:
//
//   reward(m) = (sum of up servers) / (total servers)  if every tier has at
//               least one server up, else 0.
//
// The counting form is the exact aggregate of a per-server model (one
// up/down place pair and constant-rate lambda/mu transitions per server):
// the per-server chain is strongly lumpable over per-tier up-counts.
// tests/test_lumping.cpp checks steady state, orbit sums and transient
// curves against that per-server net.

#include <map>
#include <memory>
#include <vector>

#include "patchsec/avail/aggregation.hpp"
#include "patchsec/enterprise/design.hpp"
#include "patchsec/petri/srn_model.hpp"

namespace patchsec::avail {

struct NetworkSrn {
  petri::SrnModel model;
  /// Per role: the "service up" place (token count = running servers).
  std::map<enterprise::ServerRole, petri::PlaceId> up_places;
  /// Per role: the "down due to patch" place.
  std::map<enterprise::ServerRole, petri::PlaceId> down_places;
  enterprise::RedundancyDesign design;

  /// The Table VI reward: fraction of running servers, zero when any tier is
  /// completely down (the service as a whole is unavailable).
  [[nodiscard]] petri::RewardFunction coa_reward() const;
};

/// The aggregated rates of a deployed role: the one rate check shared by the
/// flat net and the closed form (avail/lumped_coa.hpp), run before either
/// builds or evaluates anything.  Throws std::invalid_argument when `rates`
/// has no entry for `role`, or when lambda_eq or mu_eq is not a valid
/// per-token rate (petri::valid_rate), as the net's construction does.
[[nodiscard]] const AggregatedRates& tier_rates(
    const std::map<enterprise::ServerRole, AggregatedRates>& rates, enterprise::ServerRole role);

/// Build the Fig. 4 upper-layer SRN for a design from per-role aggregated
/// rates (checked by tier_rates).
[[nodiscard]] NetworkSrn build_network_srn(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates);

/// Re-rate a net of build_network_srn (or _synchronized) in place to `rates`,
/// checked by tier_rates: the net the builder would build from them.
void set_tier_rates(NetworkSrn& net,
                    const std::map<enterprise::ServerRole, AggregatedRates>& rates);

/// Capacity-oriented availability of a design: lower-layer aggregation per
/// role followed by the upper-layer steady-state reward.  This is the
/// end-to-end Table VI computation.
[[nodiscard]] double capacity_oriented_availability(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, enterprise::ServerSpec>& specs,
    double patch_interval_hours = 720.0);

/// Same, but from precomputed aggregated rates (used when sweeping designs so
/// the lower-layer SRNs are solved once).
[[nodiscard]] double capacity_oriented_availability(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates);

/// COA plus the upper-layer solve diagnostics.
struct CoaEvaluation {
  double coa = 0.0;
  petri::SolveDiagnostics diagnostics;
};

/// COA under an explicit solver configuration — the fully-threaded form used
/// by core::Session.  With engine.throw_on_divergence == false a
/// non-converged steady-state solve is reported through the returned
/// diagnostics instead of thrown.  A non-null `workspace` reuses the caller's
/// linalg::StationarySolver across solves: re-evaluating the same design at
/// another cadence (or sweeping same-shape designs) hits the cached transpose
/// structure instead of rebuilding it.
[[nodiscard]] CoaEvaluation capacity_oriented_availability_detailed(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const petri::AnalyzerOptions& engine, linalg::StationarySolver* workspace = nullptr);

/// The same on `net` = build_network_srn(design, rates), built by the caller.
/// `exploration` is petri::SrnAnalyzer's: pointing at the design's net
/// explored at other rates, that one is re-rated (bit-identical); pointing at
/// null, it receives this net's exploration for a later re-rate.
[[nodiscard]] CoaEvaluation capacity_oriented_availability_detailed(
    const NetworkSrn& net, const petri::AnalyzerOptions& engine,
    linalg::StationarySolver* workspace = nullptr,
    std::shared_ptr<const petri::ReachabilityGraph>* exploration = nullptr);

/// Ablation variant: *synchronized* patching — a tier's servers are all
/// patched in the same maintenance window (the whole tier goes down at rate
/// lambda_eq and comes back at mu_eq), instead of the paper's independent
/// per-server patch clocks.  Deliberately pessimistic: redundancy buys no
/// availability during patching under this policy.
[[nodiscard]] NetworkSrn build_network_srn_synchronized(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates);

/// COA under synchronized patching.
[[nodiscard]] double capacity_oriented_availability_synchronized(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates);

}  // namespace patchsec::avail
