#include "patchsec/avail/network_srn.hpp"

#include <array>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "patchsec/petri/reachability.hpp"

namespace patchsec::avail {

namespace {

constexpr std::array<enterprise::ServerRole, enterprise::kRoleCount> kRoles{
    enterprise::ServerRole::kDns, enterprise::ServerRole::kWeb, enterprise::ServerRole::kApp,
    enterprise::ServerRole::kDb};

}  // namespace

const AggregatedRates& tier_rates(const std::map<enterprise::ServerRole, AggregatedRates>& rates,
                                  enterprise::ServerRole role) {
  const auto it = rates.find(role);
  if (it == rates.end()) {
    throw std::invalid_argument(std::string("missing aggregated rates for role ") +
                                enterprise::to_string(role));
  }
  const AggregatedRates& tier = it->second;
  // The net's own check on its per-token rates lambda * #Pup and mu * #Ppd.
  if (!petri::valid_rate(tier.lambda_eq, true) || !petri::valid_rate(tier.mu_eq, true)) {
    throw std::invalid_argument(std::string("aggregated rates for role ") +
                                enterprise::to_string(role) + " must be finite and positive");
  }
  return tier;
}

petri::RewardFunction NetworkSrn::coa_reward() const {
  // Capture plain values: (up-place id, tier size) pairs plus the total.
  std::vector<std::pair<petri::PlaceId, unsigned>> tiers;
  unsigned total = 0;
  for (const auto& [role, place] : up_places) {
    const unsigned n = design.count(role);
    tiers.emplace_back(place, n);
    total += n;
  }
  if (total == 0) throw std::logic_error("coa_reward: empty design");
  return [tiers, total](const petri::Marking& m) -> double {
    unsigned running = 0;
    for (const auto& [place, n] : tiers) {
      const petri::TokenCount up = m[place];
      if (up == 0) return 0.0;  // a whole tier is down: no service
      running += up;
    }
    return static_cast<double>(running) / static_cast<double>(total);
  };
}

NetworkSrn build_network_srn(const enterprise::RedundancyDesign& design,
                             const std::map<enterprise::ServerRole, AggregatedRates>& rates) {
  NetworkSrn net;
  net.design = design;
  for (enterprise::ServerRole role : kRoles) {
    const unsigned n = design.count(role);
    if (n == 0) continue;
    const AggregatedRates& tier = tier_rates(rates, role);
    std::string base = enterprise::to_string(role);
    const petri::PlaceId up = net.model.add_place("P" + base + "up", n);
    const petri::PlaceId down = net.model.add_place("P" + base + "pd", 0);
    net.up_places.emplace(role, up);
    net.down_places.emplace(role, down);

    // Patch: marking-dependent rate lambda * #Pup (paper Sec. III-D2).  The
    // guards repeat the input arcs' enabling condition.
    const petri::TransitionId td =
        net.model.add_timed_transition("T" + base + "d", tier.lambda_eq, up);
    net.model.add_input_arc(td, up);
    net.model.add_output_arc(td, down);
    net.model.set_guard(td, [up](const petri::Marking& m) { return m[up] > 0; });

    // Recovery: each patched server recovers independently (mu * #Ppd).
    const petri::TransitionId tu =
        net.model.add_timed_transition("T" + base + "up", tier.mu_eq, down);
    net.model.add_input_arc(tu, down);
    net.model.add_output_arc(tu, up);
    net.model.set_guard(tu, [down](const petri::Marking& m) { return m[down] > 0; });
  }
  if (net.up_places.empty()) throw std::invalid_argument("design deploys no servers");
  return net;
}

void set_tier_rates(NetworkSrn& net,
                    const std::map<enterprise::ServerRole, AggregatedRates>& rates) {
  // Both builders add the i-th deployed tier's T<role>d, T<role>up as 2i, 2i + 1.
  petri::TransitionId t = 0;
  for (const auto& [role, up] : net.up_places) {
    const AggregatedRates& tier = tier_rates(rates, role);
    net.model.set_rate(t++, tier.lambda_eq);
    net.model.set_rate(t++, tier.mu_eq);
  }
}

double capacity_oriented_availability(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, enterprise::ServerSpec>& specs,
    double patch_interval_hours) {
  std::map<enterprise::ServerRole, AggregatedRates> rates;
  for (enterprise::ServerRole role : kRoles) {
    if (design.count(role) == 0) continue;
    const auto it = specs.find(role);
    if (it == specs.end()) {
      throw std::invalid_argument(std::string("missing spec for role ") +
                                  enterprise::to_string(role));
    }
    rates.emplace(role,
                  aggregate_server(it->second, {.patch_interval_hours = patch_interval_hours}));
  }
  return capacity_oriented_availability(design, rates);
}

double capacity_oriented_availability(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates) {
  return capacity_oriented_availability_detailed(design, rates, petri::AnalyzerOptions{}).coa;
}

CoaEvaluation capacity_oriented_availability_detailed(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const petri::AnalyzerOptions& engine, linalg::StationarySolver* workspace) {
  return capacity_oriented_availability_detailed(build_network_srn(design, rates), engine,
                                                 workspace);
}

CoaEvaluation capacity_oriented_availability_detailed(
    const NetworkSrn& net, const petri::AnalyzerOptions& engine,
    linalg::StationarySolver* workspace,
    std::shared_ptr<const petri::ReachabilityGraph>* exploration) {
  const petri::SrnAnalyzer analyzer(net.model, engine, workspace, exploration);
  return CoaEvaluation{analyzer.expected_reward(net.coa_reward()), analyzer.diagnostics()};
}

NetworkSrn build_network_srn_synchronized(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates) {
  NetworkSrn net;
  net.design = design;
  for (enterprise::ServerRole role : kRoles) {
    const unsigned n = design.count(role);
    if (n == 0) continue;
    const AggregatedRates& tier = tier_rates(rates, role);
    std::string base = enterprise::to_string(role);
    const petri::PlaceId up = net.model.add_place("P" + base + "up", n);
    const petri::PlaceId down = net.model.add_place("P" + base + "pd", 0);
    net.up_places.emplace(role, up);
    net.down_places.emplace(role, down);

    // The whole tier moves at once: arc multiplicity n, constant rates.
    const petri::TransitionId td =
        net.model.add_timed_transition("T" + base + "d", tier.lambda_eq);
    net.model.add_input_arc(td, up, n);
    net.model.add_output_arc(td, down, n);
    const petri::TransitionId tu =
        net.model.add_timed_transition("T" + base + "up", tier.mu_eq);
    net.model.add_input_arc(tu, down, n);
    net.model.add_output_arc(tu, up, n);
  }
  if (net.up_places.empty()) throw std::invalid_argument("design deploys no servers");
  return net;
}

double capacity_oriented_availability_synchronized(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates) {
  const NetworkSrn net = build_network_srn_synchronized(design, rates);
  const petri::SrnAnalyzer analyzer(net.model);
  return analyzer.expected_reward(net.coa_reward());
}

}  // namespace patchsec::avail
