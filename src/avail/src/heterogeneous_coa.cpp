#include "patchsec/avail/heterogeneous_coa.hpp"

#include <map>
#include <stdexcept>

#include "patchsec/petri/reachability.hpp"

namespace patchsec::avail {

petri::RewardFunction HeterogeneousNetworkSrn::coa_reward() const {
  const std::vector<petri::PlaceId> ups = up_places;  // value captures
  const std::vector<enterprise::ServerRole> rs = roles;
  const double total = static_cast<double>(ups.size());
  return [ups, rs, total](const petri::Marking& m) -> double {
    // A deployed tier with zero running instances means no service.
    std::map<enterprise::ServerRole, unsigned> role_up;
    unsigned running = 0;
    for (std::size_t i = 0; i < ups.size(); ++i) {
      role_up[rs[i]] += m[ups[i]];
      running += m[ups[i]];
    }
    for (const auto& [role, up] : role_up) {
      if (up == 0) return 0.0;
    }
    return static_cast<double>(running) / total;
  };
}

HeterogeneousNetworkSrn build_heterogeneous_srn(const std::vector<InstanceRates>& instances) {
  if (instances.empty()) throw std::invalid_argument("heterogeneous srn: no instances");
  HeterogeneousNetworkSrn net;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const double lambda = instances[i].rates.lambda_eq;
    const double mu = instances[i].rates.mu_eq;
    if (!(lambda > 0.0) || !(mu > 0.0)) {
      throw std::invalid_argument("heterogeneous srn: rates must be positive");
    }
    // Built via append (not operator+ on a temporary) to dodge a GCC 12
    // -Wrestrict false positive at -O3.
    std::string base = "s";
    base += std::to_string(i);
    const petri::PlaceId up = net.model.add_place("P" + base + "up", 1);
    const petri::PlaceId down = net.model.add_place("P" + base + "pd", 0);
    const petri::TransitionId td = net.model.add_timed_transition("T" + base + "d", lambda);
    net.model.add_input_arc(td, up);
    net.model.add_output_arc(td, down);
    const petri::TransitionId tu = net.model.add_timed_transition("T" + base + "up", mu);
    net.model.add_input_arc(tu, down);
    net.model.add_output_arc(tu, up);
    net.up_places.push_back(up);
    net.roles.push_back(instances[i].role);
  }
  return net;
}

double heterogeneous_coa(const std::vector<InstanceRates>& instances) {
  const HeterogeneousNetworkSrn net = build_heterogeneous_srn(instances);
  const petri::SrnAnalyzer analyzer(net.model);
  return analyzer.expected_reward(net.coa_reward());
}

double heterogeneous_coa_closed_form(const std::vector<InstanceRates>& instances) {
  if (instances.empty()) throw std::invalid_argument("heterogeneous coa: no instances");
  // Instances are independent.  Group by role; per role compute, via an
  // explicit subset convolution, E[#up * 1{tier alive}] and P(alive); then
  //   COA = (1/N) sum_r E[up_r * 1{alive_r}] * prod_{q != r} P(alive_q).
  struct Group {
    std::vector<double> availability;
    double p_alive = 0.0;
    double e_up_alive = 0.0;  // equals E[#up]: #up = 0 contributes nothing.
  };
  std::map<enterprise::ServerRole, Group> groups;
  for (const InstanceRates& inst : instances) {
    groups[inst.role].availability.push_back(inst.rates.mu_eq /
                                             (inst.rates.mu_eq + inst.rates.lambda_eq));
  }
  for (auto& [role, g] : groups) {
    double p_all_down = 1.0;
    double e_up = 0.0;
    for (double a : g.availability) {
      p_all_down *= (1.0 - a);
      e_up += a;
    }
    g.p_alive = 1.0 - p_all_down;
    g.e_up_alive = e_up;  // E[#up * 1{alive}] = E[#up] since 0 up => term 0
  }
  double coa = 0.0;
  for (const auto& [role, g] : groups) {
    double term = g.e_up_alive;
    for (const auto& [other_role, other] : groups) {
      if (other_role != role) term *= other.p_alive;
    }
    coa += term;
  }
  return coa / static_cast<double>(instances.size());
}

double heterogeneous_coa(const enterprise::HeterogeneousNetwork& network,
                         double patch_interval_hours) {
  std::vector<InstanceRates> rates;
  rates.reserve(network.instances().size());
  for (const enterprise::ServerInstance& inst : network.instances()) {
    rates.push_back(
        {inst.role, aggregate_server(inst.spec, {.patch_interval_hours = patch_interval_hours})});
  }
  return heterogeneous_coa(rates);
}

}  // namespace patchsec::avail
