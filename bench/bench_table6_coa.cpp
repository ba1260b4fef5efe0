// Reproduces Table VI: the COA reward function of the upper-layer network
// SRN and the resulting capacity-oriented availability of the example
// network (paper: ~0.99707).

#include <cstdio>
#include <map>

#include "patchsec/avail/lumped_coa.hpp"
#include "patchsec/avail/network_srn.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/petri/reachability.hpp"

namespace {

namespace av = patchsec::avail;
namespace ent = patchsec::enterprise;
namespace pt = patchsec::petri;

std::map<ent::ServerRole, av::AggregatedRates> aggregate_all() {
  std::map<ent::ServerRole, av::AggregatedRates> rates;
  for (const auto& [role, spec] : ent::paper_server_specs()) {
    rates.emplace(role, av::aggregate_server(spec));
  }
  return rates;
}

}  // namespace

int main() {
  const auto rates = aggregate_all();
  const av::NetworkSrn net = av::build_network_srn(ent::example_network_design(), rates);
  const auto reward = net.coa_reward();

  std::printf("=== Table VI: reward function of COA (example network, 6 servers) ===\n");
  const auto up = [&](ent::ServerRole r) { return net.up_places.at(r); };
  pt::Marking m(net.model.place_count(), 0);
  m[up(ent::ServerRole::kDns)] = 1;
  m[up(ent::ServerRole::kWeb)] = 2;
  m[up(ent::ServerRole::kApp)] = 2;
  m[up(ent::ServerRole::kDb)] = 1;
  std::printf("  dns=1 web=2 app=2 db=1 -> reward %.5f  (paper 1)\n", reward(m));
  m[up(ent::ServerRole::kWeb)] = 1;
  std::printf("  dns=1 web=1 app=2 db=1 -> reward %.5f  (paper 0.83333)\n", reward(m));
  m[up(ent::ServerRole::kWeb)] = 2;
  m[up(ent::ServerRole::kApp)] = 1;
  std::printf("  dns=1 web=2 app=1 db=1 -> reward %.5f  (paper 0.83333)\n", reward(m));
  m[up(ent::ServerRole::kWeb)] = 1;
  std::printf("  dns=1 web=1 app=1 db=1 -> reward %.5f  (paper 0.66667)\n", reward(m));
  m[up(ent::ServerRole::kDns)] = 0;
  std::printf("  dns=0 web=1 app=1 db=1 -> reward %.5f  (paper: else 0)\n", reward(m));

  const double coa = av::capacity_oriented_availability(ent::example_network_design(), rates);
  const double closed =
      av::capacity_oriented_availability_lumped_detailed(ent::example_network_design(), rates).coa;
  std::printf("\nCOA(example network) = %.5f  closed form = %.5f  (paper ~ 0.99707)\n\n", coa,
              closed);
  return 0;
}
