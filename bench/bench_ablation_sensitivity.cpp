// Ablation: COA sensitivity — which aggregated rate moves capacity-oriented
// availability the most, per design.  Tells the administrator where one
// minute of saved patch time buys the most availability.

#include <cstdio>
#include <map>

#include "patchsec/core/sensitivity.hpp"
#include "patchsec/enterprise/network.hpp"

namespace {

namespace av = patchsec::avail;
namespace core = patchsec::core;
namespace ent = patchsec::enterprise;

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
  std::printf("=== COA elasticities w.r.t. aggregated rates ===\n");
  for (const auto& design :
       {ent::RedundancyDesign{{1, 1, 1, 1}}, ent::example_network_design()}) {
    std::printf("\n%s:\n", design.name().c_str());
    std::printf("  %-18s %14s %14s\n", "parameter", "dCOA/dX", "elasticity");
    for (const auto& e : core::coa_sensitivity(design, rates)) {
      std::printf("  %-18s %14.6e %14.6e\n", e.parameter.c_str(), e.derivative, e.elasticity);
    }
  }
  std::printf("\nReading: in the example network the single-server DB and DNS tiers\n"
              "dominate — shaving their patch windows (raising mu_eq) pays off most;\n"
              "the doubled web/app tiers are an order of magnitude less sensitive.\n\n");
  return 0;
}
