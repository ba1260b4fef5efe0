// Ablation: transient COA — the capacity dip when a patch wave hits and how
// fast each redundancy design heals.  The steady-state COA of the paper
// averages this out; the curve shows what an operator sees on patch day.

#include <cstdio>
#include <map>
#include <vector>

#include "patchsec/avail/transient_coa.hpp"
#include "patchsec/enterprise/network.hpp"

namespace {

namespace av = patchsec::avail;
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
  const std::vector<double> times = {0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0};

  std::printf("=== COA(t) after one app server enters its patch window ===\n");
  std::printf("%-8s", "t (h)");
  for (double t : times) std::printf(" %8.2f", t);
  std::printf("\n");

  const std::map<ent::ServerRole, unsigned> one_app{{ent::ServerRole::kApp, 1}};
  for (const auto& design :
       {ent::RedundancyDesign{{1, 1, 1, 1}}, ent::RedundancyDesign{{1, 1, 2, 1}},
        ent::example_network_design()}) {
    const auto curve = av::transient_coa_curve(design, rates, one_app, times);
    std::printf("%-8s", design.count(ent::ServerRole::kApp) == 1 ? "1 APP" : "2 APP");
    for (const auto& p : curve) std::printf(" %8.4f", p.coa);
    std::printf("   [%s]\n", design.name().c_str());
  }

  std::printf("\n=== Capacity shortfall of one patch wave (server-fraction-hours, 24 h) ===\n");
  for (const auto& design :
       {ent::RedundancyDesign{{1, 1, 1, 1}}, ent::RedundancyDesign{{1, 1, 2, 1}},
        ent::example_network_design()}) {
    const double shortfall = av::patch_dip_shortfall(design, rates, one_app, 24.0);
    std::printf("  %-30s %10.5f\n", design.name().c_str(), shortfall);
  }
  std::printf("\nReading: without redundancy the dip goes to zero service; with a second\n"
              "app server it is a ~17%% capacity reduction healing at rate mu_app ~= 1/h.\n\n");
  return 0;
}
