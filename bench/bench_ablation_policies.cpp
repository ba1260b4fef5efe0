// Ablation: patch-policy and economics comparisons —
//  (a) independent per-server patch clocks (the paper's model) versus
//      synchronized whole-tier maintenance windows;
//  (b) heterogeneous versus identical redundant servers;
//  (c) cheapest design under different cost regimes (Sec. V economics).

#include <cstdio>
#include <map>
#include <vector>

#include "patchsec/avail/heterogeneous_coa.hpp"
#include "patchsec/core/economics.hpp"
#include "patchsec/enterprise/heterogeneous.hpp"

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

  std::printf("=== (a) Independent patch clocks vs synchronized maintenance windows ===\n");
  std::printf("%-30s %14s %14s\n", "design", "independent", "synchronized");
  for (const auto& design : ent::paper_designs()) {
    const double ind = av::capacity_oriented_availability(design, rates);
    const double sync = av::capacity_oriented_availability_synchronized(design, rates);
    std::printf("%-30s %14.5f %14.5f\n", design.name().c_str(), ind, sync);
  }
  std::printf("Reading: synchronized windows erase the availability benefit of\n"
              "redundancy during patching — the whole tier is down together.\n\n");

  std::printf("=== (b) Heterogeneous vs identical redundancy (2-web tier) ===\n");
  // Identical: two paper web servers.  Heterogeneous: second box patches
  // twice as fast (half the critical vulns of the paper web spec).
  const av::AggregatedRates web = rates.at(ent::ServerRole::kWeb);
  av::AggregatedRates fast_web = web;
  fast_web.mu_eq = web.mu_eq * 2.0;
  const std::vector<av::InstanceRates> identical = {
      {ent::ServerRole::kWeb, web},
      {ent::ServerRole::kWeb, web},
      {ent::ServerRole::kDb, rates.at(ent::ServerRole::kDb)}};
  const std::vector<av::InstanceRates> mixed = {
      {ent::ServerRole::kWeb, web},
      {ent::ServerRole::kWeb, fast_web},
      {ent::ServerRole::kDb, rates.at(ent::ServerRole::kDb)}};
  std::printf("identical pair COA     = %.6f\n", av::heterogeneous_coa(identical));
  std::printf("heterogeneous pair COA = %.6f (one box patches 2x faster)\n\n",
              av::heterogeneous_coa(mixed));

  std::printf("=== (c) Cheapest design under different cost regimes ===\n");
  const auto evals = core::Session(core::Scenario::paper_case_study()).evaluate_all();
  struct Regime {
    const char* name;
    core::CostModel model;
  };
  const Regime regimes[] = {
      {"balanced", {}},
      {"downtime-dominated",
       {.server_cost_per_year = 2000.0, .downtime_cost_per_hour = 100000.0,
        .breach_cost = 50000.0}},
      {"security-dominated",
       {.server_cost_per_year = 2000.0, .downtime_cost_per_hour = 2000.0,
        .breach_cost = 10000000.0}},
      {"capex-dominated",
       {.server_cost_per_year = 500000.0, .downtime_cost_per_hour = 1000.0,
        .breach_cost = 50000.0}},
  };
  for (const Regime& regime : regimes) {
    const auto& best = core::cheapest_design(evals, regime.model);
    const core::CostBreakdown cost = core::annual_cost(best, regime.model);
    std::printf("%-20s -> %-30s (total %.0f: infra %.0f, downtime %.0f, breach %.0f, patch %.0f)\n",
                regime.name, best.design.name().c_str(), cost.total(), cost.infrastructure,
                cost.downtime, cost.breach_risk, cost.patching);
  }
  std::printf("\n");
  return 0;
}
