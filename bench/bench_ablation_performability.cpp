// Ablation (paper Sec. V, "user oriented performance"): mean response time
// of the redundancy designs under client load, composing the availability
// model with M/M/c queueing per tier.

#include <cstdio>
#include <map>

#include "patchsec/perf/performability.hpp"
#include "patchsec/enterprise/network.hpp"

namespace {

namespace av = patchsec::avail;
namespace ent = patchsec::enterprise;
namespace pf = patchsec::perf;

std::map<ent::ServerRole, av::AggregatedRates> aggregate_all() {
  std::map<ent::ServerRole, av::AggregatedRates> rates;
  for (const auto& [role, spec] : ent::paper_server_specs()) {
    rates.emplace(role, av::aggregate_server(spec));
  }
  return rates;
}

pf::Workload workload(double requests_per_second) {
  pf::Workload w;
  w.arrival_rate = requests_per_second * 3600.0;
  // Per-server capacities (req/h): dns answers fast; app is the bottleneck.
  w.service_rate = {{ent::ServerRole::kDns, 100.0 * 3600.0},
                    {ent::ServerRole::kWeb, 25.0 * 3600.0},
                    {ent::ServerRole::kApp, 15.0 * 3600.0},
                    {ent::ServerRole::kDb, 30.0 * 3600.0}};
  return w;
}

}  // namespace

int main() {
  const auto rates = aggregate_all();

  std::printf("=== Mean response time (ms) vs load, per redundancy design ===\n");
  std::printf("%-30s", "design");
  const double loads[] = {5.0, 10.0, 13.0};
  for (double l : loads) std::printf(" %9.0f r/s", l);
  std::printf("   outage@13\n");
  for (const auto& design : ent::paper_designs()) {
    std::printf("%-30s", design.name().c_str());
    pf::PerformabilityResult last{};
    for (double l : loads) {
      const pf::PerformabilityResult r = pf::evaluate_performability(design, rates, workload(l));
      std::printf(" %12.3f", r.mean_response_time * 3600.0 * 1000.0);
      last = r;
    }
    std::printf("   %.2e\n", last.outage_probability);
  }
  std::printf(
      "\nReading: at 13 r/s a single app server (capacity 15 r/s) saturates whenever\n"
      "its peer is being patched — the 2-APP design keeps both response time and\n"
      "outage probability down, reinforcing the paper's COA-based recommendation.\n\n");
  return 0;
}
