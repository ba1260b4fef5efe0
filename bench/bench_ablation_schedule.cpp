// Ablation (paper Sec. V, "patch schedule"): impact of the patch cadence on
// capacity-oriented availability and per-server patch-downtime probability.
// The paper fixes a monthly schedule; here we sweep weekly .. quarterly.

#include <cstdio>
#include <map>

#include "patchsec/avail/network_srn.hpp"
#include "patchsec/core/session.hpp"

namespace av = patchsec::avail;
namespace ent = patchsec::enterprise;

int main() {
  struct Schedule {
    const char* name;
    double hours;
  };
  const Schedule schedules[] = {{"daily", 24.0},     {"weekly", 168.0},  {"fortnightly", 336.0},
                                {"monthly", 720.0},  {"quarterly", 2160.0}};

  std::printf("=== Ablation: patch schedule vs capacity-oriented availability ===\n");
  std::printf("%-12s %10s %14s %14s %12s\n", "schedule", "interval", "COA(example)",
              "COA(no redund)", "p_pd(app)");
  const auto specs = ent::paper_server_specs();
  for (const Schedule& s : schedules) {
    std::map<ent::ServerRole, av::AggregatedRates> rates;
    for (const auto& [role, spec] : specs) {
      rates.emplace(role, av::aggregate_server(spec, {.patch_interval_hours = s.hours}));
    }
    const double coa_example =
        av::capacity_oriented_availability(ent::example_network_design(), rates);
    const double coa_base =
        av::capacity_oriented_availability(ent::RedundancyDesign{{1, 1, 1, 1}}, rates);
    std::printf("%-12s %8.0f h %14.5f %14.5f %12.6f\n", s.name, s.hours, coa_example, coa_base,
                rates.at(ent::ServerRole::kApp).p_patch_down);
  }
  std::printf("\nReading: more frequent patching monotonically lowers COA; redundancy\n"
              "recovers most of the loss (the paper's monthly row reproduces 0.99707).\n\n");

  std::printf("=== Redundancy break-even: extra COA bought by the 2nd app server ===\n");
  std::printf("%-12s %16s\n", "schedule", "delta COA (x1e-4)");
  for (const Schedule& s : schedules) {
    std::map<ent::ServerRole, av::AggregatedRates> rates;
    for (const auto& [role, spec] : specs) {
      rates.emplace(role, av::aggregate_server(spec, {.patch_interval_hours = s.hours}));
    }
    const double base =
        av::capacity_oriented_availability(ent::RedundancyDesign{{1, 1, 1, 1}}, rates);
    const double redundant =
        av::capacity_oriented_availability(ent::RedundancyDesign{{1, 1, 2, 1}}, rates);
    std::printf("%-12s %16.3f\n", s.name, (redundant - base) * 1e4);
  }
  std::printf("\nReading: the value of redundancy grows as patching becomes more frequent.\n\n");
  return 0;
}
