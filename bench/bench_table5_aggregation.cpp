// Reproduces Table V: aggregated patch/recovery rates, MTTP and MTTR per
// service, from the lower-layer SRN steady state via Eqs. (1)-(2).

#include <cstdio>

#include "patchsec/avail/aggregation.hpp"
#include "patchsec/enterprise/network.hpp"

namespace {

namespace av = patchsec::avail;
namespace ent = patchsec::enterprise;

struct PaperRow {
  const char* service;
  double mttp, patch_rate, mttr, recovery_rate;
};

}  // namespace

int main() {
  const auto specs = ent::paper_server_specs();
  const PaperRow paper[] = {
      {"DNS", 720.0, 0.00139, 0.6667, 1.49992},
      {"Web", 720.0, 0.00139, 0.5834, 1.71420},
      {"Application", 720.0, 0.00139, 1.0001, 0.99995},
      {"Database", 720.0, 0.00139, 0.9167, 1.09085},
  };
  const ent::ServerRole order[] = {ent::ServerRole::kDns, ent::ServerRole::kWeb,
                                   ent::ServerRole::kApp, ent::ServerRole::kDb};

  std::printf("=== Table V: aggregated values for the servers (Eqs. 1-2) ===\n");
  std::printf("%-12s %10s %12s %10s %14s   %s\n", "service", "MTTP (h)", "patch rate",
              "MTTR (h)", "recovery rate", "paper (MTTR, mu)");
  for (int i = 0; i < 4; ++i) {
    const av::AggregatedRates r = av::aggregate_server(specs.at(order[i]));
    std::printf("%-12s %10.1f %12.5f %10.4f %14.5f   (%.4f, %.5f)\n", paper[i].service,
                r.mttp_hours(), r.lambda_eq, r.mttr_hours(), r.mu_eq, paper[i].mttr,
                paper[i].recovery_rate);
  }

  std::printf("\nWorked example (Sec. III-D2, DNS): p_pd=%.8f (paper 0.00092506), "
              "p_prrb=%.8f (paper 0.00011563)\n",
              av::aggregate_server(specs.at(ent::ServerRole::kDns)).p_patch_down,
              av::aggregate_server(specs.at(ent::ServerRole::kDns)).p_reboot_enabled);
  std::printf("Closed-form cross-check (failures ignored):\n");
  for (int i = 0; i < 4; ++i) {
    std::printf("  %-12s mu_closed=%.5f\n", paper[i].service,
                av::mu_eq_closed_form(specs.at(order[i])));
  }
  std::printf("\n");
  return 0;
}
