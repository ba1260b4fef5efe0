// Ablation (solver validation): analytic steady-state COA versus
// discrete-event simulation with 95% confidence intervals.  This is the
// substitution check for SPNP: our analytic engine and an independent
// Monte-Carlo executor of the same nets must agree.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/server_srn.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/petri/reachability.hpp"
#include "patchsec/sim/srn_simulator.hpp"

namespace {

namespace av = patchsec::avail;
namespace ent = patchsec::enterprise;
namespace pt = patchsec::petri;
namespace sm = patchsec::sim;

void print_validation() {
  // A 72-hour cadence gives the simulation ~700 patch cycles per replication.
  constexpr double kInterval = 72.0;
  const auto specs = ent::paper_server_specs();

  std::printf("=== Solver validation: analytic vs discrete-event simulation ===\n");
  std::printf("(patch interval %.0f h so the simulation sees many cycles)\n\n", kInterval);

  std::printf("--- per-server service availability (lower-layer SRN) ---\n");
  std::printf("%-6s %12s %22s\n", "role", "analytic", "simulated (95% CI)");
  for (const auto& [role, spec] : specs) {
    const av::ServerSrn srn = av::build_server_srn(spec, {.patch_interval_hours = kInterval});
    const pt::SrnAnalyzer analyzer(srn.model);
    const double analytic =
        analyzer.probability([&srn](const pt::Marking& m) { return srn.service_up(m); });

    sm::SrnSimulator simulator(srn.model);
    sm::SimulationOptions opt;
    opt.seed = 7;
    opt.warmup_hours = 1000.0;
    opt.horizon_hours = 20000.0;
    opt.replications = 8;
    const auto est = simulator.steady_state_probability_replicated(
        [&srn](const pt::Marking& m) { return srn.service_up(m); }, opt);
    std::printf("%-6s %12.6f %14.6f +/- %.6f\n", ent::to_string(role), analytic, est.mean,
                est.half_width_95);
  }

  std::printf("\n--- network COA (upper-layer SRN, example network) ---\n");
  std::map<ent::ServerRole, av::AggregatedRates> rates;
  for (const auto& [role, spec] : specs) {
    rates.emplace(role, av::aggregate_server(spec, {.patch_interval_hours = kInterval}));
  }
  const av::NetworkSrn net = av::build_network_srn(ent::example_network_design(), rates);
  const double analytic = av::capacity_oriented_availability(ent::example_network_design(), rates);

  sm::SrnSimulator simulator(net.model);
  sm::SimulationOptions opt;
  opt.seed = 99;
  opt.warmup_hours = 1000.0;
  opt.horizon_hours = 30000.0;
  opt.replications = 8;
  const auto est = simulator.steady_state_reward_replicated(net.coa_reward(), opt);
  std::printf("analytic COA = %.6f   simulated = %.6f +/- %.6f\n\n", analytic, est.mean,
              est.half_width_95);
}

void BM_SimulateServerSrn(benchmark::State& state) {
  const auto spec = ent::paper_server_specs().at(ent::ServerRole::kDns);
  const av::ServerSrn srn = av::build_server_srn(spec, {.patch_interval_hours = 72.0});
  sm::SrnSimulator simulator(srn.model);
  sm::SimulationOptions opt;
  opt.seed = 1;
  opt.warmup_hours = 100.0;
  opt.horizon_hours = 1000.0;
  opt.replications = 2;
  opt.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.steady_state_probability_replicated(
        [&srn](const pt::Marking& m) { return srn.service_up(m); }, opt));
  }
}
BENCHMARK(BM_SimulateServerSrn);

}  // namespace

int main(int argc, char** argv) {
  print_validation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
