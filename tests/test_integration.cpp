// Cross-module integration tests: the analytic pipeline (SRN -> CTMC ->
// steady state -> rewards) validated end-to-end against the discrete-event
// simulator, plus full-pipeline consistency checks mirroring the paper's
// workflow (Fig. 1).

#include <gtest/gtest.h>

#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/server_srn.hpp"
#include "patchsec/core/decision.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/petri/reachability.hpp"
#include "patchsec/sim/srn_simulator.hpp"

namespace av = patchsec::avail;
namespace core = patchsec::core;
namespace ent = patchsec::enterprise;
namespace pt = patchsec::petri;
namespace sm = patchsec::sim;

TEST(Integration, ServerSrnSimulationMatchesAnalyticServiceUp) {
  // Shrink the patch interval to 72 h so patches happen often enough for a
  // simulation to observe many cycles in bounded time.
  const auto spec = ent::paper_server_specs().at(ent::ServerRole::kApp);
  const av::ServerSrn srn = av::build_server_srn(spec, {.patch_interval_hours = 72.0});

  const pt::SrnAnalyzer analyzer(srn.model);
  const double analytic_up =
      analyzer.probability([&srn](const pt::Marking& m) { return srn.service_up(m); });

  sm::SrnSimulator simulator(srn.model);
  sm::SimulationOptions opt;
  opt.seed = 2024;
  opt.warmup_hours = 2000.0;
  opt.horizon_hours = 40000.0;
  opt.replications = 10;
  const auto est = simulator.steady_state_probability_replicated(
      [&srn](const pt::Marking& m) { return srn.service_up(m); }, opt);

  EXPECT_NEAR(est.mean, analytic_up, 4.0 * std::max(est.half_width_95, 2e-4))
      << "analytic=" << analytic_up << " simulated=" << est.mean << " +/- " << est.half_width_95;
}

TEST(Integration, NetworkSrnSimulationMatchesAnalyticCoa) {
  // Faster-patching variant of the example network for simulation turnaround.
  std::map<ent::ServerRole, av::AggregatedRates> rates;
  for (const auto& [role, spec] : ent::paper_server_specs()) {
    rates.emplace(role, av::aggregate_server(spec, {.patch_interval_hours = 72.0}));
  }
  const av::NetworkSrn net = av::build_network_srn(ent::example_network_design(), rates);
  const double analytic = av::capacity_oriented_availability(ent::example_network_design(), rates);

  sm::SrnSimulator simulator(net.model);
  sm::SimulationOptions opt;
  opt.seed = 31337;
  opt.warmup_hours = 2000.0;
  opt.horizon_hours = 50000.0;
  opt.replications = 10;
  const auto est = simulator.steady_state_reward_replicated(net.coa_reward(), opt);
  EXPECT_NEAR(est.mean, analytic, 4.0 * std::max(est.half_width_95, 2e-4))
      << "analytic=" << analytic << " simulated=" << est.mean << " +/- " << est.half_width_95;
}

TEST(Integration, AggregationConsistentWithDowntimeFraction) {
  // Steady-state patch-downtime fraction must equal
  // (downtime per cycle) / (cycle length) with downtime = 1/mu_eq and cycle
  // ~= interval + downtime (the clock pauses during the patch).
  for (const auto& [role, spec] : ent::paper_server_specs()) {
    const av::AggregatedRates r = av::aggregate_server(spec, {.patch_interval_hours = 720.0});
    const double downtime = r.mttr_hours();
    const double expected_fraction = downtime / (720.0 + downtime);
    EXPECT_NEAR(r.p_patch_down, expected_fraction, expected_fraction * 0.02)
        << ent::to_string(role);
  }
}

TEST(Integration, TwoStateAbstractionMatchesDetailedServiceDown) {
  // The up/down-due-to-patch abstraction (lambda_eq, mu_eq) must reproduce
  // the detailed model's patch-down probability: lambda/(lambda+mu) vs p_pd.
  for (const auto& [role, spec] : ent::paper_server_specs()) {
    const av::AggregatedRates r = av::aggregate_server(spec);
    const double two_state_down = r.lambda_eq / (r.lambda_eq + r.mu_eq);
    EXPECT_NEAR(two_state_down, r.p_patch_down, r.p_patch_down * 0.02) << ent::to_string(role);
  }
}

TEST(Integration, FullPipelineStability) {
  // Evaluating twice must give identical results (pure functions of inputs).
  const core::Session session(core::Scenario::paper_case_study());
  const auto a = session.evaluate(ent::example_network_design());
  const auto b = session.evaluate(ent::example_network_design());
  EXPECT_DOUBLE_EQ(a.coa, b.coa);
  EXPECT_DOUBLE_EQ(a.after_patch.attack_success_probability,
                   b.after_patch.attack_success_probability);
  EXPECT_EQ(a.after_patch.exploitable_vulnerabilities, b.after_patch.exploitable_vulnerabilities);
}

TEST(Integration, SecurityAvailabilityTradeoffExists) {
  // The paper's headline: redundancy designs that raise COA (other than DNS)
  // also raise after-patch ASP — high security and high availability cannot
  // both be maximized.
  const core::Session session(core::Scenario::paper_case_study());
  const auto evals = session.evaluate_all();
  const auto& base = evals[0];
  for (std::size_t i = 2; i < evals.size(); ++i) {  // web/app/db redundancy
    EXPECT_GT(evals[i].coa, base.coa);
    EXPECT_GT(evals[i].after_patch.attack_success_probability,
              base.after_patch.attack_success_probability);
  }
  // DNS redundancy is the exception: COA up, security unchanged.
  EXPECT_GT(evals[1].coa, base.coa);
  EXPECT_DOUBLE_EQ(evals[1].after_patch.attack_success_probability,
                   base.after_patch.attack_success_probability);
}

TEST(Integration, HeterogeneousPatchIntervalEvaluators) {
  // One session can evaluate under different schedules; the result is
  // independent per cadence and monotone: the faster the patch cadence, the
  // lower the COA.
  const core::Session session(core::Scenario::paper_case_study());
  const double coa_m = session.evaluate(ent::example_network_design(), 720.0).coa;
  const double coa_w = session.evaluate(ent::example_network_design(), 168.0).coa;
  EXPECT_GT(coa_m, coa_w);
}
