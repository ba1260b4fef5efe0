// Randomized cross-validation properties: the analytic pipeline (SRN ->
// reachability -> CTMC -> steady state) against the Monte-Carlo simulator
// and against closed forms, over families of randomly generated nets; plus
// monotonicity sweeps over the paper's model parameters.

#include <gtest/gtest.h>

#include <random>

#include "patchsec/avail/network_srn.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/linalg/steady_state.hpp"
#include "patchsec/petri/reachability.hpp"
#include "patchsec/sim/srn_simulator.hpp"

namespace av = patchsec::avail;
namespace core = patchsec::core;
namespace ent = patchsec::enterprise;
namespace la = patchsec::linalg;
namespace pt = patchsec::petri;
namespace sm = patchsec::sim;

namespace {

/// Random cyclic "ring with chords" SRN: n places in a ring with one token
/// circulating, random extra shortcut transitions.  Always irreducible.
pt::SrnModel random_ring_net(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> rate(0.2, 5.0);
  pt::SrnModel net;
  std::vector<pt::PlaceId> places;
  for (std::size_t i = 0; i < n; ++i) {
    // Built via append (not operator+ on a temporary) to dodge a GCC 12
    // -Wrestrict false positive at -O3 (same workaround as
    // heterogeneous_coa.cpp).
    std::string name = "p";
    name += std::to_string(i);
    places.push_back(net.add_place(std::move(name), i == 0 ? 1 : 0));
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::string name = "ring";
    name += std::to_string(i);
    const auto t = net.add_timed_transition(std::move(name), rate(rng));
    net.add_input_arc(t, places[i]);
    net.add_output_arc(t, places[(i + 1) % n]);
  }
  // Chords: forward jumps.
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const std::size_t from = pick(rng);
    std::size_t to = pick(rng);
    if (to == from) to = (to + 1) % n;
    const auto t = net.add_timed_transition("chord" + std::to_string(k), rate(rng));
    net.add_input_arc(t, places[from]);
    net.add_output_arc(t, places[to]);
  }
  return net;
}

}  // namespace

class RandomNetCrossValidation : public ::testing::TestWithParam<int> {};

TEST_P(RandomNetCrossValidation, AnalyticMatchesSimulation) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 13u);
  std::uniform_int_distribution<std::size_t> size(3, 7);
  const pt::SrnModel net = random_ring_net(rng, size(rng));

  const pt::SrnAnalyzer analyzer(net);
  const pt::PlaceId watch = 0;
  const double analytic =
      analyzer.probability([watch](const pt::Marking& m) { return m[watch] == 1; });

  sm::SrnSimulator simulator(net);
  sm::SimulationOptions opt;
  opt.seed = static_cast<std::uint64_t>(GetParam()) + 1;
  opt.warmup_hours = 200.0;
  opt.horizon_hours = 4000.0;
  opt.replications = 8;
  const auto est = simulator.steady_state_probability_replicated(
      [watch](const pt::Marking& m) { return m[watch] == 1; }, opt);
  EXPECT_NEAR(est.mean, analytic, 4.0 * std::max(est.half_width_95, 2e-3))
      << "analytic=" << analytic;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetCrossValidation, ::testing::Range(0, 8));

class RandomChainSolvers : public ::testing::TestWithParam<int> {};

TEST_P(RandomChainSolvers, AllMethodsAgreeOnRandomGenerators) {
  // Random irreducible generator: ring + random extra edges.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 104729u + 7u);
  std::uniform_int_distribution<std::size_t> size(2, 12);
  std::uniform_real_distribution<double> rate(0.05, 20.0);
  const std::size_t n = size(rng);
  std::vector<la::Triplet> entries;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = (i + 1) % n;
    const double r = rate(rng);
    entries.push_back({i, j, r});
    entries.push_back({i, i, -r});
  }
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = pick(rng);
    std::size_t j = pick(rng);
    if (i == j) j = (j + 1) % n;
    const double r = rate(rng);
    entries.push_back({i, j, r});
    entries.push_back({i, i, -r});
  }
  const la::CsrMatrix q(n, n, entries);

  la::SteadyStateOptions opt;
  opt.method = la::SteadyStateMethod::kGaussSeidel;
  const auto gs = la::solve_steady_state(q, opt);
  opt.method = la::SteadyStateMethod::kPower;
  const auto pw = la::solve_steady_state(q, opt);
  ASSERT_EQ(gs.distribution.size(), pw.distribution.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(gs.distribution[i], pw.distribution[i], 1e-7) << "state " << i;
  }
  EXPECT_LT(gs.residual, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainSolvers, ::testing::Range(0, 12));

// ---------- model-level monotonicity sweeps --------------------------------------

class PatchIntervalSweep : public ::testing::TestWithParam<double> {};

TEST_P(PatchIntervalSweep, CoaAndDownProbabilityBehave) {
  const double interval = GetParam();
  const auto specs = ent::paper_server_specs();
  const av::AggregatedRates r =
      av::aggregate_server(specs.at(ent::ServerRole::kDb), {.patch_interval_hours = interval});
  EXPECT_NEAR(r.lambda_eq, 1.0 / interval, 1e-15);
  // p_pd ~= mttr / (interval + mttr), within 3%.
  EXPECT_NEAR(r.p_patch_down, r.mttr_hours() / (interval + r.mttr_hours()),
              r.p_patch_down * 0.03);
  const double coa = av::capacity_oriented_availability(ent::example_network_design(), specs,
                                                        interval);
  EXPECT_GT(coa, 0.0);
  EXPECT_LT(coa, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Intervals, PatchIntervalSweep,
                         ::testing::Values(24.0, 72.0, 168.0, 336.0, 720.0, 2160.0));

TEST(Monotonicity, CoaStrictlyIncreasesWithInterval) {
  const auto specs = ent::paper_server_specs();
  double prev = 0.0;
  for (double interval : {24.0, 72.0, 168.0, 336.0, 720.0, 2160.0}) {
    const double coa =
        av::capacity_oriented_availability(ent::example_network_design(), specs, interval);
    EXPECT_GT(coa, prev) << "interval " << interval;
    prev = coa;
  }
}

TEST(Monotonicity, AspNeverIncreasesWithPatching) {
  // For every design: after-patch metrics <= before-patch metrics.
  const auto evals = core::Session(core::Scenario::paper_case_study()).evaluate_all();
  for (const auto& e : evals) {
    EXPECT_LE(e.after_patch.attack_success_probability,
              e.before_patch.attack_success_probability);
    EXPECT_LE(e.after_patch.attack_impact, e.before_patch.attack_impact);
    EXPECT_LE(e.after_patch.exploitable_vulnerabilities,
              e.before_patch.exploitable_vulnerabilities);
    EXPECT_LE(e.after_patch.attack_paths, e.before_patch.attack_paths);
    EXPECT_LE(e.after_patch.entry_points, e.before_patch.entry_points);
  }
}

TEST(Monotonicity, MoreRedundancyNeverReducesAttackSurface) {
  const core::Session session(core::Scenario::paper_case_study());
  const auto base = session.evaluate(ent::RedundancyDesign{{1, 1, 1, 1}});
  for (unsigned extra_role = 0; extra_role < 4; ++extra_role) {
    ent::RedundancyDesign d{{1, 1, 1, 1}};
    d.counts[extra_role] = 2;
    const auto e = session.evaluate(d);
    EXPECT_GE(e.before_patch.exploitable_vulnerabilities,
              base.before_patch.exploitable_vulnerabilities);
    EXPECT_GE(e.before_patch.attack_paths, base.before_patch.attack_paths);
    EXPECT_GE(e.before_patch.attack_success_probability,
              base.before_patch.attack_success_probability - 1e-12);
    EXPECT_GE(e.coa, base.coa);  // redundancy always helps COA at n=2
  }
}
