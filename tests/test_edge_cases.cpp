// Edge cases not covered by the per-module suites: numeric corner cases,
// option caps, and API misuse paths.

#include <gtest/gtest.h>

#include <cmath>

#include "patchsec/ctmc/transient_solver.hpp"
#include "patchsec/linalg/vector_ops.hpp"
#include "patchsec/petri/reachability.hpp"
#include "patchsec/sim/srn_simulator.hpp"

namespace la = patchsec::linalg;
namespace ct = patchsec::ctmc;
namespace pt = patchsec::petri;
namespace sm = patchsec::sim;

TEST(VectorOpsEdge, ScaleInPlace) {
  std::vector<double> v{1.0, -2.0, 0.5};
  la::scale(v, -2.0);
  EXPECT_DOUBLE_EQ(v[0], -2.0);
  EXPECT_DOUBLE_EQ(v[1], 4.0);
  EXPECT_DOUBLE_EQ(v[2], -1.0);
}

TEST(VectorOpsEdge, EmptyVectors) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(la::sum(empty), 0.0);
  EXPECT_DOUBLE_EQ(la::norm1(empty), 0.0);
  EXPECT_DOUBLE_EQ(la::norm_inf(empty), 0.0);
  EXPECT_TRUE(la::all_finite(empty));
  EXPECT_THROW(la::normalize_probability(empty), std::domain_error);
}

TEST(TransientEdge, UndersizedExpansionFailsLoudly) {
  // Lambda*t ~ 1e4 with an 8-term cap accumulates no Poisson mass at all:
  // the solver must refuse rather than return garbage.
  const ct::Ctmc c(2, {{0, 1, 1000.0}, {1, 0, 1000.0}});
  ct::TransientOptions opt;
  opt.max_terms = 8;
  std::vector<double> up, down;
  ct::TransientSolver undersized(opt);
  undersized.prepare(c);
  EXPECT_THROW((void)undersized.reward_curve({1.0, 0.0}, {1.0, 0.0}, {10.0}, up),
               std::runtime_error);
  // With an adequate expansion the same stiff problem solves fine.
  opt.max_terms = 2'000'000;
  ct::TransientSolver adequate(opt);
  adequate.prepare(c);
  (void)adequate.reward_curve({1.0, 0.0}, {1.0, 0.0}, {10.0}, up);
  (void)adequate.reward_curve({1.0, 0.0}, {0.0, 1.0}, {10.0}, down);
  EXPECT_NEAR(up[0], 0.5, 1e-9);  // symmetric rates: uniform limit
  EXPECT_NEAR(up[0] + down[0], 1.0, 1e-12);
}

TEST(TransientEdge, VeryLargeTimeIsSteadyState) {
  const ct::Ctmc c(2, {{0, 1, 0.25}, {1, 0, 0.75}});
  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> up;
  (void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {1e4}, up);
  EXPECT_NEAR(up[0], 0.75, 1e-9);
}

TEST(PetriEdge, ArcValidation) {
  pt::SrnModel net;
  const auto p = net.add_place("p", 1);
  const auto t = net.add_timed_transition("t", 1.0);
  EXPECT_THROW(net.add_input_arc(t, 99), std::out_of_range);
  EXPECT_THROW(net.add_input_arc(99, p), std::out_of_range);
  EXPECT_THROW(net.add_input_arc(t, p, 0), std::invalid_argument);
  EXPECT_THROW(net.add_output_arc(t, p, 0), std::invalid_argument);
  EXPECT_THROW(net.add_inhibitor_arc(t, p, 0), std::invalid_argument);
}

TEST(PetriEdge, ArcIntrospection) {
  pt::SrnModel net;
  const auto p = net.add_place("p", 1);
  const auto q = net.add_place("q", 0);
  const auto t = net.add_timed_transition("t", 1.0);
  net.add_input_arc(t, p, 2);
  net.add_output_arc(t, q, 3);
  net.add_inhibitor_arc(t, q);
  ASSERT_EQ(net.input_arcs(t).size(), 1u);
  EXPECT_EQ(net.input_arcs(t)[0].place, p);
  EXPECT_EQ(net.input_arcs(t)[0].multiplicity, 2u);
  ASSERT_EQ(net.output_arcs(t).size(), 1u);
  EXPECT_EQ(net.output_arcs(t)[0].multiplicity, 3u);
  ASSERT_EQ(net.inhibitor_arcs(t).size(), 1u);
  EXPECT_FALSE(net.has_guard(t));
  net.set_guard(t, [](const pt::Marking&) { return true; });
  EXPECT_TRUE(net.has_guard(t));
}

TEST(PetriEdge, MarkingSizeMismatchRejected) {
  pt::SrnModel net;
  const auto p = net.add_place("p", 1);
  const auto t = net.add_timed_transition("t", 1.0);
  net.add_input_arc(t, p);
  const pt::Marking wrong_size{1, 0};
  EXPECT_THROW((void)net.is_enabled(t, wrong_size), std::invalid_argument);
}

TEST(PetriEdge, MultiTokenMarkingDependentChain) {
  // N tokens drain with rate #P: the chain through N..0 has rates N, N-1, ...
  constexpr pt::TokenCount kTokens = 5;
  pt::SrnModel net;
  const auto p = net.add_place("p", kTokens);
  const auto t = net.add_timed_transition("t", 1.0, p);
  net.add_input_arc(t, p);
  const auto graph = pt::build_reachability_graph(net);
  EXPECT_EQ(graph.tangible_count(), kTokens + 1u);
  const auto q = graph.chain.generator();
  for (pt::TokenCount k = kTokens; k > 0; --k) {
    const auto from = graph.index_of(pt::Marking{k});
    const auto to = graph.index_of(pt::Marking{static_cast<pt::TokenCount>(k - 1)});
    EXPECT_DOUBLE_EQ(q.at(from, to), static_cast<double>(k));
  }
}

TEST(SimulatorEdge, NonIndicatorRewardAveragesCorrectly) {
  // Reward = 3 in up, 7 in down: expectation = 3*A + 7*(1-A).
  pt::SrnModel net;
  const auto up = net.add_place("up", 1);
  const auto down = net.add_place("down", 0);
  const auto fail = net.add_timed_transition("fail", 1.0);
  net.add_input_arc(fail, up);
  net.add_output_arc(fail, down);
  const auto repair = net.add_timed_transition("repair", 3.0);
  net.add_input_arc(repair, down);
  net.add_output_arc(repair, up);

  sm::SrnSimulator simulator(net);
  sm::SimulationOptions opt;
  opt.seed = 5;
  opt.warmup_hours = 50.0;
  opt.horizon_hours = 2000.0;
  opt.replications = 8;
  const auto est = simulator.steady_state_reward_replicated(
      [up](const pt::Marking& m) { return m[up] == 1 ? 3.0 : 7.0; }, opt);
  const double availability = 0.75;
  const double expected = 3.0 * availability + 7.0 * (1.0 - availability);
  EXPECT_NEAR(est.mean, expected, 3.0 * std::max(est.half_width_95, 5e-2));
}

TEST(ReachabilityEdge, IndexOfUnknownMarkingThrows) {
  pt::SrnModel net;
  net.add_place("p", 1);
  const auto graph = pt::build_reachability_graph(net);
  EXPECT_THROW((void)graph.index_of(pt::Marking{42}), std::out_of_range);
}
