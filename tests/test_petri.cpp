// Tests for the SRN/GSPN engine: net semantics (arcs, guards, priorities,
// weights, marking-dependent rates), reachability generation with vanishing
// elimination, and the analyzer against hand-solved chains.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "patchsec/petri/reachability.hpp"
#include "patchsec/petri/srn_model.hpp"

namespace pt = patchsec::petri;

// ---------- model semantics --------------------------------------------------

TEST(SrnModel, PlaceAndTransitionLookup) {
  pt::SrnModel net;
  const auto p = net.add_place("P1", 2);
  const auto t = net.add_timed_transition("T1", 1.5);
  EXPECT_EQ(net.place("P1"), p);
  EXPECT_EQ(net.transition("T1"), t);
  EXPECT_THROW((void)net.place("nope"), std::out_of_range);
  EXPECT_THROW((void)net.transition("nope"), std::out_of_range);
  EXPECT_EQ(net.initial_marking()[p], 2u);
}

TEST(SrnModel, DuplicateNamesRejected) {
  pt::SrnModel net;
  net.add_place("P", 0);
  EXPECT_THROW(net.add_place("P", 1), std::invalid_argument);
  net.add_timed_transition("T", 1.0);
  EXPECT_THROW(net.add_timed_transition("T", 2.0), std::invalid_argument);
  EXPECT_THROW(net.add_immediate_transition("T"), std::invalid_argument);
}

TEST(SrnModel, InvalidRatesAndWeightsRejected) {
  pt::SrnModel net;
  EXPECT_THROW(net.add_timed_transition("T0", 0.0), std::invalid_argument);
  EXPECT_THROW(net.add_timed_transition("T1", -1.0), std::invalid_argument);
  EXPECT_THROW(net.add_immediate_transition("T2", 0.0), std::invalid_argument);
}

TEST(SrnModel, SetRateRefusesWhatConstructionRefuses) {
  pt::SrnModel net;
  const auto p = net.add_place("P", 2);
  const auto fixed = net.add_timed_transition("Tfixed", 1.0);
  const auto per_token = net.add_timed_transition("Tper", 0.5, p);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {0.0, -1.0, std::nan(""), inf, -inf}) {
    for (const pt::TransitionId t : {fixed, per_token}) {
      std::string built;
      std::string rerated;
      try {
        pt::SrnModel other;
        const auto q = other.add_place("P", 2);
        (void)(t == fixed ? other.add_timed_transition("Tfixed", bad)
                          : other.add_timed_transition("Tper", bad, q));
      } catch (const std::invalid_argument& e) {
        built = e.what();
      }
      try {
        net.set_rate(t, bad);
      } catch (const std::invalid_argument& e) {
        rerated = e.what();
      }
      EXPECT_NE(built.find(net.transition_name(t)), std::string::npos) << bad;
      EXPECT_EQ(rerated, built) << bad;
    }
  }
  // A refused rate leaves the transition as it was.
  EXPECT_EQ(net.timed_rate(fixed).scale, 1.0);
  EXPECT_EQ(net.timed_rate(per_token).scale, 0.5);
  // A per-token rate must stay finite at every token count; a constant need not.
  const double huge = std::numeric_limits<double>::max() / 2.0;
  EXPECT_THROW(net.set_rate(per_token, huge), std::invalid_argument);
  EXPECT_THROW((void)net.add_timed_transition("Thuge", huge, p), std::invalid_argument);
  EXPECT_NO_THROW(net.set_rate(fixed, huge));
  EXPECT_THROW((void)net.add_timed_transition("Tnowhere", 1.0, 7), std::out_of_range);
}

TEST(SrnModel, SetRateKeepsTheRateShape) {
  pt::SrnModel net;
  const auto p = net.add_place("P", 3);
  const auto fixed = net.add_timed_transition("Tfixed", 1.0);
  const auto per_token = net.add_timed_transition("Tper", 0.5, p);
  net.set_rate(fixed, 4.0);
  net.set_rate(per_token, 0.25);
  EXPECT_FALSE(net.timed_rate(fixed).place.has_value());
  EXPECT_EQ(net.rate(fixed, net.initial_marking()), 4.0);
  EXPECT_EQ(net.timed_rate(per_token).place, p);
  EXPECT_EQ(net.rate(per_token, net.initial_marking()), 0.75);

  // Immediates have no rate: std::logic_error, and not the value check's
  // std::invalid_argument (a logic_error too), whatever the value.
  const auto immediate = net.add_immediate_transition("Timm");
  for (const double value : {1.0, 0.0}) {
    try {
      net.set_rate(immediate, value);
      ADD_FAILURE() << "set_rate accepted an immediate transition";
    } catch (const std::invalid_argument&) {
      ADD_FAILURE() << "set_rate checked a value for an immediate transition";
    } catch (const std::logic_error&) {
    }
  }
  EXPECT_THROW((void)net.timed_rate(immediate), std::logic_error);
}

TEST(SrnModel, EnablingRequiresInputTokens) {
  pt::SrnModel net;
  const auto p = net.add_place("P", 1);
  const auto q = net.add_place("Q", 0);
  const auto t = net.add_timed_transition("T", 1.0);
  net.add_input_arc(t, p, 2);
  net.add_output_arc(t, q);
  EXPECT_FALSE(net.is_enabled(t, net.initial_marking()));  // needs 2, has 1
}

TEST(SrnModel, InhibitorArcDisables) {
  pt::SrnModel net;
  const auto p = net.add_place("P", 1);
  const auto h = net.add_place("H", 1);
  const auto t = net.add_timed_transition("T", 1.0);
  net.add_input_arc(t, p);
  net.add_inhibitor_arc(t, h);
  EXPECT_FALSE(net.is_enabled(t, net.initial_marking()));
  pt::Marking m = net.initial_marking();
  m[h] = 0;
  EXPECT_TRUE(net.is_enabled(t, m));
}

TEST(SrnModel, InhibitorMultiplicityThreshold) {
  pt::SrnModel net;
  const auto p = net.add_place("P", 1);
  const auto h = net.add_place("H", 1);
  const auto t = net.add_timed_transition("T", 1.0);
  net.add_input_arc(t, p);
  net.add_inhibitor_arc(t, h, 2);  // blocks only at >= 2 tokens
  EXPECT_TRUE(net.is_enabled(t, net.initial_marking()));
  pt::Marking m = net.initial_marking();
  m[h] = 2;
  EXPECT_FALSE(net.is_enabled(t, m));
}

TEST(SrnModel, GuardDisables) {
  pt::SrnModel net;
  const auto p = net.add_place("P", 1);
  const auto g = net.add_place("G", 0);
  const auto t = net.add_timed_transition("T", 1.0);
  net.add_input_arc(t, p);
  net.set_guard(t, [g](const pt::Marking& m) { return m[g] >= 1; });
  EXPECT_FALSE(net.is_enabled(t, net.initial_marking()));
  pt::Marking m = net.initial_marking();
  m[g] = 1;
  EXPECT_TRUE(net.is_enabled(t, m));
}

TEST(SrnModel, FireMovesTokens) {
  pt::SrnModel net;
  const auto p = net.add_place("P", 2);
  const auto q = net.add_place("Q", 0);
  const auto t = net.add_timed_transition("T", 1.0);
  net.add_input_arc(t, p, 2);
  net.add_output_arc(t, q, 3);
  const pt::Marking next = net.fire(t, net.initial_marking());
  EXPECT_EQ(next[p], 0u);
  EXPECT_EQ(next[q], 3u);
}

TEST(SrnModel, FireDisabledThrows) {
  pt::SrnModel net;
  const auto p = net.add_place("P", 0);
  const auto t = net.add_timed_transition("T", 1.0);
  net.add_input_arc(t, p);
  EXPECT_THROW((void)net.fire(t, net.initial_marking()), std::logic_error);
}

namespace {

// Firing `pump` would put 5,000,000,000 tokens in `a`, past TokenCount.
pt::SrnModel token_overflow_net() {
  pt::SrnModel net;
  const auto a = net.add_place("a", 3'000'000'000u);
  const auto pump = net.add_timed_transition("pump", 1.0);
  net.add_output_arc(pump, a, 2'000'000'000u);
  return net;
}

template <typename Fire>
void expect_token_overflow(Fire fire) {
  try {
    fire();
    ADD_FAILURE() << "expected std::overflow_error";
  } catch (const std::overflow_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pump"), std::string::npos) << what;
    EXPECT_NE(what.find("place a"), std::string::npos) << what;
    EXPECT_NE(what.find("[3000000000]"), std::string::npos) << what;
  }
}

}  // namespace

TEST(SrnModel, FireRejectsTokenOverflow) {
  const pt::SrnModel net = token_overflow_net();
  expect_token_overflow([&] { (void)net.fire(net.transition("pump"), net.initial_marking()); });
  pt::Marking m = net.initial_marking();
  expect_token_overflow([&] { net.fire_into(net.transition("pump"), m, m); });
  EXPECT_EQ(m[0], 3'000'000'000u);  // checked before the aliased output changes

  // Exactly at the TokenCount limit is fine; consuming first leaves room.
  pt::SrnModel edge;
  const auto p = edge.add_place("p", 4'294'967'290u);
  const auto t = edge.add_timed_transition("t", 1.0);
  edge.add_input_arc(t, p, 10);
  edge.add_output_arc(t, p, 15);
  EXPECT_EQ(edge.fire(t, edge.initial_marking())[p], 4'294'967'295u);
}

TEST(Reachability, TokenOverflowThrowsInsteadOfWrapping) {
  const pt::SrnModel net = token_overflow_net();
  expect_token_overflow([&] { (void)pt::build_reachability_graph(net); });
}

TEST(SrnModel, MarkingDependentRate) {
  pt::SrnModel net;
  const auto p = net.add_place("P", 3);
  const auto t = net.add_timed_transition("T", 0.5, p);
  net.add_input_arc(t, p);
  EXPECT_DOUBLE_EQ(net.rate(t, net.initial_marking()), 1.5);
  EXPECT_EQ(net.timed_rate(t).place, p);
  EXPECT_EQ(net.timed_rate(t).scale, 0.5);
}

TEST(SrnModel, NonPositiveRateEvaluationThrows) {
  pt::SrnModel net;
  const auto p = net.add_place("P", 0);
  const auto t = net.add_timed_transition("T", 1.0, p);  // 0 in the initial marking
  net.add_output_arc(t, p);
  EXPECT_THROW((void)net.rate(t, net.initial_marking()), std::domain_error);
}

TEST(SrnModel, RateOnImmediateThrows) {
  pt::SrnModel net;
  net.add_place("P", 1);
  const auto t = net.add_immediate_transition("T");
  EXPECT_THROW((void)net.rate(t, net.initial_marking()), std::logic_error);
  EXPECT_DOUBLE_EQ(net.weight(t), 1.0);
}

TEST(SrnModel, ImmediatePriorityPreemption) {
  pt::SrnModel net;
  const auto p = net.add_place("P", 1);
  const auto lo = net.add_immediate_transition("lo", 1.0, 1);
  const auto hi = net.add_immediate_transition("hi", 1.0, 5);
  net.add_input_arc(lo, p);
  net.add_input_arc(hi, p);
  const auto enabled = net.enabled_immediates(net.initial_marking());
  ASSERT_EQ(enabled.size(), 1u);
  EXPECT_EQ(enabled[0], hi);
}

TEST(SrnModel, VanishingDetection) {
  pt::SrnModel net;
  const auto p = net.add_place("P", 1);
  const auto t = net.add_immediate_transition("T");
  net.add_input_arc(t, p);
  EXPECT_TRUE(net.is_vanishing(net.initial_marking()));
  pt::Marking m = net.initial_marking();
  m[p] = 0;
  EXPECT_FALSE(net.is_vanishing(m));
}

TEST(SrnModel, RepeatedInputArcsSumTheirDemand) {
  // Two unit input arcs on a 1-token place are ONE arc demanding 2 tokens:
  // the transition is disabled, and no marking can wrap below zero.  (Kept
  // as two arcs, each check passed on its own while firing subtracted the
  // sum, wrapping p to 4294967295.)
  pt::SrnModel net;
  const auto p = net.add_place("p", 1);
  const auto q = net.add_place("q", 0);
  const auto take = net.add_timed_transition("take", 1.0);
  net.add_input_arc(take, p);
  net.add_input_arc(take, p);
  net.add_output_arc(take, q);
  const auto back = net.add_timed_transition("back", 1.0);
  net.add_input_arc(back, q);
  net.add_output_arc(back, p);
  net.add_output_arc(back, p);
  const auto spin = net.add_timed_transition("spin", 1.0);
  net.add_input_arc(spin, p);
  net.add_output_arc(spin, p);

  ASSERT_EQ(net.input_arcs(take).size(), 1u);
  EXPECT_EQ(net.input_arcs(take)[0].multiplicity, 2u);
  ASSERT_EQ(net.output_arcs(back).size(), 1u);
  EXPECT_EQ(net.output_arcs(back)[0].multiplicity, 2u);
  EXPECT_FALSE(net.is_enabled(take, net.initial_marking()));
  EXPECT_THROW((void)net.fire(take, net.initial_marking()), std::logic_error);

  const pt::ReachabilityGraph graph = pt::build_reachability_graph(net);
  ASSERT_EQ(graph.tangible_count(), 1u);
  for (const pt::Marking& m : graph.tangible_markings) {
    EXPECT_EQ(m[p], 1u);
    EXPECT_EQ(m[q], 0u);
  }

  // With the demand met the transition fires exactly once to an empty p.
  const pt::Marking two = {2, 0};
  EXPECT_EQ(net.fire(take, two), (pt::Marking{0, 1}));
}

TEST(SrnModel, RepeatedArcOverflowThrowsAndInhibitorsKeepTheTightest) {
  pt::SrnModel net;
  const auto p = net.add_place("p", 0);
  const auto t = net.add_timed_transition("t", 1.0);
  net.add_input_arc(t, p, 0xFFFFFFFFu);
  EXPECT_THROW(net.add_input_arc(t, p, 1), std::invalid_argument);
  EXPECT_EQ(net.input_arcs(t)[0].multiplicity, 0xFFFFFFFFu);  // left unchanged
  net.add_output_arc(t, p, 0xFFFFFFFEu);
  EXPECT_THROW(net.add_output_arc(t, p, 2), std::invalid_argument);
  net.add_output_arc(t, p, 1);
  EXPECT_EQ(net.output_arcs(t)[0].multiplicity, 0xFFFFFFFFu);

  const auto u = net.add_timed_transition("u", 1.0);
  net.add_inhibitor_arc(u, p, 3);
  net.add_inhibitor_arc(u, p, 2);
  net.add_inhibitor_arc(u, p, 5);
  ASSERT_EQ(net.inhibitor_arcs(u).size(), 1u);
  EXPECT_EQ(net.inhibitor_arcs(u)[0].multiplicity, 2u);
}

// ---------- reachability + vanishing elimination ------------------------------

TEST(Reachability, UpDownNetMatchesClosedForm) {
  pt::SrnModel net;
  const auto up = net.add_place("up", 1);
  const auto down = net.add_place("down", 0);
  const auto fail = net.add_timed_transition("fail", 0.2);
  net.add_input_arc(fail, up);
  net.add_output_arc(fail, down);
  const auto repair = net.add_timed_transition("repair", 1.8);
  net.add_input_arc(repair, down);
  net.add_output_arc(repair, up);

  const pt::SrnAnalyzer analyzer(net);
  EXPECT_EQ(analyzer.graph().tangible_count(), 2u);
  const double availability =
      analyzer.probability([up](const pt::Marking& m) { return m[up] == 1; });
  EXPECT_NEAR(availability, 0.9, 1e-9);
  EXPECT_NEAR(analyzer.mean_tokens(up), 0.9, 1e-9);
}

TEST(Reachability, VanishingMarkingsAreEliminated) {
  // up -fail-> broken (vanishing) -route-> down -repair-> up.  The broken
  // marking must not appear among tangibles.
  pt::SrnModel net;
  const auto up = net.add_place("up", 1);
  const auto broken = net.add_place("broken", 0);
  const auto down = net.add_place("down", 0);
  const auto fail = net.add_timed_transition("fail", 1.0);
  net.add_input_arc(fail, up);
  net.add_output_arc(fail, broken);
  const auto route = net.add_immediate_transition("route");
  net.add_input_arc(route, broken);
  net.add_output_arc(route, down);
  const auto repair = net.add_timed_transition("repair", 1.0);
  net.add_input_arc(repair, down);
  net.add_output_arc(repair, up);

  const auto graph = pt::build_reachability_graph(net);
  EXPECT_EQ(graph.tangible_count(), 2u);
  EXPECT_GE(graph.vanishing_markings_seen, 1u);
}

TEST(Reachability, ImmediateWeightsSplitProbability) {
  // A timed transition leads to a vanishing marking resolved 25/75 into two
  // tangible states; their mean sojourn mass must follow the weights.
  pt::SrnModel net;
  const auto src = net.add_place("src", 1);
  const auto mid = net.add_place("mid", 0);
  const auto a = net.add_place("a", 0);
  const auto b = net.add_place("b", 0);

  const auto go = net.add_timed_transition("go", 1.0);
  net.add_input_arc(go, src);
  net.add_output_arc(go, mid);

  const auto pick_a = net.add_immediate_transition("pick_a", 1.0);
  net.add_input_arc(pick_a, mid);
  net.add_output_arc(pick_a, a);
  const auto pick_b = net.add_immediate_transition("pick_b", 3.0);
  net.add_input_arc(pick_b, mid);
  net.add_output_arc(pick_b, b);

  // Return to src at equal rates so the stationary masses of a and b are
  // proportional to the branch probabilities.
  const auto back_a = net.add_timed_transition("back_a", 1.0);
  net.add_input_arc(back_a, a);
  net.add_output_arc(back_a, src);
  const auto back_b = net.add_timed_transition("back_b", 1.0);
  net.add_input_arc(back_b, b);
  net.add_output_arc(back_b, src);

  const pt::SrnAnalyzer analyzer(net);
  const double pa = analyzer.probability([a](const pt::Marking& m) { return m[a] == 1; });
  const double pb = analyzer.probability([b](const pt::Marking& m) { return m[b] == 1; });
  EXPECT_NEAR(pb / pa, 3.0, 1e-6);
}

TEST(Reachability, VanishingLoopDetected) {
  pt::SrnModel net;
  const auto p = net.add_place("P", 1);
  const auto q = net.add_place("Q", 0);
  const auto t1 = net.add_immediate_transition("T1");
  net.add_input_arc(t1, p);
  net.add_output_arc(t1, q);
  const auto t2 = net.add_immediate_transition("T2");
  net.add_input_arc(t2, q);
  net.add_output_arc(t2, p);
  EXPECT_THROW(pt::build_reachability_graph(net), std::runtime_error);
}

TEST(Reachability, StateSpaceBoundEnforced) {
  // Unbounded net: a source transition pumps tokens forever.
  pt::SrnModel net;
  const auto p = net.add_place("P", 1);
  const auto t = net.add_timed_transition("T", 1.0);
  net.add_input_arc(t, p);
  net.add_output_arc(t, p, 2);  // strictly grows
  pt::ReachabilityOptions opt;
  opt.max_tangible_markings = 64;
  EXPECT_THROW(pt::build_reachability_graph(net, opt), std::runtime_error);
}

TEST(Reachability, VanishingInitialMarkingResolved) {
  pt::SrnModel net;
  const auto p = net.add_place("P", 1);
  const auto q = net.add_place("Q", 0);
  const auto imm = net.add_immediate_transition("imm");
  net.add_input_arc(imm, p);
  net.add_output_arc(imm, q);
  const auto back = net.add_timed_transition("back", 1.0);
  net.add_input_arc(back, q);
  net.add_output_arc(back, q);  // hmm: self loop in SRN is fine; produces none
  // Replace with a proper cycle to keep the chain alive.
  const auto graph = pt::build_reachability_graph(net);
  ASSERT_EQ(graph.tangible_count(), 1u);
  EXPECT_EQ(graph.tangible_markings[0][q], 1u);
  EXPECT_DOUBLE_EQ(graph.initial_distribution[0], 1.0);
}

TEST(Reachability, MarkingDependentRatesEnterChain) {
  // Two tokens drain from P at rate #P; the tangible chain is 2 -> 1 -> 0
  // with rates 2 and 1.
  pt::SrnModel net;
  const auto p = net.add_place("P", 2);
  const auto t = net.add_timed_transition("T", 1.0, p);
  net.add_input_arc(t, p);

  const auto graph = pt::build_reachability_graph(net);
  ASSERT_EQ(graph.tangible_count(), 3u);
  const std::size_t s2 = graph.index_of({2});
  const std::size_t s1 = graph.index_of({1});
  const auto q = graph.chain.generator();
  EXPECT_DOUBLE_EQ(q.at(s2, s1), 2.0);
}

TEST(Analyzer, NullRewardThrows) {
  pt::SrnModel net;
  const auto p = net.add_place("P", 1);
  const auto t = net.add_timed_transition("T", 1.0);
  net.add_input_arc(t, p);
  net.add_output_arc(t, p, 1);  // no-op cycle? input+output same: net stays {1}
  // Build a 2-state cycle instead to avoid a degenerate self-loop-only chain.
  const auto q2 = net.add_place("Q", 0);
  (void)q2;
  const pt::SrnAnalyzer analyzer(net);
  EXPECT_THROW((void)analyzer.expected_reward(nullptr), std::invalid_argument);
  EXPECT_THROW((void)analyzer.probability(nullptr), std::invalid_argument);
}
