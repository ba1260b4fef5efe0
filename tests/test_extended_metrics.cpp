// Tests for the extended HARM metrics and the patch-prioritization ranking,
// plus the reachability-based SRN structural analyzer (structural_oracle.hpp).

#include <gtest/gtest.h>

#include "patchsec/avail/server_srn.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/harm/extended_metrics.hpp"
#include "structural_oracle.hpp"

namespace av = patchsec::avail;
namespace ent = patchsec::enterprise;
namespace hm = patchsec::harm;
namespace pt = patchsec::petri;
namespace so = structural_oracle;

// ---------- extended HARM metrics -------------------------------------------------

TEST(ExtendedMetrics, ExampleNetworkBeforePatch) {
  const hm::Harm before = ent::example_network().build_harm();
  const hm::ExtendedMetrics m = hm::evaluate_extended(before);
  // Paths: 4 direct (web->app->db, length 3) and 4 via dns (length 4).
  EXPECT_EQ(m.shortest_path_length, 3u);
  EXPECT_EQ(m.longest_path_length, 4u);
  // Every node has a probability-1 vulnerability before patch.
  EXPECT_DOUBLE_EQ(m.mean_path_probability, 1.0);
  // Risk: 4 paths of impact 42.2 + 4 paths of 52.2, all probability 1.
  EXPECT_NEAR(m.total_risk, 4.0 * 42.2 + 4.0 * 52.2, 1e-9);
  EXPECT_DOUBLE_EQ(m.riskiest_path.impact, 52.2);
}

TEST(ExtendedMetrics, ExampleNetworkAfterPatch) {
  const hm::Harm after = ent::example_network().build_harm().after_critical_patch();
  const hm::ExtendedMetrics m = hm::evaluate_extended(after);
  EXPECT_EQ(m.shortest_path_length, 3u);
  EXPECT_EQ(m.longest_path_length, 3u);  // dns paths gone
  const double path_prob = 0.39 * 0.39 * 0.39;
  EXPECT_NEAR(m.mean_path_probability, path_prob, 1e-12);
  EXPECT_NEAR(m.total_risk, 4.0 * 42.2 * path_prob, 1e-9);
}

TEST(ExtendedMetrics, EmptyHarmYieldsZeroes) {
  hm::AttackGraph g;
  const auto attacker = g.add_node("attacker");
  const auto target = g.add_node("t");
  g.set_attacker(attacker);
  g.add_target(target);
  g.add_edge(attacker, target);
  hm::Harm model(std::move(g));
  model.attach_tree(target, hm::AttackTree{});  // unattackable
  const hm::ExtendedMetrics m = hm::evaluate_extended(model);
  EXPECT_EQ(m.shortest_path_length, 0u);
  EXPECT_DOUBLE_EQ(m.total_risk, 0.0);
}

TEST(Criticality, SharedBottleneckRanksFirst) {
  // db1 lies on all 8 before-patch paths of the example network: patching it
  // out removes all risk, so it must rank top.
  const hm::Harm before = ent::example_network().build_harm();
  const auto ranking = hm::rank_node_criticality(before);
  ASSERT_FALSE(ranking.empty());
  EXPECT_EQ(ranking.front().name, "db1");
  EXPECT_DOUBLE_EQ(ranking.front().path_fraction, 1.0);
  const double total = hm::evaluate_extended(before).total_risk;
  EXPECT_NEAR(ranking.front().risk_reduction, total, 1e-9);
}

TEST(Criticality, RedundantInstancesShareLoad) {
  const hm::Harm before = ent::example_network().build_harm();
  const auto ranking = hm::rank_node_criticality(before);
  double web1_fraction = -1.0, web2_fraction = -1.0;
  for (const auto& c : ranking) {
    if (c.name == "web1") web1_fraction = c.path_fraction;
    if (c.name == "web2") web2_fraction = c.path_fraction;
  }
  EXPECT_DOUBLE_EQ(web1_fraction, 0.5);
  EXPECT_DOUBLE_EQ(web2_fraction, 0.5);
}

TEST(Criticality, UnattackableNodesExcluded) {
  const hm::Harm after = ent::example_network().build_harm().after_critical_patch();
  for (const auto& c : hm::rank_node_criticality(after)) {
    EXPECT_NE(c.name, "dns1");
  }
}

// ---------- SRN structural analysis ------------------------------------------------

TEST(Structural, ServerSrnIsConservativeAndBounded) {
  const auto specs = ent::paper_server_specs();
  for (const auto& [role, spec] : specs) {
    const av::ServerSrn srn = av::build_server_srn(spec);
    const so::StructuralReport report = so::analyze_structure(srn.model);
    // 4 sub-models, one token each.
    EXPECT_EQ(report.max_total_tokens, 4u) << ent::to_string(role);
    EXPECT_TRUE(report.conservative) << ent::to_string(role);
    for (pt::PlaceId p = 0; p < srn.model.place_count(); ++p) {
      EXPECT_LE(report.place_bounds[p], 1u) << srn.model.place_name(p);
    }
  }
}

TEST(Structural, ImpossibleGuardTransitionsAreDeadByDesign) {
  // The hw-down handlers inside the patch window (Tosrpd, Tospd, Tsvcrpd,
  // Tsvcrrbd) can never fire: hardware is forbidden from failing during the
  // patch.  The structural analyzer must report exactly those as dead.
  const auto specs = ent::paper_server_specs();
  const av::ServerSrn srn = av::build_server_srn(specs.at(ent::ServerRole::kDns));
  const so::StructuralReport report = so::analyze_structure(srn.model);
  std::vector<std::string> dead_names;
  for (pt::TransitionId t : report.dead_transitions) {
    dead_names.push_back(srn.model.transition_name(t));
  }
  EXPECT_NE(std::find(dead_names.begin(), dead_names.end(), "Tosrpd"), dead_names.end());
  EXPECT_NE(std::find(dead_names.begin(), dead_names.end(), "Tospd"), dead_names.end());
  // Everything else must be live.
  for (const std::string& name : dead_names) {
    EXPECT_TRUE(name == "Tosrpd" || name == "Tospd" || name == "Tsvcrpd" || name == "Tsvcrrbd")
        << "unexpected dead transition " << name;
  }
}

TEST(Structural, DetectsNonConservativeNet) {
  pt::SrnModel net;
  const auto p = net.add_place("p", 1);
  const auto q = net.add_place("q", 0);
  const auto split = net.add_timed_transition("split", 1.0);
  net.add_input_arc(split, p);
  net.add_output_arc(split, q, 2);  // 1 token in, 2 out
  const auto merge = net.add_timed_transition("merge", 1.0);
  net.add_input_arc(merge, q, 2);
  net.add_output_arc(merge, p);
  const so::StructuralReport report = so::analyze_structure(net);
  EXPECT_FALSE(report.conservative);
  EXPECT_EQ(report.max_total_tokens, 2u);
}

TEST(Structural, DetectsDeadTimedTransition) {
  pt::SrnModel net;
  const auto p = net.add_place("p", 1);
  const auto q = net.add_place("q", 0);
  const auto cycle = net.add_timed_transition("cycle", 1.0);
  net.add_input_arc(cycle, p);
  net.add_output_arc(cycle, p);
  const auto never = net.add_timed_transition("never", 1.0);
  net.add_input_arc(never, q);  // q never marked
  net.add_output_arc(never, p);
  const so::StructuralReport report = so::analyze_structure(net);
  ASSERT_EQ(report.dead_transitions.size(), 1u);
  EXPECT_EQ(report.dead_transitions[0], never);
  (void)cycle;
}
