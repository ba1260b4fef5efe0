// Two-layer HARM tests: node/path/network metric composition, the paper's
// worked example (aim_ap1 = 52.2) and the full Table II reproduction on the
// example enterprise network.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "patchsec/enterprise/network.hpp"
#include "patchsec/harm/harm.hpp"
#include "patchsec/harm/path_classes.hpp"

namespace hm = patchsec::harm;
namespace ent = patchsec::enterprise;

namespace {

patchsec::nvd::Vulnerability vuln(const char* id, const char* vector) {
  patchsec::nvd::Vulnerability v;
  v.cve_id = id;
  v.product = "test";
  v.vector = patchsec::cvss::CvssV2Vector::parse(vector);
  v.remotely_exploitable = true;
  return v;
}

}  // namespace

TEST(Harm, AttachAndQueryTrees) {
  hm::AttackGraph g;
  const auto attacker = g.add_node("attacker");
  const auto server = g.add_node("server");
  g.set_attacker(attacker);
  g.add_target(server);
  g.add_edge(attacker, server);

  hm::Harm model(std::move(g));
  EXPECT_THROW((void)model.tree(server), std::out_of_range);
  EXPECT_FALSE(model.attackable(server));
  EXPECT_THROW(model.attach_tree(attacker, hm::AttackTree{}), std::invalid_argument);

  model.attach_tree(server, hm::make_or_tree({vuln("v", "AV:N/AC:L/Au:N/C:C/I:C/A:C")}));
  EXPECT_TRUE(model.attackable(server));
  EXPECT_DOUBLE_EQ(model.node_impact(server), 10.0);
  EXPECT_DOUBLE_EQ(model.node_probability(server), 1.0);
}

TEST(Harm, PathMetricsComposeAcrossNodes) {
  // attacker -> n1 -> n2; impact adds, probability multiplies.
  hm::AttackGraph g;
  const auto attacker = g.add_node("attacker");
  const auto n1 = g.add_node("n1");
  const auto n2 = g.add_node("n2");
  g.set_attacker(attacker);
  g.add_target(n2);
  g.add_edge(attacker, n1);
  g.add_edge(n1, n2);

  hm::Harm model(std::move(g));
  model.attach_tree(n1, hm::make_or_tree({vuln("a", "AV:L/AC:L/Au:N/C:C/I:C/A:C")}));  // 10, .39
  model.attach_tree(n2, hm::make_or_tree({vuln("b", "AV:N/AC:M/Au:N/C:P/I:N/A:N")}));  // 2.9, .86

  const auto paths = model.attack_paths();
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_DOUBLE_EQ(paths[0].impact, 12.9);
  EXPECT_NEAR(paths[0].probability, 0.39 * 0.86, 1e-12);

  const hm::SecurityMetrics m = model.evaluate();
  EXPECT_DOUBLE_EQ(m.attack_impact, 12.9);
  EXPECT_NEAR(m.attack_success_probability, 0.39 * 0.86, 1e-12);
  EXPECT_EQ(m.attack_paths, 1u);
  EXPECT_EQ(m.entry_points, 1u);
  EXPECT_EQ(m.exploitable_vulnerabilities, 2u);
}

TEST(Harm, NetworkAspAggregatesOverPaths) {
  // Diamond with identical nodes p=0.5 per node, two 1-node paths:
  // ASP = 1 - (1-0.5)^2 = 0.75... here each path has one node with p=0.39.
  hm::AttackGraph g;
  const auto attacker = g.add_node("attacker");
  const auto t1 = g.add_node("t1");
  const auto t2 = g.add_node("t2");
  g.set_attacker(attacker);
  g.add_target(t1);
  g.add_target(t2);
  g.add_edge(attacker, t1);
  g.add_edge(attacker, t2);

  hm::Harm model(std::move(g));
  const auto local = vuln("v", "AV:L/AC:L/Au:N/C:C/I:C/A:C");  // p 0.39
  model.attach_tree(t1, hm::make_or_tree({local}));
  model.attach_tree(t2, hm::make_or_tree({local}));

  const hm::SecurityMetrics m = model.evaluate();
  EXPECT_NEAR(m.attack_success_probability, 1.0 - (1.0 - 0.39) * (1.0 - 0.39), 1e-12);
  EXPECT_EQ(m.attack_paths, 2u);
  EXPECT_EQ(m.entry_points, 2u);
}

TEST(Harm, NoPathsMeansZeroAimAsp) {
  hm::AttackGraph g;
  const auto attacker = g.add_node("attacker");
  const auto server = g.add_node("server");
  g.set_attacker(attacker);
  g.add_target(server);
  g.add_edge(attacker, server);
  hm::Harm model(std::move(g));
  // Infeasible tree: server not attackable, but its (zero) vulnerabilities
  // still count toward NoEV.
  model.attach_tree(server, hm::AttackTree{});
  const hm::SecurityMetrics m = model.evaluate();
  EXPECT_DOUBLE_EQ(m.attack_impact, 0.0);
  EXPECT_DOUBLE_EQ(m.attack_success_probability, 0.0);
  EXPECT_EQ(m.attack_paths, 0u);
  EXPECT_EQ(m.entry_points, 0u);
}

// ---------- the paper's example network (Fig. 3 / Table II) -------------------

class ExampleNetworkHarm : public ::testing::Test {
 protected:
  ExampleNetworkHarm()
      : network_(ent::example_network()), before_(network_.build_harm()),
        after_(before_.after_critical_patch()) {}
  ent::NetworkModel network_;
  hm::Harm before_;
  hm::Harm after_;
};

TEST_F(ExampleNetworkHarm, NodeImpactsMatchWorkedExample) {
  const auto& g = before_.graph();
  EXPECT_DOUBLE_EQ(before_.node_impact(g.node("dns1")), 10.0);
  EXPECT_DOUBLE_EQ(before_.node_impact(g.node("web1")), 12.9);
  EXPECT_DOUBLE_EQ(before_.node_impact(g.node("app1")), 16.4);
  EXPECT_DOUBLE_EQ(before_.node_impact(g.node("db1")), 12.9);
}

TEST_F(ExampleNetworkHarm, LongestPathImpactIs52_2) {
  // aim_ap1 = 10.0 + 12.9 + 16.4 + 12.9 = 52.2 (Sec. III-C).
  const auto paths = before_.attack_paths();
  double best = 0.0;
  for (const auto& p : paths) best = std::max(best, p.impact);
  EXPECT_DOUBLE_EQ(best, 52.2);
}

TEST_F(ExampleNetworkHarm, TableTwoBeforePatch) {
  const hm::SecurityMetrics m = before_.evaluate();
  EXPECT_DOUBLE_EQ(m.attack_impact, 52.2);               // paper: 52.2
  EXPECT_DOUBLE_EQ(m.attack_success_probability, 1.0);   // paper: 1.0
  EXPECT_EQ(m.attack_paths, 8u);                         // paper: 8
  EXPECT_EQ(m.entry_points, 3u);                         // paper: 3
  // Paper reports 25; summing Table I per server gives 26 (documented
  // deviation #1 in DESIGN.md).
  EXPECT_EQ(m.exploitable_vulnerabilities, 26u);
}

TEST_F(ExampleNetworkHarm, TableTwoAfterPatch) {
  const hm::SecurityMetrics m = after_.evaluate();
  EXPECT_DOUBLE_EQ(m.attack_impact, 42.2);  // paper: 42.2
  EXPECT_EQ(m.exploitable_vulnerabilities, 11u);  // paper: 11
  EXPECT_EQ(m.attack_paths, 4u);                  // paper: 4
  EXPECT_EQ(m.entry_points, 2u);                  // paper: 2
  // Our path-aggregation formula yields 0.217 (paper reports 0.265 from a
  // formula in refs [20][21]; documented deviation #2).
  const double asp_path = 0.39 * 0.39 * 0.39;
  EXPECT_NEAR(m.attack_success_probability, 1.0 - std::pow(1.0 - asp_path, 4.0), 1e-12);
}

TEST_F(ExampleNetworkHarm, DnsDropsOutAfterPatch) {
  const auto& g = after_.graph();
  EXPECT_FALSE(after_.attackable(g.node("dns1")));
  EXPECT_TRUE(after_.attackable(g.node("web1")));
  EXPECT_TRUE(after_.attackable(g.node("web2")));
  // After-patch paths must all start at a web server and have length 3.
  for (const auto& p : after_.attack_paths()) {
    ASSERT_EQ(p.nodes.size(), 3u);
    const std::string first = g.name(p.nodes.front());
    EXPECT_TRUE(first == "web1" || first == "web2") << first;
  }
}

TEST_F(ExampleNetworkHarm, AfterPatchNodeImpactsUnchangedForSurvivors) {
  const auto& g = after_.graph();
  // AND(v4, v5) keeps the web/app impact at 12.9/16.4 (Table II's AIM 42.2).
  EXPECT_DOUBLE_EQ(after_.node_impact(g.node("web1")), 12.9);
  EXPECT_DOUBLE_EQ(after_.node_impact(g.node("app1")), 16.4);
  EXPECT_DOUBLE_EQ(after_.node_impact(g.node("db1")), 12.9);
  EXPECT_DOUBLE_EQ(after_.node_probability(g.node("web1")), 0.39);
  EXPECT_DOUBLE_EQ(after_.node_probability(g.node("app1")), 0.39);
  EXPECT_DOUBLE_EQ(after_.node_probability(g.node("db1")), 0.39);
}

TEST_F(ExampleNetworkHarm, PatchImprovesEveryMetric) {
  const hm::SecurityMetrics b = before_.evaluate();
  const hm::SecurityMetrics a = after_.evaluate();
  EXPECT_LT(a.attack_impact, b.attack_impact);
  EXPECT_LT(a.attack_success_probability, b.attack_success_probability);
  EXPECT_LT(a.exploitable_vulnerabilities, b.exploitable_vulnerabilities);
  EXPECT_LT(a.attack_paths, b.attack_paths);
  EXPECT_LT(a.entry_points, b.entry_points);
}

TEST(Harm, TruncatedEvaluationIsObservableLowerBound) {
  // Example network (1 DNS + 2 WEB + 2 APP + 1 DB): 2*2 + 2*2 = 8 paths.
  // The cap counts replica-group sequences: dns-web-app-db, then web-app-db,
  // each standing for 4 instance paths.
  const hm::Harm model = ent::example_network().build_harm();
  const hm::SecurityMetrics exact = model.evaluate();
  ASSERT_EQ(exact.attack_paths, 8u);
  EXPECT_EQ(exact.truncated_paths, 0u);

  const hm::SecurityMetrics capped = model.evaluate(hm::PathEnumerationOptions{1, true});
  EXPECT_EQ(capped.attack_paths, 4u);
  EXPECT_EQ(capped.truncated_paths, 4u);  // exact total stays observable: 4 + 4 = 8.
  // AIM/ASP never decrease with more paths: the capped values are lower bounds.
  EXPECT_LE(capped.attack_impact, exact.attack_impact);
  EXPECT_LE(capped.attack_success_probability, exact.attack_success_probability);
  // NoEV counts vulnerabilities on servers, not paths — unaffected by the cap.
  EXPECT_EQ(capped.exploitable_vulnerabilities, exact.exploitable_vulnerabilities);
  // Without truncation the cap throws; at the sequence count it is exact.
  EXPECT_THROW((void)model.evaluate(hm::PathEnumerationOptions{1, false}), std::runtime_error);
  EXPECT_EQ(model.evaluate(hm::PathEnumerationOptions{2, false}).attack_paths, 8u);
}

TEST(Harm, PathClassesGroupByRoleSignature) {
  const hm::Harm model = ent::example_network().build_harm();
  const auto label = [&model](hm::GraphNodeId id) {
    std::string name = model.graph().name(id);
    while (!name.empty() && std::isdigit(static_cast<unsigned char>(name.back())) != 0) {
      name.pop_back();
    }
    return name;
  };
  const std::vector<hm::PathClass> classes = hm::aggregate_path_classes(model, label);

  // The 3-tier policy yields exactly two role signatures, in canonical
  // (lexicographic) order, splitting the 8 instance paths 4/4.
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].name(), "dns-web-app-db");
  EXPECT_EQ(classes[1].name(), "web-app-db");
  EXPECT_EQ(classes[0].instance_paths, 4u);
  EXPECT_EQ(classes[1].instance_paths, 4u);

  // Class metrics recompose from the instance paths: success treats members
  // as independent alternatives, impact takes the worst member.
  const std::vector<hm::AttackPath> paths = model.attack_paths();
  for (const hm::PathClass& cls : classes) {
    double miss = 1.0;
    double worst = 0.0;
    for (const hm::AttackPath& path : paths) {
      if (path.nodes.size() != cls.signature.size()) continue;
      miss *= 1.0 - path.probability;
      worst = std::max(worst, path.impact);
    }
    EXPECT_NEAR(cls.success_probability, 1.0 - miss, 1e-12);
    EXPECT_DOUBLE_EQ(cls.max_impact, worst);
  }

  // Effort-weighted exposure is the linear coupling term; size mismatch throws.
  const double exposure = hm::weighted_exposure(classes, {0.25, 0.75});
  EXPECT_NEAR(exposure,
              0.25 * classes[0].success_probability + 0.75 * classes[1].success_probability,
              1e-15);
  EXPECT_THROW((void)hm::weighted_exposure(classes, {1.0}), std::invalid_argument);
}

// ---------- replica groups: refusals ----------------------------------------

namespace {

/// attacker -> a1, a2, a3 -> t: three structurally equivalent servers.
struct Diamond {
  hm::GraphNodeId attacker, a1, a2, a3, t;
  hm::AttackGraph graph;
};

Diamond diamond() {
  Diamond d;
  d.attacker = d.graph.add_node("attacker");
  d.a1 = d.graph.add_node("a1");
  d.a2 = d.graph.add_node("a2");
  d.a3 = d.graph.add_node("a3");
  d.t = d.graph.add_node("t");
  d.graph.set_attacker(d.attacker);
  d.graph.add_target(d.t);
  for (hm::GraphNodeId a : {d.a1, d.a2, d.a3}) {
    d.graph.add_edge(d.attacker, a);
    d.graph.add_edge(a, d.t);
  }
  return d;
}

hm::AttackTree leaf_tree() { return hm::make_or_tree({vuln("v", "AV:N/AC:M/Au:N/C:P/I:N/A:N")}); }

/// A chain attacker -> G1 -> ... -> G`groups` of `size`-member replica
/// groups, the last group the targets; then `tails` singleton targets
/// reached from the last group when `tails` > 0.
hm::Harm chain_of_groups(std::size_t groups, std::size_t size, std::size_t tails) {
  // Appending, not "g" + std::to_string(n): GCC 12 misreports that as
  // -Wrestrict at -O3.
  const auto name = [](char prefix, std::size_t n) {
    std::string out(1, prefix);
    out += std::to_string(n);
    return out;
  };
  hm::AttackGraph g;
  g.set_attacker(g.add_node("attacker"));
  std::vector<std::vector<hm::GraphNodeId>> members(groups);
  std::vector<hm::GraphNodeId> previous{g.attacker()};
  for (std::size_t i = 0; i < groups; ++i) {
    for (std::size_t j = 0; j < size; ++j) {
      members[i].push_back(g.add_node(name('g', i * size + j)));
    }
    for (hm::GraphNodeId from : previous) {
      for (hm::GraphNodeId to : members[i]) g.add_edge(from, to);
    }
    previous = members[i];
  }
  std::vector<hm::GraphNodeId> tail_nodes;
  for (std::size_t i = 0; i < tails; ++i) {
    tail_nodes.push_back(g.add_node(name('t', i)));
    for (hm::GraphNodeId from : previous) g.add_edge(from, tail_nodes.back());
  }
  for (hm::GraphNodeId t : tails > 0 ? tail_nodes : previous) g.add_target(t);
  hm::Harm model(std::move(g));
  for (const std::vector<hm::GraphNodeId>& group : members) model.attach_replicas(group, leaf_tree());
  for (hm::GraphNodeId t : tail_nodes) model.attach_tree(t, leaf_tree());
  return model;
}

}  // namespace

TEST(HarmReplicaGroups, EquivalentMembersShareOneTree) {
  Diamond d = diamond();
  hm::Harm model(std::move(d.graph));
  model.attach_replicas(std::vector<hm::GraphNodeId>{d.a3, d.a1, d.a2}, leaf_tree());
  model.attach_tree(d.t, leaf_tree());
  EXPECT_EQ(model.replicas(d.a2).size(), 3u);
  EXPECT_EQ(model.replicas(d.t).size(), 1u);
  EXPECT_TRUE(model.replicas(d.attacker).empty());
  EXPECT_TRUE(model.attackable(d.a1));
  EXPECT_EQ(&model.tree(d.a1), &model.tree(d.a3));
  const hm::SecurityMetrics m = model.evaluate();
  EXPECT_EQ(m.attack_paths, 3u);
  EXPECT_EQ(m.entry_points, 3u);
  EXPECT_EQ(m.exploitable_vulnerabilities, 4u);
  // Re-declaring the same member set replaces the shared tree.
  model.attach_replicas(std::vector<hm::GraphNodeId>{d.a1, d.a2, d.a3}, hm::AttackTree{});
  EXPECT_FALSE(model.attackable(d.a2));
  EXPECT_EQ(model.evaluate().attack_paths, 0u);
}

TEST(HarmReplicaGroups, RefusesMembersWithDifferentSuccessors) {
  Diamond d = diamond();
  const hm::GraphNodeId extra = d.graph.add_node("extra");
  d.graph.add_target(extra);
  d.graph.add_edge(d.a2, extra);
  hm::Harm model(std::move(d.graph));
  EXPECT_THROW(model.attach_replicas(std::vector<hm::GraphNodeId>{d.a1, d.a2}, leaf_tree()),
               std::invalid_argument);
}

TEST(HarmReplicaGroups, RefusesMembersWithDifferentPredecessors) {
  Diamond d = diamond();
  d.graph.add_edge(d.a3, d.a2);  // a2 has a predecessor a1 lacks
  hm::Harm model(std::move(d.graph));
  EXPECT_THROW(model.attach_replicas(std::vector<hm::GraphNodeId>{d.a1, d.a2}, leaf_tree()),
               std::invalid_argument);
}

TEST(HarmReplicaGroups, RefusesMixedTargetFlags) {
  Diamond d = diamond();
  d.graph.add_target(d.a1);
  hm::Harm model(std::move(d.graph));
  EXPECT_THROW(model.attach_replicas(std::vector<hm::GraphNodeId>{d.a1, d.a2}, leaf_tree()),
               std::invalid_argument);
}

TEST(HarmReplicaGroups, RefusesTheAttacker) {
  Diamond d = diamond();
  hm::Harm model(std::move(d.graph));
  EXPECT_THROW(model.attach_replicas(std::vector<hm::GraphNodeId>{d.attacker, d.a1}, leaf_tree()),
               std::invalid_argument);
}

TEST(HarmReplicaGroups, RefusesAnEdgeInsideTheGroup) {
  Diamond d = diamond();
  d.graph.add_edge(d.a1, d.a2);
  d.graph.add_edge(d.a2, d.a1);
  hm::Harm model(std::move(d.graph));
  EXPECT_THROW(model.attach_replicas(std::vector<hm::GraphNodeId>{d.a1, d.a2}, leaf_tree()),
               std::invalid_argument);
}

TEST(HarmReplicaGroups, RefusesANodeInTwoGroups) {
  Diamond d = diamond();
  hm::Harm model(std::move(d.graph));
  model.attach_replicas(std::vector<hm::GraphNodeId>{d.a1, d.a2}, leaf_tree());
  EXPECT_THROW(model.attach_replicas(std::vector<hm::GraphNodeId>{d.a2, d.a3}, leaf_tree()),
               std::invalid_argument);
  EXPECT_EQ(model.replicas(d.a3).size(), 0u);  // the refused declaration left no trace
}

TEST(HarmReplicaGroups, RefusesAttachTreeOnOneMemberOfALargerGroup) {
  Diamond d = diamond();
  hm::Harm model(std::move(d.graph));
  model.attach_replicas(std::vector<hm::GraphNodeId>{d.a1, d.a2}, leaf_tree());
  EXPECT_THROW(model.attach_tree(d.a1, hm::AttackTree{}), std::invalid_argument);
  EXPECT_TRUE(model.attackable(d.a1));
}

TEST(HarmReplicaGroups, RefusesEmptyDuplicateAndUnknownMembers) {
  Diamond d = diamond();
  hm::Harm model(std::move(d.graph));
  EXPECT_THROW(model.attach_replicas(std::vector<hm::GraphNodeId>{}, leaf_tree()),
               std::invalid_argument);
  EXPECT_THROW(model.attach_replicas(std::vector<hm::GraphNodeId>{d.a1, d.a1}, leaf_tree()),
               std::invalid_argument);
  EXPECT_THROW(model.attach_replicas(std::vector<hm::GraphNodeId>{d.a1, 99}, leaf_tree()),
               std::out_of_range);
}

TEST(HarmReplicaGroups, RefusesAPathMultiplicityPastSizeT) {
  // 16 groups of 16 in a chain: one role path standing for 16^16 = 2^64
  // instance paths, one more than size_t holds.
  const auto start = std::chrono::steady_clock::now();
  const hm::Harm model = chain_of_groups(16, 16, 0);
  EXPECT_THROW((void)model.evaluate(), std::overflow_error);
  const auto label = [](hm::GraphNodeId) { return std::string("x"); };
  EXPECT_THROW((void)hm::aggregate_path_classes(model, label), std::overflow_error);
  EXPECT_THROW((void)model.evaluate(hm::PathEnumerationOptions{0, true}), std::overflow_error);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(), 1.0);
  // One group fewer fits: 16^15 = 2^60.
  EXPECT_EQ(chain_of_groups(15, 16, 0).evaluate().attack_paths, std::size_t{1} << 60);
}

TEST(HarmReplicaGroups, RefusesAPathTotalPastSizeT) {
  // 15 groups of 16, then 16 singleton targets: 16 role paths of 2^60
  // instance paths each, 2^64 in total; every multiplicity fits.
  const auto start = std::chrono::steady_clock::now();
  const hm::Harm model = chain_of_groups(15, 16, 16);
  EXPECT_THROW((void)model.evaluate(), std::overflow_error);
  EXPECT_THROW((void)model.evaluate(hm::PathEnumerationOptions{1, true}), std::overflow_error);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(), 1.0);
  // 15 targets fit: 15 * 2^60.
  EXPECT_EQ(chain_of_groups(15, 16, 15).evaluate().attack_paths, std::size_t{15} << 60);
}
