// Attack-path walk tests: the streaming HARM folds (Harm::evaluate,
// aggregate_path_classes) and the path collectors against a materializing
// oracle, bit for bit, on seeded random graphs; a 100k-node chain that a
// recursive DFS cannot walk; and a work counter on the class labels.
//
// The oracle is the straightforward algorithm: a recursive DFS materializes
// every path, each path's impact and probability are folded from its nodes'
// attack trees, and the metrics and classes are folded from that list.  It
// shares no code with the library's walk.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "patchsec/enterprise/network.hpp"
#include "patchsec/harm/harm.hpp"
#include "patchsec/harm/path_classes.hpp"

namespace hm = patchsec::harm;
namespace ent = patchsec::enterprise;

namespace {

// ---------------------------------------------------------------------------
// Materializing oracle
// ---------------------------------------------------------------------------

struct OraclePaths {
  std::vector<hm::AttackPath> paths;
  hm::PathEnumerationStats stats;
};

/// Every simple attacker -> target path in DFS order, materialized; throws
/// std::runtime_error past a non-truncating cap.
OraclePaths oracle_attack_paths(const hm::Harm& model, const hm::PathEnumerationOptions& options) {
  const hm::AttackGraph& g = model.graph();
  std::vector<bool> is_target(g.node_count(), false);
  for (hm::GraphNodeId t : g.targets()) is_target[t] = true;
  std::vector<bool> on_path(g.node_count(), false);
  std::vector<hm::GraphNodeId> current;
  std::vector<std::vector<hm::GraphNodeId>> node_lists;
  OraclePaths out;

  const std::function<void(hm::GraphNodeId)> dfs = [&](hm::GraphNodeId n) {
    if (is_target[n]) {
      ++out.stats.enumerated;
      if (node_lists.size() >= options.max_paths) {
        if (!options.truncate) throw std::runtime_error("oracle: max_paths exceeded");
        ++out.stats.truncated;
        return;
      }
      node_lists.push_back(current);
      return;
    }
    for (hm::GraphNodeId next : g.successors(n)) {
      if (on_path[next] || !model.attackable(next)) continue;
      on_path[next] = true;
      current.push_back(next);
      dfs(next);
      current.pop_back();
      on_path[next] = false;
    }
  };
  on_path[g.attacker()] = true;
  dfs(g.attacker());

  for (std::vector<hm::GraphNodeId>& nodes : node_lists) {
    hm::AttackPath path;
    path.impact = 0.0;
    path.probability = 1.0;
    for (hm::GraphNodeId n : nodes) {
      path.impact += model.node_impact(n);
      path.probability *= model.node_probability(n);
    }
    path.nodes = std::move(nodes);
    out.paths.push_back(std::move(path));
  }
  return out;
}

hm::SecurityMetrics oracle_evaluate(const hm::Harm& model,
                                    const hm::PathEnumerationOptions& options) {
  const OraclePaths walk = oracle_attack_paths(model, options);
  hm::SecurityMetrics m;
  m.attack_paths = walk.paths.size();
  m.truncated_paths = walk.stats.truncated;
  double miss_all = 1.0;
  std::set<hm::GraphNodeId> entries;
  for (const hm::AttackPath& p : walk.paths) {
    m.attack_impact = std::max(m.attack_impact, p.impact);
    miss_all *= (1.0 - p.probability);
    if (!p.nodes.empty()) entries.insert(p.nodes.front());
  }
  m.attack_success_probability = walk.paths.empty() ? 0.0 : 1.0 - miss_all;
  m.entry_points = entries.size();
  for (hm::GraphNodeId n = 0; n < model.graph().node_count(); ++n) {
    if (n == model.graph().attacker()) continue;
    try {
      m.exploitable_vulnerabilities += model.tree(n).exploitable_vulnerability_count();
    } catch (const std::out_of_range&) {
      // no tree attached: nothing to count
    }
  }
  return m;
}

std::vector<hm::PathClass> oracle_path_classes(
    const hm::Harm& model, const std::function<std::string(hm::GraphNodeId)>& label,
    const hm::PathEnumerationOptions& options, hm::PathEnumerationStats* stats) {
  const OraclePaths walk = oracle_attack_paths(model, options);
  if (stats != nullptr) *stats = walk.stats;
  std::map<std::vector<std::string>, hm::PathClass> classes;
  for (const hm::AttackPath& path : walk.paths) {
    std::vector<std::string> signature;
    for (hm::GraphNodeId n : path.nodes) signature.push_back(label(n));
    hm::PathClass& cls = classes[signature];
    if (cls.instance_paths == 0) cls.signature = signature;
    ++cls.instance_paths;
    cls.max_impact = std::max(cls.max_impact, path.impact);
    cls.success_probability = 1.0 - (1.0 - cls.success_probability) * (1.0 - path.probability);
    cls.total_risk += path.impact * path.probability;
  }
  std::vector<hm::PathClass> out;
  for (auto& [signature, cls] : classes) out.push_back(std::move(cls));
  return out;
}

// ---------------------------------------------------------------------------
// Bitwise comparisons
// ---------------------------------------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_identical(const hm::SecurityMetrics& got, const hm::SecurityMetrics& want,
                      const std::string& where) {
  EXPECT_EQ(bits(got.attack_impact), bits(want.attack_impact)) << where;
  EXPECT_EQ(bits(got.attack_success_probability), bits(want.attack_success_probability))
      << where;
  EXPECT_EQ(got.exploitable_vulnerabilities, want.exploitable_vulnerabilities) << where;
  EXPECT_EQ(got.attack_paths, want.attack_paths) << where;
  EXPECT_EQ(got.entry_points, want.entry_points) << where;
  EXPECT_EQ(got.truncated_paths, want.truncated_paths) << where;
}

void expect_identical(const std::vector<hm::PathClass>& got,
                      const std::vector<hm::PathClass>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c].signature, want[c].signature) << where;
    EXPECT_EQ(got[c].instance_paths, want[c].instance_paths) << where;
    EXPECT_EQ(bits(got[c].max_impact), bits(want[c].max_impact)) << where;
    EXPECT_EQ(bits(got[c].success_probability), bits(want[c].success_probability)) << where;
    EXPECT_EQ(bits(got[c].total_risk), bits(want[c].total_risk)) << where;
  }
}

void expect_identical(const std::vector<hm::AttackPath>& got,
                      const std::vector<hm::AttackPath>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t p = 0; p < got.size(); ++p) {
    EXPECT_EQ(got[p].nodes, want[p].nodes) << where;
    EXPECT_EQ(bits(got[p].impact), bits(want[p].impact)) << where;
    EXPECT_EQ(bits(got[p].probability), bits(want[p].probability)) << where;
  }
}

void expect_stats(const hm::PathEnumerationStats& got, const hm::PathEnumerationStats& want,
                  const std::string& where) {
  EXPECT_EQ(got.enumerated, want.enumerated) << where;
  EXPECT_EQ(got.truncated, want.truncated) << where;
}

/// Runs every library path entry point and its oracle under `options` and
/// requires bit-identical answers, or the same std::runtime_error from both.
void expect_matches_oracle(const hm::Harm& model,
                           const std::function<std::string(hm::GraphNodeId)>& label,
                           const hm::PathEnumerationOptions& options, const std::string& where) {
  OraclePaths oracle;
  try {
    oracle = oracle_attack_paths(model, options);
  } catch (const std::runtime_error&) {
    EXPECT_THROW((void)model.evaluate(options), std::runtime_error) << where;
    EXPECT_THROW((void)hm::aggregate_path_classes(model, label, options), std::runtime_error)
        << where;
    EXPECT_THROW((void)model.attack_paths(options), std::runtime_error) << where;
    return;
  }
  expect_identical(model.evaluate(options), oracle_evaluate(model, options), where);

  hm::PathEnumerationStats got_stats;
  hm::PathEnumerationStats want_stats;
  expect_identical(hm::aggregate_path_classes(model, label, options, &got_stats),
                   oracle_path_classes(model, label, options, &want_stats), where);
  expect_stats(got_stats, want_stats, where);

  hm::PathEnumerationStats path_stats;
  expect_identical(model.attack_paths(options, &path_stats), oracle.paths, where);
  expect_stats(path_stats, oracle.stats, where);

  std::vector<bool> mask(model.graph().node_count());
  for (hm::GraphNodeId n = 0; n < mask.size(); ++n) mask[n] = model.attackable(n);
  hm::PathEnumerationStats graph_stats;
  const auto node_lists = model.graph().enumerate_attack_paths(mask, options, &graph_stats);
  ASSERT_EQ(node_lists.size(), oracle.paths.size()) << where;
  for (std::size_t p = 0; p < node_lists.size(); ++p) {
    EXPECT_EQ(node_lists[p], oracle.paths[p].nodes) << where;
  }
  expect_stats(graph_stats, oracle.stats, where);
}

// ---------------------------------------------------------------------------
// Seeded random HARMs
// ---------------------------------------------------------------------------

std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t x = state;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t below(std::uint64_t& state, std::size_t n) { return splitmix(state) % n; }

patchsec::nvd::Vulnerability vuln(const std::string& id, const char* vector) {
  patchsec::nvd::Vulnerability v;
  v.cve_id = id;
  v.product = "test";
  v.vector = patchsec::cvss::CvssV2Vector::parse(vector);
  v.remotely_exploitable = true;
  return v;
}

constexpr const char* kVectors[] = {
    "AV:N/AC:L/Au:N/C:C/I:C/A:C", "AV:N/AC:M/Au:N/C:P/I:N/A:N", "AV:L/AC:L/Au:N/C:C/I:C/A:C",
    "AV:N/AC:H/Au:S/C:P/I:P/A:N", "AV:A/AC:M/Au:N/C:N/I:P/A:C", "AV:N/AC:L/Au:N/C:P/I:P/A:P"};

/// A random HARM: 4..12 nodes, sparse random edges (cycles and back edges
/// included), 1..3 targets, and per server either no tree, an infeasible
/// tree, or an OR tree of 1..3 leaves with an optional AND pair.  With
/// `attacker_is_target` the attacker is one of the targets.
hm::Harm random_harm(std::uint64_t& state, bool attacker_is_target) {
  hm::AttackGraph g;
  const std::size_t n = 4 + below(state, 9);
  for (std::size_t i = 0; i < n; ++i) g.add_node("n" + std::to_string(i));
  const hm::GraphNodeId attacker = below(state, n);
  g.set_attacker(attacker);
  for (hm::GraphNodeId from = 0; from < n; ++from) {
    for (hm::GraphNodeId to = 0; to < n; ++to) {
      if (from != to && below(state, 100) < 35) g.add_edge(from, to);
    }
  }
  if (attacker_is_target) g.add_target(attacker);
  const std::size_t targets = 1 + below(state, 3);
  for (std::size_t t = 0; t < targets; ++t) g.add_target(below(state, n));

  hm::Harm model(std::move(g));
  std::size_t cve = 0;
  const auto next_vuln = [&] {
    return vuln("CVE-" + std::to_string(cve++), kVectors[below(state, std::size(kVectors))]);
  };
  for (hm::GraphNodeId node = 0; node < n; ++node) {
    if (node == attacker) continue;
    const std::size_t kind = below(state, 10);
    if (kind == 0) continue;  // no tree: unattackable
    if (kind == 1) {
      model.attach_tree(node, hm::AttackTree{});  // infeasible: unattackable
      continue;
    }
    std::vector<patchsec::nvd::Vulnerability> leaves;
    const std::size_t leaf_count = 1 + below(state, 3);
    for (std::size_t l = 0; l < leaf_count; ++l) leaves.push_back(next_vuln());
    std::vector<std::vector<patchsec::nvd::Vulnerability>> and_groups;
    if (below(state, 2) == 0) and_groups.push_back({next_vuln(), next_vuln()});
    model.attach_tree(node, hm::make_or_tree(leaves, and_groups));
  }
  return model;
}

std::string role_label(const std::string& node_name) {
  std::size_t end = node_name.size();
  while (end > 0 && node_name[end - 1] >= '0' && node_name[end - 1] <= '9') --end;
  return node_name.substr(0, end);
}

hm::Harm uniform_enterprise_harm(unsigned k) {
  ent::RedundancyDesign design;
  design.counts = {k, k, k, k};
  return ent::example_network().with_design(design).build_harm();
}

}  // namespace

TEST(HarmPaths, SeededRandomGraphsMatchTheOracleBitForBit) {
  std::uint64_t state = 0x5EEDC0DE17ull;
  std::size_t with_paths = 0;
  std::size_t with_long_paths = 0;
  std::size_t with_cycles = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const bool attacker_is_target = trial % 25 == 0;
    const hm::Harm model = random_harm(state, attacker_is_target);
    // Few distinct labels, so classes collect several instance paths.
    const std::size_t alphabet = 1 + below(state, 3);
    const auto label = [&model, alphabet](hm::GraphNodeId id) {
      return std::string(1, static_cast<char>('a' + id % alphabet));
    };
    const std::string where = "trial " + std::to_string(trial);

    const OraclePaths exact = oracle_attack_paths(model, hm::PathEnumerationOptions{});
    const std::size_t total = exact.stats.enumerated;
    with_paths += total > 0 ? 1 : 0;
    with_long_paths += std::any_of(exact.paths.begin(), exact.paths.end(),
                                   [](const hm::AttackPath& p) { return p.nodes.size() >= 3; })
                           ? 1
                           : 0;
    const hm::AttackGraph& g = model.graph();
    bool cyclic = false;
    for (hm::GraphNodeId a = 0; a < g.node_count(); ++a) {
      for (hm::GraphNodeId b : g.successors(a)) {
        const auto& back = g.successors(b);
        cyclic = cyclic || std::find(back.begin(), back.end(), a) != back.end();
      }
    }
    with_cycles += cyclic ? 1 : 0;

    expect_matches_oracle(model, label, hm::PathEnumerationOptions{}, where + " uncapped");
    // Caps below, at and above the exact total, truncating and throwing.
    for (const std::size_t cap : {std::size_t{0}, total / 2, total > 0 ? total - 1 : 0, total,
                                  total + 1}) {
      for (const bool truncate : {true, false}) {
        expect_matches_oracle(model, label, hm::PathEnumerationOptions{cap, truncate},
                              where + " cap " + std::to_string(cap) +
                                  (truncate ? " truncate" : " throw"));
      }
    }
  }
  // The sweep must exercise real work, not only empty graphs.
  EXPECT_GT(with_paths, 150u);
  EXPECT_GT(with_long_paths, 50u);
  EXPECT_GT(with_cycles, 150u);
}

TEST(HarmPaths, AttackerThatIsATargetYieldsTheEmptyPath) {
  hm::AttackGraph g;
  const auto attacker = g.add_node("attacker");
  const auto server = g.add_node("server");
  g.set_attacker(attacker);
  g.add_target(attacker);
  g.add_target(server);
  g.add_edge(attacker, server);
  hm::Harm model(std::move(g));
  model.attach_tree(server, hm::make_or_tree({vuln("v", "AV:N/AC:L/Au:N/C:C/I:C/A:C")}));

  // The walk stops at the attacker: one empty path, no entry point.
  const hm::SecurityMetrics m = model.evaluate();
  EXPECT_EQ(m.attack_paths, 1u);
  EXPECT_EQ(m.entry_points, 0u);
  EXPECT_EQ(m.attack_impact, 0.0);
  EXPECT_EQ(m.attack_success_probability, 1.0);
  const auto label = [](hm::GraphNodeId) { return std::string("x"); };
  const std::vector<hm::PathClass> classes = hm::aggregate_path_classes(model, label);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_TRUE(classes[0].signature.empty());
  expect_matches_oracle(model, label, hm::PathEnumerationOptions{}, "attacker target");
  expect_matches_oracle(model, label, hm::PathEnumerationOptions{0, true}, "attacker target cap");
}

TEST(HarmPaths, EnterpriseHarmsMatchTheOracleBitForBit) {
  // The game's inputs: uniform designs before and after the critical patch,
  // labelled by role.
  for (unsigned k : {1u, 2u, 3u, 4u}) {
    const hm::Harm before = uniform_enterprise_harm(k);
    const hm::Harm after = before.after_critical_patch();
    for (const hm::Harm* model : {&before, &after}) {
      const auto label = [model](hm::GraphNodeId id) {
        return role_label(model->graph().name(id));
      };
      const std::string where = "k=" + std::to_string(k);
      expect_matches_oracle(*model, label, hm::PathEnumerationOptions{}, where);
      expect_matches_oracle(*model, label, hm::PathEnumerationOptions{7, true}, where + " cap 7");
    }
  }
}

TEST(HarmPaths, HundredThousandNodeChainIsWalkedWithoutRecursion) {
  // attacker -> s1 -> ... -> s99999 (target): one path of 99,999 nodes.  A
  // recursive DFS overflows an 8 MB stack here; building the graph needs the
  // O(1) name index (a linear duplicate scan would be quadratic).
  constexpr std::size_t kNodes = 100'000;
  hm::AttackGraph g;
  g.set_attacker(g.add_node("attacker"));
  for (std::size_t i = 1; i < kNodes; ++i) {
    std::string name(1, 's');
    name += std::to_string(i);
    const hm::GraphNodeId s = g.add_node(std::move(name));
    g.add_edge(s - 1, s);
  }
  g.add_target(kNodes - 1);
  EXPECT_EQ(g.node("s54321"), 54321u);

  const std::vector<std::vector<hm::GraphNodeId>> paths =
      g.enumerate_attack_paths(std::vector<bool>(kNodes, true));
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].size(), kNodes - 1);
  EXPECT_EQ(paths[0].back(), kNodes - 1);

  hm::Harm model(std::move(g));
  const hm::AttackTree tree = hm::make_or_tree({vuln("v", "AV:N/AC:M/Au:N/C:P/I:N/A:N")});
  for (hm::GraphNodeId s = 1; s < kNodes; ++s) model.attach_tree(s, tree);

  const hm::SecurityMetrics m = model.evaluate();
  EXPECT_EQ(m.attack_paths, 1u);
  EXPECT_EQ(m.entry_points, 1u);
  EXPECT_EQ(m.exploitable_vulnerabilities, kNodes - 1);
  double impact = 0.0;
  for (std::size_t s = 1; s < kNodes; ++s) impact += model.node_impact(s);
  EXPECT_EQ(bits(m.attack_impact), bits(impact));

  const auto label = [](hm::GraphNodeId) { return std::string("s"); };
  hm::PathEnumerationStats stats;
  const std::vector<hm::PathClass> classes =
      hm::aggregate_path_classes(model, label, {}, &stats);
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].signature.size(), kNodes - 1);
  EXPECT_EQ(classes[0].instance_paths, 1u);
  EXPECT_EQ(bits(classes[0].max_impact), bits(impact));
  EXPECT_EQ(stats.enumerated, 1u);
  EXPECT_EQ(stats.truncated, 0u);
}

TEST(HarmPaths, ClassLabelsAreComputedOncePerNode) {
  // Work-counter guard: labelling is O(nodes), not O(paths x path length).
  // A k = 6 design has 6^4 + 6^3 = 1,512 paths over 25 graph nodes.
  const hm::Harm model = uniform_enterprise_harm(6);
  std::size_t calls = 0;
  const auto label = [&model, &calls](hm::GraphNodeId id) {
    ++calls;
    return role_label(model.graph().name(id));
  };
  const std::vector<hm::PathClass> classes = hm::aggregate_path_classes(model, label);
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].instance_paths + classes[1].instance_paths, 6u * 6u * 6u * 6u + 6u * 6u * 6u);
  EXPECT_EQ(calls, model.graph().node_count());
}
