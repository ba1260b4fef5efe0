// Attack-path walk tests: the streaming HARM folds (Harm::evaluate,
// aggregate_path_classes) and the path collectors against a materializing
// oracle: bit for bit on graphs of singleton replica groups (seeded random
// graphs), and on replicated graphs (enterprise designs, a role-cycle
// policy, seeded random graphs with cloned replica groups) exactly on every
// count and AIM and within 1e-12 on the probability and risk sums, which the
// quotient folds as one m-weighted term per group sequence.  Also a
// 100k-node chain that a recursive DFS cannot walk, a work counter on the
// class labels, and k = 50 through Session.
//
// The oracle is the straightforward algorithm: a recursive DFS materializes
// every instance path, each path's impact and probability are folded from
// its nodes' attack trees, and the metrics and classes are folded from that
// list (ASP and class success as -expm1(sum of log1p(-p)), the library's
// definition).  It shares no code with the library's walk and knows nothing
// of replica groups.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "patchsec/core/session.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/harm/harm.hpp"
#include "patchsec/harm/path_classes.hpp"

namespace hm = patchsec::harm;
namespace ent = patchsec::enterprise;
namespace core = patchsec::core;

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
  double log_miss = 0.0;
  std::set<hm::GraphNodeId> entries;
  for (const hm::AttackPath& p : walk.paths) {
    m.attack_impact = std::max(m.attack_impact, p.impact);
    log_miss += std::log1p(-p.probability);
    if (!p.nodes.empty()) entries.insert(p.nodes.front());
  }
  m.attack_success_probability = walk.paths.empty() ? 0.0 : -std::expm1(log_miss);
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
  std::map<std::vector<std::string>, double> log_miss;
  for (const hm::AttackPath& path : walk.paths) {
    std::vector<std::string> signature;
    for (hm::GraphNodeId n : path.nodes) signature.push_back(label(n));
    hm::PathClass& cls = classes[signature];
    if (cls.instance_paths == 0) cls.signature = signature;
    ++cls.instance_paths;
    cls.max_impact = std::max(cls.max_impact, path.impact);
    log_miss[signature] += std::log1p(-path.probability);
    cls.total_risk += path.impact * path.probability;
  }
  std::vector<hm::PathClass> out;
  for (auto& [signature, cls] : classes) {
    cls.success_probability = -std::expm1(log_miss[signature]);
    out.push_back(std::move(cls));
  }
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
// Replicated graphs: exact counts, 1e-12 sums, caps in group sequences
// ---------------------------------------------------------------------------

using Label = std::function<std::string(hm::GraphNodeId)>;

/// |got - want| <= 1e-12, relative to |want| once it exceeds 1: ASP and class
/// success are probabilities, total_risk sums impacts of up to ~50 per path.
bool within_1e12(double got, double want) {
  return std::abs(got - want) <= 1e-12 * std::max(1.0, std::abs(want));
}

void expect_equivalent(const hm::SecurityMetrics& got, const hm::SecurityMetrics& want,
                       const std::string& where) {
  EXPECT_EQ(bits(got.attack_impact), bits(want.attack_impact)) << where;
  EXPECT_TRUE(within_1e12(got.attack_success_probability, want.attack_success_probability))
      << where << ": ASP " << got.attack_success_probability << " vs "
      << want.attack_success_probability;
  EXPECT_EQ(got.exploitable_vulnerabilities, want.exploitable_vulnerabilities) << where;
  EXPECT_EQ(got.attack_paths, want.attack_paths) << where;
  EXPECT_EQ(got.entry_points, want.entry_points) << where;
  EXPECT_EQ(got.truncated_paths, want.truncated_paths) << where;
}

void expect_equivalent(const std::vector<hm::PathClass>& got,
                       const std::vector<hm::PathClass>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c].signature, want[c].signature) << where;
    EXPECT_EQ(got[c].instance_paths, want[c].instance_paths) << where;
    EXPECT_EQ(bits(got[c].max_impact), bits(want[c].max_impact)) << where;
    EXPECT_TRUE(within_1e12(got[c].success_probability, want[c].success_probability))
        << where << ": class " << c << " success " << got[c].success_probability << " vs "
        << want[c].success_probability;
    EXPECT_TRUE(within_1e12(got[c].total_risk, want[c].total_risk))
        << where << ": class " << c << " risk " << got[c].total_risk << " vs "
        << want[c].total_risk;
  }
}

/// How many sequences the quotient walk visits for `paths`: each node
/// stands for its replica group, split by `label` when one is given.
std::size_t group_sequences(const hm::Harm& model, const std::vector<hm::AttackPath>& paths,
                            const Label* label) {
  std::set<std::vector<std::pair<hm::GraphNodeId, std::string>>> sequences;
  for (const hm::AttackPath& path : paths) {
    std::vector<std::pair<hm::GraphNodeId, std::string>> sequence;
    for (hm::GraphNodeId n : path.nodes) {
      const std::span<const hm::GraphNodeId> group = model.replicas(n);
      sequence.emplace_back(*std::min_element(group.begin(), group.end()),
                            label != nullptr ? (*label)(n) : std::string());
    }
    sequences.insert(std::move(sequence));
  }
  return sequences.size();
}

/// The quotient folds against the instance oracle on a replicated graph:
/// uncapped within 1e-12 (counts and AIM exact); under caps counted in
/// group sequences, exact totals, lower bounds, and the uncapped answer bit
/// for bit once the cap admits every sequence.  The collectors still walk
/// instance paths and match the oracle bit for bit (their caps are the
/// singleton-graph sweep's).
void expect_quotient_matches_oracle(const hm::Harm& model, const Label& label,
                                    const std::string& where) {
  const OraclePaths oracle = oracle_attack_paths(model, hm::PathEnumerationOptions{});
  const std::size_t total = oracle.stats.enumerated;
  const hm::SecurityMetrics exact = model.evaluate();
  expect_equivalent(exact, oracle_evaluate(model, hm::PathEnumerationOptions{}), where);
  hm::PathEnumerationStats class_stats;
  const std::vector<hm::PathClass> classes =
      hm::aggregate_path_classes(model, label, {}, &class_stats);
  expect_equivalent(classes, oracle_path_classes(model, label, {}, nullptr), where);
  expect_stats(class_stats, oracle.stats, where);
  expect_identical(model.attack_paths(), oracle.paths, where);

  const std::size_t sequences = group_sequences(model, oracle.paths, nullptr);
  const std::size_t labelled = group_sequences(model, oracle.paths, &label);
  EXPECT_LE(sequences, labelled) << where;
  for (const std::size_t cap : {std::size_t{0}, std::size_t{1}, sequences > 0 ? sequences - 1 : 0,
                                sequences, labelled, labelled + 1}) {
    const std::string at = where + " cap " + std::to_string(cap);
    if (cap >= sequences) {
      expect_identical(model.evaluate({cap, false}), exact, at);
      expect_identical(model.evaluate({cap, true}), exact, at);
    } else {
      EXPECT_THROW((void)model.evaluate({cap, false}), std::runtime_error) << at;
      const hm::SecurityMetrics capped = model.evaluate({cap, true});
      EXPECT_EQ(capped.attack_paths + capped.truncated_paths, total) << at;
      EXPECT_GE(capped.attack_paths, cap) << at;  // a sequence is >= 1 instance path
      EXPECT_GT(capped.truncated_paths, 0u) << at;
      EXPECT_LE(capped.attack_impact, exact.attack_impact) << at;
      EXPECT_LE(capped.attack_success_probability, exact.attack_success_probability) << at;
      EXPECT_LE(capped.entry_points, exact.entry_points) << at;
      EXPECT_EQ(capped.exploitable_vulnerabilities, exact.exploitable_vulnerabilities) << at;
    }

    hm::PathEnumerationStats stats;
    if (cap >= labelled) {
      expect_identical(hm::aggregate_path_classes(model, label, {cap, false}, &stats), classes,
                       at);
      expect_stats(stats, class_stats, at);
    } else {
      EXPECT_THROW((void)hm::aggregate_path_classes(model, label, {cap, false}),
                   std::runtime_error)
          << at;
      const std::vector<hm::PathClass> capped =
          hm::aggregate_path_classes(model, label, {cap, true}, &stats);
      std::size_t delivered = 0;
      for (const hm::PathClass& cls : capped) delivered += cls.instance_paths;
      EXPECT_EQ(stats.enumerated, total) << at;
      EXPECT_EQ(delivered, total - stats.truncated) << at;
      EXPECT_GE(delivered, cap) << at;
      EXPECT_LE(capped.size(), cap) << at;
    }
  }
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

/// A random HARM of cloned replica groups: a base graph of 4..8 nodes with
/// random edges (cycles included) and 1..2 targets, then every base server
/// cloned into 2..3 members (one in four stays single) that inherit its
/// edges, its target flag and its tree, declared one replica group.
/// Members are added to the graph interleaved, and each member lists its
/// successors in its own shuffled order.  `labels` receives one label per
/// graph node: the base node's letter, except that a member is relabelled
/// 'z' one time in five, which splits its group into classes.
hm::Harm random_replicated_harm(std::uint64_t& state, std::vector<std::string>& labels) {
  const std::size_t n = 4 + below(state, 5);
  const std::size_t attacker = below(state, n);
  std::vector<std::vector<std::size_t>> edges(n);
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      if (from != to && below(state, 100) < 40) edges[from].push_back(to);
    }
  }
  const auto shuffled = [&state](auto items) {
    for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[below(state, i)]);
    return items;
  };

  std::vector<std::size_t> pending;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t copies = v == attacker || below(state, 4) == 0 ? 1 : 2 + below(state, 2);
    pending.insert(pending.end(), copies, v);
  }
  hm::AttackGraph g;
  std::vector<std::vector<hm::GraphNodeId>> members(n);
  labels.clear();
  for (std::size_t v : shuffled(pending)) {
    members[v].push_back(
        g.add_node("n" + std::to_string(v) + "_" + std::to_string(members[v].size())));
    labels.emplace_back(1, below(state, 5) == 0 ? 'z' : static_cast<char>('a' + v % 3));
  }
  g.set_attacker(members[attacker].front());
  for (std::size_t v = 0; v < n; ++v) {
    for (hm::GraphNodeId from : members[v]) {
      for (std::size_t to : shuffled(edges[v])) {
        for (hm::GraphNodeId member : shuffled(members[to])) g.add_edge(from, member);
      }
    }
  }
  const std::size_t targets = 1 + below(state, 2);
  for (std::size_t t = 0; t < targets; ++t) {
    for (hm::GraphNodeId member : members[below(state, n)]) g.add_target(member);
  }

  hm::Harm model(std::move(g));
  std::size_t cve = 0;
  const auto next_vuln = [&] {
    return vuln("CVE-" + std::to_string(cve++), kVectors[below(state, std::size(kVectors))]);
  };
  for (std::size_t v = 0; v < n; ++v) {
    if (v == attacker) continue;
    const std::size_t kind = below(state, 10);
    if (kind == 0) continue;  // no tree: unattackable, no group
    hm::AttackTree tree;      // kind 1: infeasible, an unattackable group
    if (kind > 1) {
      std::vector<patchsec::nvd::Vulnerability> leaves;
      const std::size_t leaf_count = 1 + below(state, 3);
      for (std::size_t l = 0; l < leaf_count; ++l) leaves.push_back(next_vuln());
      tree = hm::make_or_tree(leaves);
    }
    if (members[v].size() == 1 && below(state, 2) == 0) {
      model.attach_tree(members[v].front(), std::move(tree));
    } else {
      model.attach_replicas(members[v], std::move(tree));
    }
  }
  return model;
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

TEST(HarmPaths, PaperPolicyDesignsMatchTheOracle) {
  // The game's inputs: uniform designs before and after the critical patch,
  // labelled by role.  build_harm declares one replica group per role, so
  // the folds walk 2 role sequences (1 after the patch) at every k.
  for (unsigned k = 1; k <= 8; ++k) {
    const hm::Harm before = uniform_enterprise_harm(k);
    const hm::Harm after = before.after_critical_patch();
    for (const hm::Harm* model : {&before, &after}) {
      const Label label = [model](hm::GraphNodeId id) {
        return ent::role_label(model->graph().name(id));
      };
      const std::string where = "k=" + std::to_string(k) + (model == &after ? " after" : "");
      expect_quotient_matches_oracle(*model, label, where);
    }
    EXPECT_EQ(before.evaluate().attack_paths, k * k * k * k + k * k * k);
    EXPECT_EQ(after.evaluate().attack_paths, k * k * k);
  }
}

TEST(HarmPaths, RoleCyclePolicyRevisitsGroupsWithFallingFactorials) {
  // web <-> app: a path may alternate web and app replicas until it moves
  // to a database, so it enters the web and app groups r times each and
  // those r entries have (n_web)_r * (n_app)_r replica choices.
  ent::ReachabilityPolicy policy;
  policy.attacker_reaches = [](ent::ServerRole role) {
    return role == ent::ServerRole::kDns || role == ent::ServerRole::kWeb;
  };
  policy.reaches = [](ent::ServerRole from, ent::ServerRole to) {
    using R = ent::ServerRole;
    return (from == R::kDns && to == R::kWeb) || (from == R::kWeb && to == R::kApp) ||
           (from == R::kApp && to == R::kWeb) || (from == R::kApp && to == R::kDb);
  };
  policy.target_role = ent::ServerRole::kDb;
  const auto falling = [](std::size_t n, std::size_t r) {
    std::size_t out = 1;
    for (std::size_t i = 0; i < r; ++i) out *= n - i;
    return out;
  };
  for (const std::array<unsigned, ent::kRoleCount>& counts :
       {std::array<unsigned, ent::kRoleCount>{1, 1, 1, 1}, {2, 2, 2, 1}, {3, 3, 3, 3},
        {1, 4, 3, 2}, {2, 3, 4, 1}}) {
    ent::RedundancyDesign design;
    design.counts = counts;
    const hm::Harm before =
        ent::NetworkModel(design, ent::paper_server_specs(), policy).build_harm();
    const hm::Harm after = before.after_critical_patch();
    const std::string where = design.name();
    for (const hm::Harm* model : {&before, &after}) {
      const Label label = [model](hm::GraphNodeId id) {
        return ent::role_label(model->graph().name(id));
      };
      expect_quotient_matches_oracle(*model, label, where + (model == &after ? " after" : ""));
    }
    // NoAP = (1 + n_dns) * n_db * sum_r (n_web)_r (n_app)_r.
    const std::size_t dns = counts[0];
    const std::size_t web = counts[1];
    const std::size_t app = counts[2];
    const std::size_t db = counts[3];
    std::size_t alternations = 0;
    for (std::size_t r = 1; r <= std::min(web, app); ++r) {
      alternations += falling(web, r) * falling(app, r);
    }
    EXPECT_EQ(before.evaluate().attack_paths, (1 + dns) * db * alternations) << where;
    EXPECT_EQ(after.evaluate().attack_paths, db * alternations) << where;
  }
}

TEST(HarmPaths, SeededRandomReplicaGroupsMatchTheOracle) {
  std::uint64_t state = 0xC10E5EEDull;
  std::size_t compared = 0;
  std::size_t with_paths = 0;
  std::size_t with_groups = 0;
  std::size_t with_revisits = 0;
  std::size_t with_split_labels = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::string> labels;
    const hm::Harm model = random_replicated_harm(state, labels);
    const Label label = [&labels](hm::GraphNodeId id) { return labels[id]; };
    // Keep the materializing oracle small; dense draws are skipped.
    OraclePaths oracle;
    try {
      oracle = oracle_attack_paths(model, hm::PathEnumerationOptions{5'000, false});
    } catch (const std::runtime_error&) {
      continue;
    }
    ++compared;
    with_paths += oracle.paths.empty() ? 0 : 1;
    const std::string where = "trial " + std::to_string(trial);
    expect_quotient_matches_oracle(model, label, where);

    const std::size_t sequences = group_sequences(model, oracle.paths, nullptr);
    with_groups += sequences < oracle.paths.size() ? 1 : 0;
    with_split_labels += sequences < group_sequences(model, oracle.paths, &label) ? 1 : 0;
    for (const hm::AttackPath& path : oracle.paths) {
      std::set<hm::GraphNodeId> groups;
      for (hm::GraphNodeId n : path.nodes) groups.insert(model.replicas(n).front());
      if (groups.size() < path.nodes.size()) {
        ++with_revisits;
        break;
      }
    }
  }
  // The sweep must exercise real quotients, not only singleton groups.
  EXPECT_GT(compared, 150u);
  EXPECT_GT(with_paths, 120u);
  EXPECT_GT(with_groups, 80u);
  EXPECT_GT(with_revisits, 20u);
  EXPECT_GT(with_split_labels, 30u);
}

TEST(HarmPaths, LabelThatDiffersInsideAGroupSplitsIt) {
  // k = 3; web3 carries its own label, so the web group's role sequences
  // split into a 2-replica and a 1-replica class each.
  const hm::Harm model = uniform_enterprise_harm(3);
  const hm::AttackGraph& g = model.graph();
  const Label label = [&g](hm::GraphNodeId id) {
    return g.name(id) == "web3" ? std::string("webx") : ent::role_label(g.name(id));
  };
  expect_quotient_matches_oracle(model, label, "split web");
  const std::vector<hm::PathClass> classes = hm::aggregate_path_classes(model, label);
  ASSERT_EQ(classes.size(), 4u);
  EXPECT_EQ(classes[0].name(), "dns-web-app-db");
  EXPECT_EQ(classes[0].instance_paths, 3u * 2u * 3u * 3u);
  EXPECT_EQ(classes[1].name(), "dns-webx-app-db");
  EXPECT_EQ(classes[1].instance_paths, 3u * 1u * 3u * 3u);
  EXPECT_EQ(classes[2].name(), "web-app-db");
  EXPECT_EQ(classes[2].instance_paths, 2u * 3u * 3u);
  EXPECT_EQ(classes[3].name(), "webx-app-db");
  EXPECT_EQ(classes[3].instance_paths, 1u * 3u * 3u);
}

TEST(HarmPaths, FiftyPerTierIsExactThroughSession) {
  // 50^4 + 50^3 = 6,375,000 instance paths: past the default 1M cap in
  // instance units, 2 role sequences in the quotient's.
  // Lumping keeps the availability side of k = 50 small (204 states).
  core::EngineOptions engine = core::Scenario::paper_case_study().engine();
  engine.lumping = true;
  const core::Session session(core::Scenario::paper_case_study().with_engine(engine));
  ent::RedundancyDesign design;
  design.counts = {50, 50, 50, 50};
  const core::EvalReport report = session.evaluate(design);
  EXPECT_EQ(report.before_patch.attack_paths, 6'375'000u);
  EXPECT_EQ(report.before_patch.truncated_paths, 0u);
  EXPECT_EQ(report.before_patch.entry_points, 100u);
  EXPECT_EQ(report.after_patch.attack_paths, 125'000u);
  EXPECT_EQ(report.after_patch.truncated_paths, 0u);
  EXPECT_EQ(report.after_patch.entry_points, 50u);

  // AIM and the per-path probability are one role path's folds: the k = 1
  // values.  NoEV scales with the fleet.
  const core::EvalReport single = session.evaluate(ent::RedundancyDesign{{1, 1, 1, 1}});
  EXPECT_EQ(bits(report.before_patch.attack_impact), bits(single.before_patch.attack_impact));
  EXPECT_EQ(bits(report.after_patch.attack_impact), bits(single.after_patch.attack_impact));
  EXPECT_EQ(report.before_patch.exploitable_vulnerabilities,
            50u * single.before_patch.exploitable_vulnerabilities);
  EXPECT_EQ(report.after_patch.exploitable_vulnerabilities,
            50u * single.after_patch.exploitable_vulnerabilities);
  const double path = single.after_patch.attack_success_probability;  // one path at k = 1
  EXPECT_TRUE(within_1e12(report.after_patch.attack_success_probability,
                          -std::expm1(125'000.0 * std::log1p(-path))));
  EXPECT_EQ(report.before_patch.attack_success_probability, 1.0);
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
    return ent::role_label(model.graph().name(id));
  };
  const std::vector<hm::PathClass> classes = hm::aggregate_path_classes(model, label);
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].instance_paths + classes[1].instance_paths, 6u * 6u * 6u * 6u + 6u * 6u * 6u);
  EXPECT_EQ(calls, model.graph().node_count());
}
