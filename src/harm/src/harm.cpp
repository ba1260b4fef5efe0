#include "patchsec/harm/harm.hpp"

#include <algorithm>
#include <stdexcept>

#include "path_walk.hpp"

namespace patchsec::harm {

Harm::Harm(AttackGraph graph) : graph_(std::move(graph)) {}

void Harm::attach_tree(GraphNodeId node, AttackTree tree) {
  if (node >= graph_.node_count()) throw std::out_of_range("attach_tree: unknown node");
  if (node == graph_.attacker()) throw std::invalid_argument("attacker carries no attack tree");
  trees_.insert_or_assign(node, std::move(tree));
}

const AttackTree& Harm::tree(GraphNodeId node) const {
  const auto it = trees_.find(node);
  if (it == trees_.end()) throw std::out_of_range("no tree attached to node");
  return it->second;
}

bool Harm::attackable(GraphNodeId node) const {
  const auto it = trees_.find(node);
  return it != trees_.end() && !it->second.infeasible();
}

double Harm::node_impact(GraphNodeId node) const { return tree(node).attack_impact(); }

double Harm::node_probability(GraphNodeId node) const {
  return tree(node).attack_success_probability();
}

std::vector<AttackPath> Harm::attack_paths() const {
  return attack_paths(PathEnumerationOptions{}, nullptr);
}

std::vector<AttackPath> Harm::attack_paths(const PathEnumerationOptions& options,
                                           PathEnumerationStats* stats) const {
  detail::PathPrefixes prefix(*this);
  std::vector<AttackPath> out;
  const PathEnumerationStats totals = detail::walk_attack_paths(
      graph_, prefix.attackable(), options,
      [&prefix](GraphNodeId n, std::size_t depth) { prefix.enter(n, depth); },
      [&](std::span<const GraphNodeId> path) {
        out.push_back(AttackPath{{path.begin(), path.end()},
                                 prefix.impact(path.size()),
                                 prefix.probability(path.size())});
      });
  if (stats != nullptr) *stats = totals;
  return out;
}

SecurityMetrics Harm::evaluate() const { return evaluate(PathEnumerationOptions{}); }

SecurityMetrics Harm::evaluate(const PathEnumerationOptions& options) const {
  SecurityMetrics m;
  detail::PathPrefixes prefix(*this);
  double miss_all = 1.0;  // prod (1 - asp_path)
  std::vector<bool> is_entry(graph_.node_count(), false);
  const PathEnumerationStats stats = detail::walk_attack_paths(
      graph_, prefix.attackable(), options,
      [&prefix](GraphNodeId n, std::size_t depth) { prefix.enter(n, depth); },
      [&](std::span<const GraphNodeId> path) {
        m.attack_impact = std::max(m.attack_impact, prefix.impact(path.size()));
        miss_all *= (1.0 - prefix.probability(path.size()));
        if (!path.empty() && !is_entry[path.front()]) {
          is_entry[path.front()] = true;
          ++m.entry_points;
        }
      });
  m.attack_paths = stats.enumerated - stats.truncated;
  m.truncated_paths = stats.truncated;
  m.attack_success_probability = m.attack_paths == 0 ? 0.0 : 1.0 - miss_all;

  // NoEV counts leftover exploitable vulnerabilities on *every* server in
  // the network, whether or not it still lies on a path.
  for (const auto& [node, tree] : trees_) {
    m.exploitable_vulnerabilities += tree.exploitable_vulnerability_count();
  }
  return m;
}

Harm Harm::after_patch(const std::function<bool(const nvd::Vulnerability&)>& patched) const {
  Harm out(graph_);
  for (const auto& [node, tree] : trees_) out.trees_.emplace(node, tree.after_patch(patched));
  return out;
}

Harm Harm::after_critical_patch() const {
  return after_patch([](const nvd::Vulnerability& v) { return v.is_critical(); });
}

}  // namespace patchsec::harm
