#include "patchsec/harm/attack_graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "path_walk.hpp"

namespace patchsec::harm {

GraphNodeId AttackGraph::add_node(std::string name) {
  if (name.empty()) throw std::invalid_argument("add_node: empty name");
  if (!index_.try_emplace(name, names_.size()).second) {
    throw std::invalid_argument("add_node: duplicate name " + name);
  }
  names_.push_back(std::move(name));
  adjacency_.emplace_back();
  return names_.size() - 1;
}

void AttackGraph::add_edge(GraphNodeId from, GraphNodeId to) {
  if (from >= node_count() || to >= node_count()) throw std::out_of_range("add_edge");
  if (from == to) throw std::invalid_argument("add_edge: self loop");
  auto& row = adjacency_[from];
  if (std::find(row.begin(), row.end(), to) == row.end()) row.push_back(to);
}

void AttackGraph::set_attacker(GraphNodeId node) {
  if (node >= node_count()) throw std::out_of_range("set_attacker");
  attacker_ = node;
}

void AttackGraph::add_target(GraphNodeId node) {
  if (node >= node_count()) throw std::out_of_range("add_target");
  if (std::find(targets_.begin(), targets_.end(), node) == targets_.end()) {
    targets_.push_back(node);
  }
}

GraphNodeId AttackGraph::attacker() const {
  if (attacker_ == static_cast<GraphNodeId>(-1)) throw std::logic_error("attacker not set");
  return attacker_;
}

GraphNodeId AttackGraph::node(const std::string& name) const {
  const auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  throw std::out_of_range("no such graph node: " + name);
}

std::vector<std::vector<GraphNodeId>> AttackGraph::enumerate_attack_paths(
    const std::vector<bool>& attackable, std::size_t max_paths) const {
  return enumerate_attack_paths(attackable, PathEnumerationOptions{max_paths, false}, nullptr);
}

std::vector<std::vector<GraphNodeId>> AttackGraph::enumerate_attack_paths(
    const std::vector<bool>& attackable, const PathEnumerationOptions& options,
    PathEnumerationStats* stats) const {
  std::vector<std::vector<GraphNodeId>> paths;
  const PathEnumerationStats totals = detail::walk_attack_paths(
      detail::instance_walk_graph(*this, attackable), options, [](GraphNodeId, std::size_t) {},
      [&paths](std::span<const GraphNodeId> path, std::size_t /*multiplicity is 1*/) {
        paths.emplace_back(path.begin(), path.end());
      });
  if (stats != nullptr) *stats = totals;
  return paths;
}

}  // namespace patchsec::harm
