#include "path_walk.hpp"

#include <algorithm>
#include <utility>

namespace patchsec::harm::detail {

namespace {

std::vector<bool> target_mask(const AttackGraph& graph) {
  if (graph.targets().empty()) throw std::logic_error("no target set");
  std::vector<bool> is_target(graph.node_count(), false);
  for (GraphNodeId t : graph.targets()) is_target[t] = true;
  return is_target;
}

}  // namespace

WalkGraph instance_walk_graph(const AttackGraph& graph, const std::vector<bool>& attackable) {
  if (attackable.size() != graph.node_count()) {
    throw std::invalid_argument("enumerate_attack_paths: attackable mask size mismatch");
  }
  WalkGraph walk;
  walk.start = graph.attacker();
  walk.target = target_mask(graph);
  const std::size_t nodes = graph.node_count();
  walk.first.reserve(nodes + 1);
  walk.first.push_back(0);
  walk.capacity.resize(nodes);
  walk.representative.resize(nodes);
  for (GraphNodeId n = 0; n < nodes; ++n) {
    const std::vector<GraphNodeId>& successors = graph.successors(n);
    walk.successor.insert(walk.successor.end(), successors.begin(), successors.end());
    walk.first.push_back(walk.successor.size());
    walk.capacity[n] = attackable[n] || n == walk.start ? 1 : 0;
    walk.representative[n] = n;
  }
  return walk;
}

WalkGraph quotient_walk_graph(const Harm& model, const std::vector<std::size_t>* refine) {
  const AttackGraph& graph = model.graph();
  const GraphNodeId attacker = graph.attacker();
  const std::vector<bool> is_target = target_mask(graph);
  constexpr auto kNone = static_cast<GraphNodeId>(-1);

  // Assign walk nodes: the attacker, then each attackable replica group
  // (split by `refine`) at its first member in graph-node order.
  WalkGraph walk;
  std::vector<GraphNodeId> walk_node(graph.node_count(), kNone);
  const auto add_node = [&walk](GraphNodeId representative, bool target) {
    walk.representative.push_back(representative);
    walk.capacity.push_back(0);
    walk.target.push_back(target);
    return walk.representative.size() - 1;
  };
  for (GraphNodeId n = 0; n < graph.node_count(); ++n) {
    if (walk_node[n] != kNone) continue;
    if (n == attacker) {
      walk.start = walk_node[n] = add_node(n, is_target[n]);
      walk.capacity[walk.start] = 1;
      continue;
    }
    if (!model.attackable(n)) continue;
    // The parts of n's group, as (refine key, walk node) pairs; a group
    // rarely has more than one.
    std::vector<std::pair<std::size_t, GraphNodeId>> parts;
    for (GraphNodeId member : model.replicas(n)) {
      const std::size_t key = refine != nullptr ? (*refine)[member] : 0;
      auto part = std::find_if(parts.begin(), parts.end(),
                               [key](const auto& p) { return p.first == key; });
      if (part == parts.end()) {
        parts.emplace_back(key, add_node(member, is_target[member]));
        part = parts.end() - 1;
      }
      walk_node[member] = part->second;
      ++walk.capacity[part->second];
    }
  }

  // Successor lists from each walk node's representative, deduplicated in
  // first-occurrence order; edges into unattackable servers are dropped.
  const std::size_t size = walk.representative.size();
  std::vector<GraphNodeId> listed_by(size, kNone);
  walk.first.reserve(size + 1);
  walk.first.push_back(0);
  for (GraphNodeId v = 0; v < size; ++v) {
    for (GraphNodeId s : graph.successors(walk.representative[v])) {
      const GraphNodeId w = walk_node[s];
      if (w == kNone || listed_by[w] == v) continue;
      listed_by[w] = v;
      walk.successor.push_back(w);
    }
    walk.first.push_back(walk.successor.size());
  }
  return walk;
}

}  // namespace patchsec::harm::detail
