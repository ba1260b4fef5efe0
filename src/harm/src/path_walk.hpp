#pragma once
// The one attack-path DFS of the harm library, and the per-depth impact /
// probability prefixes HARM folds carry along it.  Every path quantity is a
// visitor over `walk_attack_paths`: the collectors
// (AttackGraph::enumerate_attack_paths, Harm::attack_paths) copy each path
// out, the folds (Harm::evaluate, aggregate_path_classes) accumulate it in
// place without materializing any path list.  Internal to the harm library.

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "patchsec/harm/attack_graph.hpp"
#include "patchsec/harm/harm.hpp"

namespace patchsec::harm::detail {

/// Walks every simple attacker -> target path through `attackable` nodes
/// (the attacker itself is exempt from the mask) in DFS order: successors in
/// insertion order, and a path ends at the first target it reaches.  The
/// walk is iterative, so path length is bounded by memory, not by the call
/// stack.
///
/// `enter(node, depth)` runs when `node` becomes the `depth`-th (1-based)
/// compromised node of the current prefix; depth 0 is the attacker's empty
/// prefix, so a visitor can keep one prefix value per depth.  `reach(path)`
/// runs for every path within `options.max_paths`, with `path` a view of
/// the walk's own stack that is valid for that call only.  An attacker that
/// is itself a target yields the single empty path.  Past the cap a path
/// throws std::runtime_error, or with `options.truncate` is counted into
/// `truncated`; neither callback runs once the cap is reached.
template <class Enter, class Reach>
PathEnumerationStats walk_attack_paths(const AttackGraph& graph,
                                       const std::vector<bool>& attackable,
                                       const PathEnumerationOptions& options, Enter&& enter,
                                       Reach&& reach) {
  if (attackable.size() != graph.node_count()) {
    throw std::invalid_argument("enumerate_attack_paths: attackable mask size mismatch");
  }
  const GraphNodeId start = graph.attacker();
  if (graph.targets().empty()) throw std::logic_error("no target set");
  std::vector<bool> is_target(graph.node_count(), false);
  for (GraphNodeId t : graph.targets()) is_target[t] = true;

  PathEnumerationStats stats;
  const auto under_cap = [&] { return stats.enumerated - stats.truncated < options.max_paths; };
  std::vector<GraphNodeId> path;  // compromised nodes of the current prefix
  const auto arrive = [&] {
    if (!under_cap()) {
      if (!options.truncate) {
        throw std::runtime_error("attack path enumeration exceeded max_paths");
      }
      // Beyond the cap the walk goes on (exact totals for the diagnostics)
      // but no visitor sees the path: time still grows with the path count,
      // memory and fold work do not.
      ++stats.enumerated;
      ++stats.truncated;
      return;
    }
    ++stats.enumerated;
    reach(std::span<const GraphNodeId>(path));
  };

  if (is_target[start]) {
    arrive();
    return stats;
  }
  // Frame i holds the node at depth i (the attacker at 0) and the index of
  // its next successor to try; path[i - 1] is frame i's node.
  struct Frame {
    GraphNodeId node;
    std::size_t next;
  };
  std::vector<Frame> stack{{start, 0}};
  std::vector<bool> on_path(graph.node_count(), false);
  on_path[start] = true;
  while (!stack.empty()) {
    Frame& top = stack.back();
    const std::vector<GraphNodeId>& successors = graph.successors(top.node);
    if (top.next == successors.size()) {
      on_path[top.node] = false;
      stack.pop_back();
      if (!stack.empty()) path.pop_back();
      continue;
    }
    const GraphNodeId next = successors[top.next++];
    if (on_path[next] || !attackable[next]) continue;
    path.push_back(next);
    if (under_cap()) enter(next, path.size());
    if (is_target[next]) {
      // Targets are endpoints: the paper's paths stop at the first database
      // server reached; do not extend past a target.
      arrive();
      path.pop_back();
      continue;
    }
    on_path[next] = true;
    stack.push_back({next, 0});
  }
  return stats;
}

/// Per-node AT root values, each evaluated once, and the walk's current
/// path-impact sum and path-probability product, one slot per depth.  The
/// prefixes are the per-path definitions' own left folds (0.0 + i1 + i2 ...,
/// 1.0 * p1 * p2 ...), so a path's values are bit-identical to folding its
/// nodes in order.
class PathPrefixes {
 public:
  explicit PathPrefixes(const Harm& model)
      : attackable_(model.graph().node_count(), false),
        node_impact_(model.graph().node_count(), 0.0),
        node_probability_(model.graph().node_count(), 0.0),
        impact_(model.graph().node_count() + 1, 0.0),
        probability_(model.graph().node_count() + 1, 1.0) {
    for (GraphNodeId n = 0; n < attackable_.size(); ++n) {
      if (!model.attackable(n)) continue;
      attackable_[n] = true;
      node_impact_[n] = model.node_impact(n);
      node_probability_[n] = model.node_probability(n);
    }
  }

  [[nodiscard]] const std::vector<bool>& attackable() const noexcept { return attackable_; }

  void enter(GraphNodeId node, std::size_t depth) {
    impact_[depth] = impact_[depth - 1] + node_impact_[node];
    probability_[depth] = probability_[depth - 1] * node_probability_[node];
  }

  /// Values of the current prefix of `depth` nodes (a reached path's length).
  [[nodiscard]] double impact(std::size_t depth) const { return impact_[depth]; }
  [[nodiscard]] double probability(std::size_t depth) const { return probability_[depth]; }

 private:
  std::vector<bool> attackable_;
  std::vector<double> node_impact_;
  std::vector<double> node_probability_;
  std::vector<double> impact_;       // impact_[0] = 0.0: the empty prefix
  std::vector<double> probability_;  // probability_[0] = 1.0
};

}  // namespace patchsec::harm::detail
