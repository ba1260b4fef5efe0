#pragma once
// The one attack-path DFS of the harm library, the two graphs it walks, and
// the per-depth impact / probability prefixes HARM folds carry along it.
//
// The walk runs over a WalkGraph: nodes with successor lists and a visit
// capacity per path.  The instance graph gives every attackable server
// capacity 1, so a walked sequence is one simple path; the collectors
// (AttackGraph::enumerate_attack_paths, Harm::attack_paths) walk it and copy
// each path out.  The replica-group quotient makes each replica group one
// node whose capacity is its member count, so a walked sequence stands for a
// falling-factorial number of instance paths; the folds (Harm::evaluate,
// aggregate_path_classes) walk it and accumulate each sequence in place,
// weighted by that multiplicity, without materializing any path list.
// Internal to the harm library.

#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "patchsec/harm/attack_graph.hpp"
#include "patchsec/harm/harm.hpp"

namespace patchsec::harm::detail {

/// A graph for walk_attack_paths.  Walk node v's successors are
/// successor[first[v] .. first[v + 1]); a path may enter v at most
/// capacity[v] times (0: never, e.g. an unattackable server); `target`
/// marks path endpoints; `representative[v]` is one graph node v stands
/// for.  The start node is walked once and never re-entered.
struct WalkGraph {
  GraphNodeId start = 0;
  std::vector<std::size_t> first;
  std::vector<GraphNodeId> successor;
  std::vector<std::size_t> capacity;
  std::vector<bool> target;
  std::vector<GraphNodeId> representative;
};

/// The instance graph: walk node n is graph node n, with capacity 1 where
/// `attackable` holds (the attacker is exempt from the mask).  Throws
/// std::invalid_argument on a mask of the wrong size and std::logic_error
/// without an attacker or a target.
[[nodiscard]] WalkGraph instance_walk_graph(const AttackGraph& graph,
                                            const std::vector<bool>& attackable);

/// The replica-group quotient of `model`: one walk node per replica group
/// with a feasible tree, its capacity the member count, plus the attacker
/// (capacity 1).  A group's successors are its first member's, mapped to
/// their walk nodes in first-occurrence order, so on a graph of singleton
/// groups the walk order is the instance graph's.  With `refine` (one key
/// per graph node) members with different keys become different walk
/// nodes; a part of a replica group is still one, so the quotient stays
/// exact.
[[nodiscard]] WalkGraph quotient_walk_graph(const Harm& model,
                                            const std::vector<std::size_t>* refine);

/// a * b, or 0 when it does not fit size_t (a multiplicity is never 0).
[[nodiscard]] inline std::size_t multiply_or_zero(std::size_t a, std::size_t b) {
  if (a == 0 || b > std::numeric_limits<std::size_t>::max() / a) return 0;
  return a * b;
}

/// Walks every attacker -> target sequence of `graph` in DFS order:
/// successors in list order, at most capacity[v] visits to v on one
/// sequence, and a sequence ends at the first target it reaches.  The walk
/// is iterative, so path length is bounded by memory, not by the call stack.
///
/// `enter(node, depth)` runs when `node` becomes the `depth`-th (1-based)
/// node of the current prefix; depth 0 is the attacker's empty prefix, so a
/// visitor can keep one prefix value per depth.  `reach(path, multiplicity)`
/// runs for every sequence within `options.max_paths`, with `path` a view of
/// the walk's own stack that is valid for that call only.  `multiplicity`
/// is the number of instance paths the sequence stands for: entering node
/// v for the i-th time on it multiplies it by capacity[v] - i + 1, so it is
/// 1 on the instance graph.  An attacker that is itself a target yields the
/// single empty path.  Past the cap a sequence throws std::runtime_error,
/// or with `options.truncate` its multiplicity is counted into `truncated`;
/// neither callback runs once the cap is reached.  `enumerated` counts
/// instance paths.  Throws std::overflow_error when a multiplicity or the
/// instance path total does not fit size_t.
template <class Enter, class Reach>
PathEnumerationStats walk_attack_paths(const WalkGraph& graph,
                                       const PathEnumerationOptions& options, Enter&& enter,
                                       Reach&& reach) {
  PathEnumerationStats stats;
  std::size_t delivered = 0;                 // sequences handed to `reach`
  std::vector<GraphNodeId> path;             // walk nodes of the current prefix
  std::vector<std::size_t> multiplicity{1};  // per depth; 0 once it overflowed
  const auto arrive = [&] {
    const std::size_t m = multiplicity.back();
    if (m == 0 || stats.enumerated > std::numeric_limits<std::size_t>::max() - m) {
      throw std::overflow_error("attack path count does not fit size_t");
    }
    stats.enumerated += m;
    if (delivered >= options.max_paths) {
      if (!options.truncate) {
        throw std::runtime_error("attack path enumeration exceeded max_paths");
      }
      // Beyond the cap the walk goes on (exact totals for the diagnostics)
      // but no visitor sees the sequence: time still grows with the
      // sequence count, memory and fold work do not.
      stats.truncated += m;
      return;
    }
    ++delivered;
    reach(std::span<const GraphNodeId>(path), m);
  };

  if (graph.target[graph.start]) {
    arrive();
    return stats;
  }
  // Frame i holds the node at depth i (the attacker at 0) and the index of
  // its next successor to try; path[i - 1] is frame i's node.
  struct Frame {
    GraphNodeId node;
    std::size_t next;
  };
  std::vector<Frame> stack{{graph.start, graph.first[graph.start]}};
  std::vector<std::size_t> visits(graph.capacity.size(), 0);
  visits[graph.start] = graph.capacity[graph.start];
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next == graph.first[top.node + 1]) {
      --visits[top.node];
      stack.pop_back();
      if (!stack.empty()) {
        path.pop_back();
        multiplicity.pop_back();
      }
      continue;
    }
    const GraphNodeId next = graph.successor[top.next++];
    if (visits[next] >= graph.capacity[next]) continue;
    path.push_back(next);
    multiplicity.push_back(
        multiply_or_zero(multiplicity.back(), graph.capacity[next] - visits[next]));
    if (delivered < options.max_paths) enter(next, path.size());
    if (graph.target[next]) {
      // Targets are endpoints: the paper's paths stop at the first database
      // server reached; do not extend past a target.
      arrive();
      path.pop_back();
      multiplicity.pop_back();
      continue;
    }
    ++visits[next];
    stack.push_back({next, graph.first[next]});
  }
  return stats;
}

/// Per-walk-node AT root values, each evaluated once, and the walk's current
/// path-impact sum and path-probability product, one slot per depth.  The
/// prefixes are the per-path definitions' own left folds (0.0 + i1 + i2 ...,
/// 1.0 * p1 * p2 ...), so a path's values are bit-identical to folding its
/// nodes in order.
class PathPrefixes {
 public:
  PathPrefixes(const Harm& model, const WalkGraph& walk)
      : node_impact_(walk.capacity.size(), 0.0),
        node_probability_(walk.capacity.size(), 0.0),
        impact_(model.graph().node_count() + 1, 0.0),
        probability_(model.graph().node_count() + 1, 1.0) {
    for (GraphNodeId v = 0; v < walk.capacity.size(); ++v) {
      if (v == walk.start || walk.capacity[v] == 0) continue;
      node_impact_[v] = model.node_impact(walk.representative[v]);
      node_probability_[v] = model.node_probability(walk.representative[v]);
    }
  }

  void enter(GraphNodeId node, std::size_t depth) {
    impact_[depth] = impact_[depth - 1] + node_impact_[node];
    probability_[depth] = probability_[depth - 1] * node_probability_[node];
  }

  /// Values of the current prefix of `depth` nodes (a reached path's length).
  [[nodiscard]] double impact(std::size_t depth) const { return impact_[depth]; }
  [[nodiscard]] double probability(std::size_t depth) const { return probability_[depth]; }

 private:
  std::vector<double> node_impact_;
  std::vector<double> node_probability_;
  std::vector<double> impact_;       // impact_[0] = 0.0: the empty prefix
  std::vector<double> probability_;  // probability_[0] = 1.0
};

}  // namespace patchsec::harm::detail
