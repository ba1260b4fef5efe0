#pragma once
// Upper layer of the HARM: a directed reachability graph between the
// attacker, the servers and the target(s).  Edges follow the firewall/topology
// reachability of the modeled network.

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

namespace patchsec::harm {

using GraphNodeId = std::size_t;

/// How simple-path enumeration treats the `max_paths` cap.
///
/// The number of simple attacker->target paths grows with the product of the
/// tier sizes: under the paper's 3-tier policy a uniform k-per-tier design
/// has k_dns*k_web*k_app*k_db + k_web*k_app*k_db ~ k^4 + k^3 paths (every
/// instance combination along each role sequence is its own simple path), so
/// a k = 50 fleet has 6,375,000 of them.  The cap bounds the sequences a
/// walk *visits*; `truncate` picks what happens beyond it.
///
/// The collectors (`enumerate_attack_paths`, `Harm::attack_paths`) walk the
/// instance graph, so there a sequence is one simple path and the cap bounds
/// the paths they materialize.  The folds (`Harm::evaluate`,
/// `aggregate_path_classes`) walk the replica-group quotient (see `Harm`),
/// where a sequence is one group sequence standing for all of its instance
/// paths, and fold it into their totals in O(depth) memory; there the cap
/// bounds group sequences (2 for any uniform 3-tier design) while the
/// counts and `PathEnumerationStats` stay in instance paths.
struct PathEnumerationOptions {
  /// Visited-sequence bound.  With `truncate == false` exceeding it throws
  /// std::runtime_error (the historical behaviour); with `truncate == true`
  /// only the first `max_paths` sequences in DFS order are delivered and
  /// the instance paths of the remainder are *counted* instead — time still
  /// grows with the sequence count, but collector memory and fold work are
  /// capped and the truncation is observable, never silent.
  std::size_t max_paths = 1'000'000;
  bool truncate = false;
};

/// Diagnostics of one enumeration, in instance paths: how many simple paths
/// exist and how many were dropped by the cap (delivered = enumerated -
/// truncated).
struct PathEnumerationStats {
  std::size_t enumerated = 0;  ///< total simple paths found by the walk.
  std::size_t truncated = 0;   ///< paths counted but not delivered.
};

/// Directed graph with one distinguished attacker node and one or more
/// target nodes.  Node identity is by index; names are unique and looked up
/// through a hash index.
class AttackGraph {
 public:
  AttackGraph() = default;

  GraphNodeId add_node(std::string name);
  void add_edge(GraphNodeId from, GraphNodeId to);

  void set_attacker(GraphNodeId node);
  void add_target(GraphNodeId node);

  [[nodiscard]] std::size_t node_count() const noexcept { return names_.size(); }
  [[nodiscard]] const std::string& name(GraphNodeId n) const { return names_.at(n); }
  [[nodiscard]] GraphNodeId attacker() const;
  [[nodiscard]] const std::vector<GraphNodeId>& targets() const noexcept { return targets_; }
  [[nodiscard]] const std::vector<GraphNodeId>& successors(GraphNodeId n) const {
    return adjacency_.at(n);
  }
  /// Node lookup by name; throws std::out_of_range when absent.
  [[nodiscard]] GraphNodeId node(const std::string& name) const;

  /// All simple paths attacker -> any target, excluding nodes for which
  /// `attackable` is false (the attacker itself is exempt).  Each returned
  /// path lists the compromised nodes in order, without the attacker.
  /// Throws std::runtime_error if more than `max_paths` exist.
  [[nodiscard]] std::vector<std::vector<GraphNodeId>> enumerate_attack_paths(
      const std::vector<bool>& attackable, std::size_t max_paths = 1'000'000) const;

  /// As above with an explicit cap policy: with `options.truncate` the first
  /// `options.max_paths` paths (DFS order) are materialized and the rest are
  /// counted into `stats` instead of throwing.  `stats` (optional) receives
  /// the exact totals either way.
  [[nodiscard]] std::vector<std::vector<GraphNodeId>> enumerate_attack_paths(
      const std::vector<bool>& attackable, const PathEnumerationOptions& options,
      PathEnumerationStats* stats) const;

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, GraphNodeId> index_;  // name -> node
  std::vector<std::vector<GraphNodeId>> adjacency_;
  std::vector<GraphNodeId> targets_;
  GraphNodeId attacker_ = static_cast<GraphNodeId>(-1);
};

}  // namespace patchsec::harm
