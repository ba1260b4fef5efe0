#pragma once
// Two-layered Hierarchical Attack Representation Model (HARM): an attack
// graph over servers (upper layer) with one attack tree per server (lower
// layer), plus the five security metrics the paper evaluates and the
// critical-patch transformation.

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "patchsec/harm/attack_graph.hpp"
#include "patchsec/harm/attack_tree.hpp"

namespace patchsec::harm {

/// The paper's security metrics (Table II / Fig. 7 axes).
struct SecurityMetrics {
  double attack_impact = 0.0;  ///< AIM : max over paths of summed node impact.
  /// ASP : 1 - prod_paths (1 - path probability), evaluated as
  /// -expm1(sum_paths log1p(-path probability)) so that the m instance paths
  /// of one replica-group sequence enter as one term m * log1p(-p).
  double attack_success_probability = 0.0;
  std::size_t exploitable_vulnerabilities = 0;  ///< NoEV: summed over all servers.
  std::size_t attack_paths = 0;                 ///< NoAP: simple attacker->target paths.
  std::size_t entry_points = 0;  ///< NoEP: distinct first hops over all attack paths.
  /// Instance paths the enumeration cap dropped (PathEnumerationOptions with
  /// truncate).  The cap counts replica-group sequences: a positive count
  /// means AIM/ASP/NoAP/NoEP are computed from the first `max_paths` group
  /// sequences in DFS order and are lower bounds (AIM/ASP never decrease
  /// with more paths), and `truncated_paths` is the number of instance paths
  /// behind the sequences past the cap.  0 means the metrics are exact; the
  /// total simple-path count is attack_paths + truncated_paths either way.
  std::size_t truncated_paths = 0;
};

/// One attack path with its per-path metric values (Sec. III-C example:
/// aim_ap1 = 52.2 for {dns1, web1, app1, db1}).
struct AttackPath {
  std::vector<GraphNodeId> nodes;  ///< compromised servers in order.
  double impact = 0.0;             ///< sum of node-level impacts.
  double probability = 0.0;        ///< product of node-level probabilities.
};

/// Two-layer HARM.  Construct the upper-layer graph, then attach one attack
/// tree per server node (the attacker node carries no tree).
///
/// Replica groups.  Code that knows some servers are interchangeable
/// (the paper's redundant replicas of one role) declares them with
/// attach_replicas: the group shares one stored tree, and the path folds
/// (`evaluate`, `aggregate_path_classes`) walk one node per group instead of
/// one per member.  A group is accepted only when its members are
/// structurally equivalent: the same successor set, the same predecessor
/// set, the same target flag, no edge between two members, and no attacker
/// among them.  Then every permutation of the members is a graph
/// automorphism, so a walked group sequence that enters group g for the v-th
/// time stands for n_g - v + 1 choices of member there, and its instance
/// paths number the product of those falling factors.  A wrong declaration
/// throws at attach time, never yields a silently wrong metric.
/// `attach_tree(node, tree)` declares the group of one.
class Harm {
 public:
  explicit Harm(AttackGraph graph);

  /// Attach/replace the lower-layer tree of a server node: its replica group
  /// of one.  Trees may be infeasible (a fully patched server).  Throws
  /// std::invalid_argument when `node` belongs to a larger replica group.
  void attach_tree(GraphNodeId node, AttackTree tree);

  /// Declare `replicas` one replica group sharing `tree` (see the class
  /// comment).  Re-declaring an existing group's exact member set replaces
  /// its tree.  Throws std::out_of_range for an unknown node and
  /// std::invalid_argument for an empty or duplicated member list, the
  /// attacker, a member of another group, or members that are not
  /// structurally equivalent.
  void attach_replicas(std::span<const GraphNodeId> replicas, AttackTree tree);

  /// The replica group `node` belongs to, in ascending node order; empty
  /// when no tree is attached to `node`.  Valid while this Harm lives.
  [[nodiscard]] std::span<const GraphNodeId> replicas(GraphNodeId node) const;

  [[nodiscard]] const AttackGraph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const AttackTree& tree(GraphNodeId node) const;
  [[nodiscard]] bool attackable(GraphNodeId node) const;

  /// Node-level metrics (the AT root values).  Throw for unattackable nodes.
  [[nodiscard]] double node_impact(GraphNodeId node) const;
  [[nodiscard]] double node_probability(GraphNodeId node) const;

  /// All attack paths with per-path metrics, materialized in DFS order.
  [[nodiscard]] std::vector<AttackPath> attack_paths() const;

  /// Attack paths under an explicit enumeration cap policy; `stats`
  /// (optional) receives the exact enumerated/truncated totals.
  [[nodiscard]] std::vector<AttackPath> attack_paths(const PathEnumerationOptions& options,
                                                     PathEnumerationStats* stats = nullptr) const;

  /// Network-level metrics.  A HARM with no attack path reports AIM = 0 and
  /// ASP = 0 (nothing reaches the target) while NoEV still counts leftover
  /// exploitable vulnerabilities on all servers.  The path metrics are
  /// folded while the attack-path DFS walks the replica-group quotient, with
  /// every AT root evaluated once per group; no path list is built.
  [[nodiscard]] SecurityMetrics evaluate() const;

  /// Network-level metrics under an explicit enumeration cap policy: with
  /// `options.truncate` a cap overflow lands in `truncated_paths` (the
  /// metrics become documented lower bounds) instead of throwing.  Throws
  /// std::overflow_error when an instance path count does not fit size_t.
  [[nodiscard]] SecurityMetrics evaluate(const PathEnumerationOptions& options) const;

  /// Patch transformation: prune every vulnerability satisfying `patched`
  /// from every tree, once per replica group (the groups and the graph are
  /// kept).  Servers whose tree becomes infeasible stay in the network (they
  /// still run and get patched) but stop being attackable, so paths can no
  /// longer traverse them — exactly how the paper's dns server drops out of
  /// the after-patch HARM.
  [[nodiscard]] Harm after_patch(
      const std::function<bool(const nvd::Vulnerability&)>& patched) const;

  /// The paper's patch: remove all critical vulnerabilities.
  [[nodiscard]] Harm after_critical_patch() const;

 private:
  struct ReplicaGroup {
    std::vector<GraphNodeId> members;  // ascending
    AttackTree tree;
  };
  static constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);

  explicit Harm(std::shared_ptr<const AttackGraph> graph);

  /// Throws unless `members` (ascending, distinct, > 1) are structurally
  /// equivalent; see the class comment.
  void check_equivalent(const std::vector<GraphNodeId>& members) const;

  std::shared_ptr<const AttackGraph> graph_;  // immutable; after_patch shares it
  std::vector<ReplicaGroup> groups_;
  std::vector<std::size_t> group_of_;  // per graph node; kNoGroup without a tree
};

}  // namespace patchsec::harm
