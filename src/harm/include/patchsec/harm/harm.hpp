#pragma once
// Two-layered Hierarchical Attack Representation Model (HARM): an attack
// graph over servers (upper layer) with one attack tree per server (lower
// layer), plus the five security metrics the paper evaluates and the
// critical-patch transformation.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "patchsec/harm/attack_graph.hpp"
#include "patchsec/harm/attack_tree.hpp"

namespace patchsec::harm {

/// The paper's security metrics (Table II / Fig. 7 axes).
struct SecurityMetrics {
  double attack_impact = 0.0;               ///< AIM : max over paths of summed node impact.
  double attack_success_probability = 0.0;  ///< ASP : 1 - prod_paths (1 - path probability).
  std::size_t exploitable_vulnerabilities = 0;  ///< NoEV: summed over all servers.
  std::size_t attack_paths = 0;                 ///< NoAP: simple attacker->target paths.
  std::size_t entry_points = 0;  ///< NoEP: distinct first hops over all attack paths.
  /// Simple paths the enumeration cap dropped (PathEnumerationOptions with
  /// truncate): 0 means the metrics above are exact; a positive count means
  /// AIM/ASP/NoAP/NoEP are computed from the first `attack_paths` paths in
  /// DFS order and are lower bounds (AIM/ASP never decrease with more
  /// paths).  The total simple-path count is attack_paths + truncated_paths.
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
class Harm {
 public:
  explicit Harm(AttackGraph graph);

  /// Attach/replace the lower-layer tree of a server node.  Trees may be
  /// infeasible (a fully patched server).
  void attach_tree(GraphNodeId node, AttackTree tree);

  [[nodiscard]] const AttackGraph& graph() const noexcept { return graph_; }
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
  /// folded while the attack-path DFS walks, with every AT root evaluated
  /// once per node; no path list is built.
  [[nodiscard]] SecurityMetrics evaluate() const;

  /// Network-level metrics under an explicit enumeration cap policy: with
  /// `options.truncate` a cap overflow lands in `truncated_paths` (the
  /// metrics become documented lower bounds) instead of throwing.
  [[nodiscard]] SecurityMetrics evaluate(const PathEnumerationOptions& options) const;

  /// Patch transformation: prune every vulnerability satisfying `patched`
  /// from every tree.  Servers whose tree becomes infeasible stay in the
  /// network (they still run and get patched) but stop being attackable, so
  /// paths can no longer traverse them — exactly how the paper's dns server
  /// drops out of the after-patch HARM.
  [[nodiscard]] Harm after_patch(
      const std::function<bool(const nvd::Vulnerability&)>& patched) const;

  /// The paper's patch: remove all critical vulnerabilities.
  [[nodiscard]] Harm after_critical_patch() const;

 private:
  AttackGraph graph_;
  std::map<GraphNodeId, AttackTree> trees_;
};

}  // namespace patchsec::harm
