#pragma once
/// \file path_classes.hpp
/// \brief Attack-path classes: instance paths grouped by a caller-supplied
/// node label (typically the server role), with aggregated per-class metrics
/// and effort-weighted exposure — the attacker's strategy space of the
/// patch-scheduling game (`patchsec::game`).
///
/// Under redundancy, instance paths multiply with the tier sizes (~k^4 for a
/// uniform k-per-tier 3-tier design — see PathEnumerationOptions), but the
/// paths through "dns3 -> web1 -> app2 -> db1" and "dns1 -> web2 -> app1 ->
/// db1" are the same *attack strategy* aimed at different replicas.  A
/// PathClass collapses every instance path with the same label sequence into
/// one strategy: the class success probability treats the instance paths as
/// independent alternatives (the attacker aims the strategy at whichever
/// replica succeeds), the class impact is the worst instance path, and the
/// class risk sums impact x probability over its members.  The class
/// universe is design-independent for any fixed policy (adding replicas adds
/// instance paths, not label sequences), which is what lets a game's
/// attacker allocate effort over classes while the defender moves through a
/// design grid.
///
/// Cost: one walk of the replica-group quotient (see `Harm`), refined by
/// label so that every walked node has one label, which folds each group
/// sequence into its class as it is reached, weighted by its instance-path
/// multiplicity.  Per graph node the label is computed once; per replica
/// group the AT impact and probability are computed once; per group
/// sequence the fold is O(1) — a class is keyed by a label-prefix trie node
/// carried on the DFS stack, not by a per-path string vector.  No instance
/// path is walked or materialized: a uniform 3-tier design walks 2 group
/// sequences at any k.

#include <functional>
#include <string>
#include <vector>

#include "patchsec/harm/harm.hpp"

namespace patchsec::harm {

/// One attack-path class: every instance path whose node labels spell
/// `signature`, with aggregated metrics.
struct PathClass {
  std::vector<std::string> signature;  ///< node labels along the path, in order.
  std::size_t instance_paths = 0;      ///< member instance paths.
  double max_impact = 0.0;             ///< worst-case member impact (AIM of the class).
  /// P(at least one member path succeeds), members independent:
  /// 1 - prod_members (1 - p_member), evaluated as
  /// -expm1(sum_members log1p(-p_member)).
  double success_probability = 0.0;
  double total_risk = 0.0;  ///< sum over members of impact * probability.

  /// "dns-web-app-db" — the canonical display form of the signature.
  [[nodiscard]] std::string name() const;
};

/// Group the model's attack paths by the label sequence `label` assigns to
/// their nodes (e.g. the lower-cased role name for enterprise networks) and
/// aggregate per-class metrics.  `label` is called exactly once per graph
/// node, the attacker included, before the walk.  Classes come back sorted
/// by signature (lexicographic) so the order is canonical across designs
/// and runs.
/// `stats` (optional) reports the enumeration totals, including any paths
/// the cap truncated — truncated paths are missing from the classes exactly
/// as they are missing from SecurityMetrics.
[[nodiscard]] std::vector<PathClass> aggregate_path_classes(
    const Harm& model, const std::function<std::string(GraphNodeId)>& label,
    const PathEnumerationOptions& options = {}, PathEnumerationStats* stats = nullptr);

/// Effort-weighted exposure of a network under an attacker allocation:
/// sum_c weights[c] * classes[c].success_probability.  `weights` must have
/// one entry per class (throws std::invalid_argument otherwise).  This is
/// the coupling term of the game's defender constraint: the defender's
/// feasible cadences depend on where the attacker concentrates effort.
[[nodiscard]] double weighted_exposure(const std::vector<PathClass>& classes,
                                       const std::vector<double>& weights);

}  // namespace patchsec::harm
