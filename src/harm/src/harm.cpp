#include "patchsec/harm/harm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "path_walk.hpp"

namespace patchsec::harm {

Harm::Harm(AttackGraph graph) : Harm(std::make_shared<const AttackGraph>(std::move(graph))) {}

Harm::Harm(std::shared_ptr<const AttackGraph> graph)
    : graph_(std::move(graph)), group_of_(graph_->node_count(), kNoGroup) {}

void Harm::attach_tree(GraphNodeId node, AttackTree tree) {
  attach_replicas(std::span<const GraphNodeId>(&node, 1), std::move(tree));
}

void Harm::attach_replicas(std::span<const GraphNodeId> replicas, AttackTree tree) {
  if (replicas.empty()) throw std::invalid_argument("attach_replicas: empty replica group");
  std::vector<GraphNodeId> members(replicas.begin(), replicas.end());
  for (GraphNodeId n : members) {
    if (n >= graph_->node_count()) throw std::out_of_range("attach_tree: unknown node");
    if (n == graph_->attacker()) throw std::invalid_argument("attacker carries no attack tree");
  }
  std::sort(members.begin(), members.end());
  if (std::adjacent_find(members.begin(), members.end()) != members.end()) {
    throw std::invalid_argument("attach_replicas: a node is listed twice");
  }

  const std::size_t existing = group_of_[members.front()];
  if (existing != kNoGroup && groups_[existing].members == members) {
    groups_[existing].tree = std::move(tree);
    return;
  }
  for (GraphNodeId n : members) {
    if (group_of_[n] != kNoGroup) {
      throw std::invalid_argument("attach_replicas: node " + graph_->name(n) +
                                  " already belongs to another replica group");
    }
  }
  if (members.size() > 1) check_equivalent(members);

  for (GraphNodeId n : members) group_of_[n] = groups_.size();
  groups_.push_back(ReplicaGroup{std::move(members), std::move(tree)});
}

void Harm::check_equivalent(const std::vector<GraphNodeId>& members) const {
  const auto refuse = [this, &members](const std::string& why) {
    throw std::invalid_argument("attach_replicas: " + graph_->name(members.front()) + " group " +
                                why);
  };
  enum : std::uint8_t { kMember = 1, kFirstSuccessor = 2, kTarget = 4 };
  std::vector<std::uint8_t> mark(graph_->node_count(), 0);
  for (GraphNodeId n : members) mark[n] |= kMember;
  for (GraphNodeId t : graph_->targets()) mark[t] |= kTarget;

  // Successor lists hold no duplicates, so a member with as many successors
  // as the first, all of them the first's, has the first's successor set.
  const std::vector<GraphNodeId>& first = graph_->successors(members.front());
  for (GraphNodeId s : first) mark[s] |= kFirstSuccessor;
  for (GraphNodeId n : members) {
    const std::vector<GraphNodeId>& successors = graph_->successors(n);
    for (GraphNodeId s : successors) {
      if ((mark[s] & kMember) != 0) refuse("has an edge between two members");
      if ((mark[s] & kFirstSuccessor) == 0) refuse("members have different successors");
    }
    if (successors.size() != first.size()) refuse("members have different successors");
    if ((mark[n] & kTarget) != (mark[members.front()] & kTarget)) {
      refuse("mixes targets and non-targets");
    }
  }
  // Likewise every node reaches either all members or none of them when the
  // predecessor sets agree.
  for (GraphNodeId from = 0; from < graph_->node_count(); ++from) {
    const std::vector<GraphNodeId>& successors = graph_->successors(from);
    const auto into_group = static_cast<std::size_t>(
        std::count_if(successors.begin(), successors.end(),
                      [&mark](GraphNodeId s) { return (mark[s] & kMember) != 0; }));
    if (into_group != 0 && into_group != members.size()) {
      refuse("members have different predecessors");
    }
  }
}

std::span<const GraphNodeId> Harm::replicas(GraphNodeId node) const {
  const std::size_t group = group_of_.at(node);
  if (group == kNoGroup) return {};
  return groups_[group].members;
}

const AttackTree& Harm::tree(GraphNodeId node) const {
  const std::size_t group = node < group_of_.size() ? group_of_[node] : kNoGroup;
  if (group == kNoGroup) throw std::out_of_range("no tree attached to node");
  return groups_[group].tree;
}

bool Harm::attackable(GraphNodeId node) const {
  const std::size_t group = node < group_of_.size() ? group_of_[node] : kNoGroup;
  return group != kNoGroup && !groups_[group].tree.infeasible();
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
  std::vector<bool> mask(graph_->node_count());
  for (GraphNodeId n = 0; n < mask.size(); ++n) mask[n] = attackable(n);
  const detail::WalkGraph walk = detail::instance_walk_graph(*graph_, mask);
  detail::PathPrefixes prefix(*this, walk);
  std::vector<AttackPath> out;
  const PathEnumerationStats totals = detail::walk_attack_paths(
      walk, options, [&prefix](GraphNodeId n, std::size_t depth) { prefix.enter(n, depth); },
      [&](std::span<const GraphNodeId> path, std::size_t /*multiplicity is 1*/) {
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
  const detail::WalkGraph walk = detail::quotient_walk_graph(*this, nullptr);
  detail::PathPrefixes prefix(*this, walk);
  double log_miss = 0.0;  // sum over instance paths of log(1 - asp_path)
  std::vector<bool> is_entry(walk.capacity.size(), false);
  const PathEnumerationStats stats = detail::walk_attack_paths(
      walk, options, [&prefix](GraphNodeId n, std::size_t depth) { prefix.enter(n, depth); },
      [&](std::span<const GraphNodeId> path, std::size_t multiplicity) {
        m.attack_impact = std::max(m.attack_impact, prefix.impact(path.size()));
        log_miss += static_cast<double>(multiplicity) *
                    std::log1p(-prefix.probability(path.size()));
        // A replica group is an entry point with every one of its members.
        if (!path.empty() && !is_entry[path.front()]) {
          is_entry[path.front()] = true;
          m.entry_points += walk.capacity[path.front()];
        }
      });
  m.attack_paths = stats.enumerated - stats.truncated;
  m.truncated_paths = stats.truncated;
  m.attack_success_probability = m.attack_paths == 0 ? 0.0 : -std::expm1(log_miss);

  // NoEV counts leftover exploitable vulnerabilities on *every* server in
  // the network, whether or not it still lies on a path.
  for (const ReplicaGroup& group : groups_) {
    m.exploitable_vulnerabilities +=
        group.members.size() * group.tree.exploitable_vulnerability_count();
  }
  return m;
}

Harm Harm::after_patch(const std::function<bool(const nvd::Vulnerability&)>& patched) const {
  Harm out(graph_);  // the graph is immutable and shared
  out.group_of_ = group_of_;
  out.groups_.reserve(groups_.size());
  for (const ReplicaGroup& group : groups_) {
    out.groups_.push_back(ReplicaGroup{group.members, group.tree.after_patch(patched)});
  }
  return out;
}

Harm Harm::after_critical_patch() const {
  return after_patch([](const nvd::Vulnerability& v) { return v.is_critical(); });
}

}  // namespace patchsec::harm
