#include "patchsec/harm/extended_metrics.hpp"

#include <algorithm>

namespace patchsec::harm {

ExtendedMetrics evaluate_extended(const Harm& model) {
  ExtendedMetrics m;
  const std::vector<AttackPath> paths = model.attack_paths();
  if (paths.empty()) return m;

  m.shortest_path_length = paths.front().nodes.size();
  double prob_sum = 0.0;
  double best_risk = -1.0;
  for (const AttackPath& p : paths) {
    m.shortest_path_length = std::min(m.shortest_path_length, p.nodes.size());
    m.longest_path_length = std::max(m.longest_path_length, p.nodes.size());
    prob_sum += p.probability;
    const double risk = p.impact * p.probability;
    m.total_risk += risk;
    if (risk > best_risk) {
      best_risk = risk;
      m.riskiest_path = p;
    }
  }
  m.mean_path_probability = prob_sum / static_cast<double>(paths.size());
  return m;
}

std::vector<NodeCriticality> rank_node_criticality(const Harm& model) {
  const std::vector<AttackPath> paths = model.attack_paths();
  // evaluate_extended's total_risk, summed in the same order from this list.
  double total_risk = 0.0;
  for (const AttackPath& p : paths) total_risk += p.impact * p.probability;
  const AttackGraph& g = model.graph();

  std::vector<NodeCriticality> ranking;
  for (GraphNodeId n = 0; n < g.node_count(); ++n) {
    if (n == g.attacker() || !model.attackable(n)) continue;
    NodeCriticality c;
    c.node = n;
    c.name = g.name(n);

    std::size_t through = 0;
    double remaining_risk = 0.0;
    for (const AttackPath& p : paths) {
      const bool passes = std::find(p.nodes.begin(), p.nodes.end(), n) != p.nodes.end();
      if (passes) {
        ++through;
      } else {
        remaining_risk += p.impact * p.probability;
      }
    }
    c.path_fraction =
        paths.empty() ? 0.0 : static_cast<double>(through) / static_cast<double>(paths.size());
    c.risk_reduction = total_risk - remaining_risk;
    ranking.push_back(std::move(c));
  }
  std::sort(ranking.begin(), ranking.end(), [](const NodeCriticality& a, const NodeCriticality& b) {
    if (a.risk_reduction != b.risk_reduction) return a.risk_reduction > b.risk_reduction;
    return a.name < b.name;
  });
  return ranking;
}

}  // namespace patchsec::harm
