#include "patchsec/harm/path_classes.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "path_walk.hpp"

namespace patchsec::harm {

std::string PathClass::name() const {
  std::string out;
  for (std::size_t i = 0; i < signature.size(); ++i) {
    if (i > 0) out += '-';
    out += signature[i];
  }
  return out;
}

namespace {

/// A label-prefix trie edge: the trie node of a prefix plus the label id of
/// the node that extends it.
struct TrieEdge {
  std::size_t parent = static_cast<std::size_t>(-1);
  std::size_t label = 0;
  bool operator==(const TrieEdge&) const = default;
};

struct TrieEdgeHash {
  std::size_t operator()(const TrieEdge& e) const noexcept {
    return e.parent * 0x9E3779B97F4A7C15ULL ^ e.label;
  }
};

}  // namespace

std::vector<PathClass> aggregate_path_classes(
    const Harm& model, const std::function<std::string(GraphNodeId)>& label,
    const PathEnumerationOptions& options, PathEnumerationStats* stats) {
  if (!label) throw std::invalid_argument("aggregate_path_classes: null label function");
  const std::size_t nodes = model.graph().node_count();

  // Label every node once, interning equal labels to one id.
  std::vector<std::string> labels;
  std::vector<std::size_t> node_label(nodes);
  {
    std::unordered_map<std::string, std::size_t> ids;
    for (GraphNodeId n = 0; n < nodes; ++n) {
      const auto [it, inserted] = ids.try_emplace(label(n), labels.size());
      if (inserted) labels.push_back(it->first);
      node_label[n] = it->second;
    }
  }

  // A class is a node of the label-prefix trie (node 0 is the empty
  // signature); trie[t] is the edge that created node t and classes[t]
  // accumulates the paths whose labels spell it.  prefix_class[d] is the
  // trie node of the walk's current d-node prefix.  The walk runs over the
  // replica-group quotient refined by label, so every walk node has one
  // label: its representative's.
  const detail::WalkGraph walk = detail::quotient_walk_graph(model, &node_label);
  std::vector<TrieEdge> trie(1);
  std::vector<PathClass> classes(1);
  std::vector<double> log_miss(1, 0.0);  // per class: sum of m * log1p(-p)
  std::unordered_map<TrieEdge, std::size_t, TrieEdgeHash> children;
  std::vector<std::size_t> prefix_class(nodes + 1, 0);

  detail::PathPrefixes prefix(model, walk);
  const PathEnumerationStats totals = detail::walk_attack_paths(
      walk, options,
      [&](GraphNodeId v, std::size_t depth) {
        prefix.enter(v, depth);
        const TrieEdge edge{prefix_class[depth - 1], node_label[walk.representative[v]]};
        const auto [it, inserted] = children.try_emplace(edge, trie.size());
        if (inserted) {
          trie.push_back(edge);
          classes.emplace_back();
          log_miss.push_back(0.0);
        }
        prefix_class[depth] = it->second;
      },
      [&](std::span<const GraphNodeId> path, std::size_t multiplicity) {
        const double impact = prefix.impact(path.size());
        const double probability = prefix.probability(path.size());
        const std::size_t c = prefix_class[path.size()];
        PathClass& cls = classes[c];
        const auto m = static_cast<double>(multiplicity);
        // Cannot overflow: the walk checked the instance total it belongs to.
        cls.instance_paths += multiplicity;
        cls.max_impact = std::max(cls.max_impact, impact);
        // Members are independent alternatives of one attack strategy.
        log_miss[c] += m * std::log1p(-probability);
        cls.total_risk += m * (impact * probability);
      });
  if (stats != nullptr) *stats = totals;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    classes[c].success_probability = -std::expm1(log_miss[c]);
  }

  std::vector<PathClass> out;
  for (std::size_t t = 0; t < trie.size(); ++t) {
    if (classes[t].instance_paths == 0) continue;
    PathClass& cls = out.emplace_back(std::move(classes[t]));
    for (std::size_t at = t; at != 0; at = trie[at].parent) {
      cls.signature.push_back(labels[trie[at].label]);
    }
    std::reverse(cls.signature.begin(), cls.signature.end());
  }
  // The canonical (lexicographic) class order.
  std::sort(out.begin(), out.end(),
            [](const PathClass& a, const PathClass& b) { return a.signature < b.signature; });
  return out;
}

double weighted_exposure(const std::vector<PathClass>& classes,
                         const std::vector<double>& weights) {
  if (weights.size() != classes.size()) {
    throw std::invalid_argument("weighted_exposure: one weight per class required");
  }
  double exposure = 0.0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    exposure += weights[c] * classes[c].success_probability;
  }
  return exposure;
}

}  // namespace patchsec::harm
