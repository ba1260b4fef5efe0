#pragma once
// The reachability-based dynamic oracles of the static model verifier
// (petri::verify), kept as test code: analyze_structure explores the net and
// reports dead transitions, place bounds and token conservation, which the
// static certificates must agree with (test_verify, test_extended_metrics);
// transient_states finds the leaking strongly connected components of the
// lowered chain, the dynamic half of V-ERGO-003/-004, and is_irreducible
// checks that the chain is one communicating class.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "patchsec/ctmc/ctmc.hpp"
#include "patchsec/petri/reachability.hpp"
#include "patchsec/petri/srn_model.hpp"

namespace structural_oracle {

using patchsec::ctmc::Ctmc;
using patchsec::ctmc::StateIndex;
using patchsec::petri::Marking;
using patchsec::petri::PlaceId;
using patchsec::petri::ReachabilityGraph;
using patchsec::petri::ReachabilityOptions;
using patchsec::petri::SrnModel;
using patchsec::petri::TokenCount;
using patchsec::petri::TransitionId;

struct StructuralReport {
  /// Transitions never enabled in any reachable (tangible or intermediate)
  /// marking.  Dead timed transitions usually indicate a wrong guard.
  std::vector<TransitionId> dead_transitions;
  /// Max token count observed per place over tangible markings.
  std::vector<TokenCount> place_bounds;
  /// Largest total token count over tangible markings (boundedness witness).
  TokenCount max_total_tokens = 0;
  /// True when every tangible marking carries the same total token count
  /// (the net conserves tokens — holds for all the availability models).
  bool conservative = true;
};

/// Analyze a net over an already-built reachability graph.  `graph` must
/// have been built from `model`; `options` only supplies
/// `max_vanishing_depth` for the immediate-transition liveness probe.
inline StructuralReport analyze_structure(const SrnModel& model, const ReachabilityGraph& graph,
                                          const ReachabilityOptions& options = {}) {
  StructuralReport report;
  report.place_bounds.assign(model.place_count(), 0);

  std::vector<bool> fired(model.transition_count(), false);
  bool first = true;
  TokenCount reference_total = 0;
  for (const Marking& m : graph.tangible_markings) {
    TokenCount total = 0;
    for (PlaceId p = 0; p < model.place_count(); ++p) {
      report.place_bounds[p] = std::max(report.place_bounds[p], m[p]);
      total += m[p];
    }
    report.max_total_tokens = std::max(report.max_total_tokens, total);
    if (first) {
      reference_total = total;
      first = false;
    } else if (total != reference_total) {
      report.conservative = false;
    }
    // Record enabled transitions (timed in tangibles; immediates can only be
    // enabled in vanishing markings, so probe them on successors of firings).
    for (TransitionId t = 0; t < model.transition_count(); ++t) {
      if (model.is_enabled(t, m)) fired[t] = true;
    }
    // Probe vanishing markings reachable by one timed firing for immediates.
    for (TransitionId t : model.enabled_timed(m)) {
      Marking succ = model.fire(t, m);
      for (std::size_t depth = 0; depth < options.max_vanishing_depth; ++depth) {
        const std::vector<TransitionId> immediates = model.enabled_immediates(succ);
        if (immediates.empty()) break;
        for (TransitionId imm : immediates) fired[imm] = true;
        succ = model.fire(immediates.front(), succ);
      }
    }
  }
  for (TransitionId t = 0; t < model.transition_count(); ++t) {
    if (!fired[t]) report.dead_transitions.push_back(t);
  }
  return report;
}

/// As above, exploring the reachability graph with `options` first.
inline StructuralReport analyze_structure(const SrnModel& model,
                                          const ReachabilityOptions& options = {}) {
  return analyze_structure(model, patchsec::petri::build_reachability_graph(model, options),
                           options);
}

/// Off-diagonal successors of every state, read from the chain's generator.
inline std::vector<std::vector<StateIndex>> successor_lists(const Ctmc& chain) {
  const auto& q = chain.generator();
  std::vector<std::vector<StateIndex>> successors(chain.state_count());
  for (StateIndex s = 0; s < chain.state_count(); ++s) {
    for (std::size_t k = q.row_offsets()[s]; k < q.row_offsets()[s + 1]; ++k) {
      if (q.col_indices()[k] != s) successors[s].push_back(q.col_indices()[k]);
    }
  }
  return successors;
}

/// Strongly connected component id of every state (iterative Tarjan).
struct Components {
  std::vector<std::size_t> of;
  std::size_t count = 0;
};

inline Components strong_components(const std::vector<std::vector<StateIndex>>& successors) {
  const std::size_t n = successors.size();
  // Iterative Tarjan SCC (explicit stack — chains can be deep).
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  std::vector<std::size_t> index(n, kUnvisited), lowlink(n, 0);
  Components components{std::vector<std::size_t>(n, kUnvisited), 0};
  std::vector<bool> on_stack(n, false);
  std::vector<StateIndex> stack;
  std::size_t next_index = 0;
  struct Frame {
    StateIndex state;
    std::size_t next_succ;
  };
  std::vector<Frame> call_stack;
  for (StateIndex root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    call_stack.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const StateIndex v = frame.state;
      if (frame.next_succ < successors[v].size()) {
        const StateIndex w = successors[v][frame.next_succ++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      } else {
        if (lowlink[v] == index[v]) {
          StateIndex w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            components.of[w] = components.count;
          } while (w != v);
          ++components.count;
        }
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const StateIndex parent = call_stack.back().state;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
      }
    }
  }
  return components;
}

/// True when every state can reach every other state (one communicating
/// class) — the precondition for a meaningful stationary distribution.
inline bool is_irreducible(const Ctmc& chain) {
  return chain.state_count() > 0 && strong_components(successor_lists(chain)).count == 1;
}

/// States whose strongly connected component has a transition into another
/// component: once left they are never revisited, so their long-run
/// probability is zero.  An ergodic chain has none; a net-level trap
/// surfaces here as a nonempty transient set.
inline std::vector<StateIndex> transient_states(const Ctmc& chain) {
  const std::vector<std::vector<StateIndex>> successors = successor_lists(chain);
  const Components components = strong_components(successors);
  std::vector<bool> component_leaks(components.count, false);
  for (StateIndex s = 0; s < successors.size(); ++s) {
    for (const StateIndex t : successors[s]) {
      if (components.of[s] != components.of[t]) component_leaks[components.of[s]] = true;
    }
  }
  std::vector<StateIndex> result;
  for (StateIndex s = 0; s < successors.size(); ++s) {
    if (component_leaks[components.of[s]]) result.push_back(s);
  }
  return result;
}

}  // namespace structural_oracle
