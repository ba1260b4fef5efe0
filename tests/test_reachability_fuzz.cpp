// Property-based fuzz test for the reachability explorer's marking interner:
// randomized nets that overflow the packed-u64 fast path (more than 8 places
// and token counts beyond the per-place bit budget) must fall back to the
// general map and still produce the same reachability graph — state count,
// marking set, edge multiset and initial distribution — as a naive reference
// explorer built directly on the SrnModel semantics API.
//
// Two overflow modes are exercised: nets whose *initial* marking is already
// unpackable (the interner flips to the fallback on the very first lookup)
// and nets that start packable but cross the token limit mid-exploration
// (the fallback map is materialized from the markings discovered so far).
// Every other net drops its immediate transitions, so the explorer fires on
// the packed key until a field leaves its range and that firing falls back
// to the Marking path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "patchsec/petri/reachability.hpp"
#include "patchsec/petri/srn_model.hpp"

namespace pt = patchsec::petri;

namespace {

// ---------------------------------------------------------------------------
// Naive reference explorer: std::map-based BFS with recursive vanishing
// elimination, written against the slow SrnModel API only (fire/enabled_*),
// sharing no code with build_reachability_graph.
// ---------------------------------------------------------------------------

struct RefGraph {
  std::vector<pt::Marking> markings;  // tangible, discovery order
  std::map<pt::Marking, std::size_t> index;
  std::map<std::pair<std::size_t, std::size_t>, double> edges;  // (from,to) -> rate
  std::map<pt::Marking, double> initial;
};

void ref_resolve(const pt::SrnModel& model, const pt::Marking& m, double probability,
                 std::size_t depth, std::map<pt::Marking, double>& out) {
  ASSERT_LT(depth, 4096u) << "reference explorer: vanishing loop";
  const std::vector<pt::TransitionId> immediates = model.enabled_immediates(m);
  if (immediates.empty()) {
    out[m] += probability;
    return;
  }
  double total_weight = 0.0;
  for (pt::TransitionId t : immediates) total_weight += model.weight(t);
  for (pt::TransitionId t : immediates) {
    ref_resolve(model, model.fire(t, m), probability * (model.weight(t) / total_weight),
                depth + 1, out);
  }
}

RefGraph ref_explore(const pt::SrnModel& model) {
  RefGraph graph;
  const auto intern = [&graph](const pt::Marking& m) -> std::size_t {
    const auto [it, inserted] = graph.index.try_emplace(m, graph.markings.size());
    if (inserted) graph.markings.push_back(m);
    return it->second;
  };

  ref_resolve(model, model.initial_marking(), 1.0, 0, graph.initial);
  std::vector<std::size_t> frontier;
  for (const auto& [m, p] : graph.initial) frontier.push_back(intern(m));

  std::set<std::size_t> expanded;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const std::size_t from = frontier[head];
    if (!expanded.insert(from).second) continue;
    const pt::Marking current = graph.markings[from];
    for (pt::TransitionId t : model.enabled_timed(current)) {
      const double rate = model.rate(t, current);
      std::map<pt::Marking, double> successors;
      ref_resolve(model, model.fire(t, current), 1.0, 0, successors);
      for (const auto& [m2, p] : successors) {
        const std::size_t to = intern(m2);
        if (expanded.find(to) == expanded.end()) frontier.push_back(to);
        if (to == from) continue;  // net self loop: dropped, as in production
        graph.edges[{from, to}] += rate * p;
      }
    }
  }
  return graph;
}

// ---------------------------------------------------------------------------
// Random net shapes.  All nets have > 8 places (so the packed key gets at
// most 7 bits per place, limit 127 tokens) and a token population chosen to
// overflow that limit either immediately or mid-exploration, while the
// reachable state space stays small: a "bank" place holds the bulk of the
// tokens and only a handful of mobile tokens move.
// ---------------------------------------------------------------------------

struct FuzzNet {
  pt::SrnModel model;
  bool overflow_from_start = false;
  bool with_immediates = true;
};

FuzzNet random_net(std::mt19937_64& rng, bool with_immediates) {
  FuzzNet result;
  result.with_immediates = with_immediates;
  pt::SrnModel& net = result.model;
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_real_distribution<double> rate_dist(0.25, 5.0);
  std::uniform_real_distribution<double> weight_dist(0.5, 4.0);

  result.overflow_from_start = coin(rng) == 1;

  // Bank + feeder: either the bank starts beyond the 7-bit limit (127), or
  // it starts below and a pump transition pushes it across mid-exploration.
  // Token counts beyond 255 are exercised by the from-start variant.
  std::uniform_int_distribution<pt::TokenCount> big(260, 900);
  const pt::TokenCount bank_start =
      result.overflow_from_start ? big(rng) : static_cast<pt::TokenCount>(120);
  const auto bank = net.add_place("bank", bank_start);
  const auto feeder = net.add_place("feeder", 3);

  // Mobile cycle m0 -> m1 -> m2 -> m0 with one token.
  const auto m0 = net.add_place("m0", 1);
  const auto m1 = net.add_place("m1", 0);
  const auto m2 = net.add_place("m2", 0);
  const auto choice = net.add_place("choice", 0);
  // Padding places so place_count > 8 (bits = 64 / place_count <= 7).
  std::uniform_int_distribution<int> pad_dist(3, 6);
  const int pads = pad_dist(rng);
  for (int i = 0; i < pads; ++i) net.add_place("pad" + std::to_string(i), i == 0 ? 1 : 0);

  const auto t01 = net.add_timed_transition("t01", rate_dist(rng));
  net.add_input_arc(t01, m0);
  net.add_output_arc(t01, m1);
  const auto t12 = net.add_timed_transition("t12", rate_dist(rng));
  net.add_input_arc(t12, m1);
  net.add_output_arc(t12, m2);
  const auto t20 = net.add_timed_transition("t20", rate_dist(rng));
  net.add_input_arc(t20, m2);
  net.add_output_arc(t20, m0);

  // Pump: drains the feeder, adding 10 tokens to the bank per firing — in
  // the mid-exploration variant the bank crosses 127 on the first firing.
  const auto pump = net.add_timed_transition("pump", rate_dist(rng));
  net.add_input_arc(pump, feeder);
  net.add_output_arc(pump, bank, 10);

  // Branch through a vanishing marking: m0 -> choice, then immediates split
  // choice back to m1 / m2 by random weight.  Every second net gives the
  // second branch higher priority (it must then win outright).  The draws
  // happen either way, so both variants see the same random stream.
  const double go_rate = rate_dist(rng);
  const bool priority_race = coin(rng) == 1;
  const double ia_weight = weight_dist(rng);
  const double ib_weight = weight_dist(rng);
  if (with_immediates) {
    const auto go = net.add_timed_transition("go", go_rate);
    net.add_input_arc(go, m0);
    net.add_output_arc(go, choice);
    const auto ia = net.add_immediate_transition("ia", ia_weight, 1);
    net.add_input_arc(ia, choice);
    net.add_output_arc(ia, m1);
    const auto ib = net.add_immediate_transition("ib", ib_weight, priority_race ? 2 : 1);
    net.add_input_arc(ib, choice);
    net.add_output_arc(ib, m2);
  }

  // A marking-dependent rate, a guard and an inhibitor arc, so the fallback
  // path sees every enabling feature: shortcut m1 -> m0, rate growing with
  // the bank, guarded off until the pump has started draining the feeder,
  // inhibited once the feeder is empty.
  const auto shortcut = net.add_timed_transition("shortcut", 0.001, bank);
  net.add_input_arc(shortcut, m1);
  net.add_output_arc(shortcut, m0);
  net.add_inhibitor_arc(shortcut, feeder, 4);  // feeder <= 3 everywhere: never blocks
  net.set_guard(shortcut, [](const pt::Marking& m) { return m[1] <= 2; });  // feeder drained a bit

  // Occasionally a transition whose firing has zero net effect (produces a
  // pure self loop, which both explorers must drop).
  if (coin(rng) == 1) {
    const auto pad0 = net.place("pad0");
    const auto park = net.add_timed_transition("park", rate_dist(rng));
    net.add_input_arc(park, pad0);
    net.add_output_arc(park, pad0);
  }
  return result;
}

void expect_graphs_equal(const pt::SrnModel& model) {
  const pt::ReachabilityGraph graph = pt::build_reachability_graph(model);
  const RefGraph ref = ref_explore(model);

  ASSERT_EQ(graph.tangible_count(), ref.markings.size());

  // Same marking set.
  std::set<pt::Marking> production_set(graph.tangible_markings.begin(),
                                       graph.tangible_markings.end());
  std::set<pt::Marking> reference_set(ref.markings.begin(), ref.markings.end());
  ASSERT_EQ(production_set, reference_set);

  // Same edge multiset, keyed by (from-marking, to-marking), rates summed:
  // the generator's off-diagonal entries.
  std::map<std::pair<pt::Marking, pt::Marking>, double> production_edges;
  const auto& q = graph.chain.generator();
  for (std::size_t from = 0; from < graph.tangible_count(); ++from) {
    for (std::size_t k = q.row_offsets()[from]; k < q.row_offsets()[from + 1]; ++k) {
      const std::size_t to = q.col_indices()[k];
      if (to == from) continue;
      production_edges[{graph.tangible_markings[from], graph.tangible_markings[to]}] +=
          q.values()[k];
    }
  }
  std::map<std::pair<pt::Marking, pt::Marking>, double> reference_edges;
  for (const auto& [key, rate] : ref.edges) {
    reference_edges[{ref.markings[key.first], ref.markings[key.second]}] += rate;
  }
  ASSERT_EQ(production_edges.size(), reference_edges.size());
  for (const auto& [key, rate] : reference_edges) {
    const auto it = production_edges.find(key);
    ASSERT_NE(it, production_edges.end())
        << "missing edge " << pt::to_string(key.first) << " -> " << pt::to_string(key.second);
    EXPECT_NEAR(it->second, rate, 1e-9 * std::max(1.0, std::abs(rate)));
  }

  // Same initial distribution.
  double mass = 0.0;
  for (std::size_t i = 0; i < graph.tangible_count(); ++i) {
    const double p = graph.initial_distribution[i];
    mass += p;
    const auto it = ref.initial.find(graph.tangible_markings[i]);
    if (it == ref.initial.end()) {
      EXPECT_EQ(p, 0.0);
    } else {
      EXPECT_NEAR(p, it->second, 1e-12);
    }
  }
  EXPECT_NEAR(mass, 1.0, 1e-12);
}

}  // namespace

TEST(ReachabilityFuzz, OverflowingNetsMatchNaiveReference) {
  std::mt19937_64 rng(20170626);
  int from_start = 0, mid_exploration = 0, packed_mid_exploration = 0;
  for (int iteration = 0; iteration < 60; ++iteration) {
    FuzzNet fuzz = random_net(rng, iteration % 2 == 0);
    (fuzz.overflow_from_start ? from_start : mid_exploration) += 1;
    if (!fuzz.overflow_from_start && !fuzz.with_immediates) ++packed_mid_exploration;

    // The packed fast path must actually be overflowed: > 8 places caps the
    // per-place budget at 7 bits (limit 127), and the reachable space holds
    // a marking beyond it.
    const pt::ReachabilityGraph graph = pt::build_reachability_graph(fuzz.model);
    pt::TokenCount max_tokens = 0;
    for (const pt::Marking& m : graph.tangible_markings) {
      for (pt::TokenCount t : m) max_tokens = std::max(max_tokens, t);
    }
    ASSERT_GT(fuzz.model.place_count(), 8u);
    ASSERT_GT(max_tokens, 127u) << "net failed to overflow the packed-u64 limit";
    if (fuzz.overflow_from_start) {
      ASSERT_GT(max_tokens, 255u);
    }

    expect_graphs_equal(fuzz.model);
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "failing iteration " << iteration << " (rerun with this index)";
      return;
    }
  }
  // Both overflow modes must have been exercised.
  EXPECT_GT(from_start, 0);
  EXPECT_GT(mid_exploration, 0);
  EXPECT_GT(packed_mid_exploration, 0);
}

// Control: a same-shaped family that stays below the packing limit (bank
// peaks at 90 < 127 tokens across 9 places, 7 bits each) keeps the fast path
// and must agree with the reference too — guards against the fallback being
// silently always-on.
TEST(ReachabilityFuzz, PackableControlNetsMatchNaiveReference) {
  for (int iteration = 0; iteration < 20; ++iteration) {
    pt::SrnModel net;
    const auto bank = net.add_place("bank", 60);
    const auto feeder = net.add_place("feeder", 3);
    const auto m0 = net.add_place("m0", 1);
    const auto m1 = net.add_place("m1", 0);
    for (int i = 0; i < 5; ++i) net.add_place("pad" + std::to_string(i), 0);
    const auto t01 = net.add_timed_transition("t01", 1.0 + iteration);
    net.add_input_arc(t01, m0);
    net.add_output_arc(t01, m1);
    const auto t10 = net.add_timed_transition("t10", 2.0);
    net.add_input_arc(t10, m1);
    net.add_output_arc(t10, m0);
    const auto pump = net.add_timed_transition("pump", 0.5);
    net.add_input_arc(pump, feeder);
    net.add_output_arc(pump, bank, 10);
    expect_graphs_equal(net);
    if (::testing::Test::HasFatalFailure()) return;
  }
}
