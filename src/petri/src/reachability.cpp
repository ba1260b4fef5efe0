#include "patchsec/petri/reachability.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "patchsec/linalg/stationary_solver.hpp"
#include "patchsec/petri/compiled_net.hpp"

namespace patchsec::petri {

namespace {

// ---------------------------------------------------------------------------
// Explorer: owns every buffer the exploration loop touches, so expanding a
// marking performs no allocation once the pools are warm.  Vanishing-marking
// elimination runs on an explicit stack (pooled entries) instead of
// recursion, and successor distributions accumulate into a pooled flat list
// (the per-firing fan-out is tiny, so a linear membership scan beats a hash
// map rebuilt per firing).
// ---------------------------------------------------------------------------

class Explorer {
 public:
  Explorer(const SrnModel& model, const ReachabilityOptions& options)
      : net_(model), options_(options) {}

  struct Successor {
    Marking marking;
    double probability = 0.0;
  };

  [[nodiscard]] const CompiledNet& net() const noexcept { return net_; }

  /// Resolve `start` (possibly vanishing) into a distribution over tangible
  /// markings; results are in successors()[0..successor_count()).
  void resolve_vanishing(const Marking& start, std::size_t& vanishing_seen) {
    succ_count_ = 0;
    stack_count_ = 0;
    push_entry(start, 1.0, 0);
    drain(vanishing_seen);
  }

  /// Resolve the firing of `t` in tangible marking `m` (skips the stack when
  /// the net has no immediate transitions at all — the common upper-layer
  /// case — and fires straight into the successor pool).
  void resolve_firing(const CompiledTransition& t, const Marking& m,
                      std::size_t& vanishing_seen) {
    succ_count_ = 0;
    if (!net_.has_immediates()) {
      Successor& s = acquire_successor();
      net_.fire_into(t, m, s.marking);
      s.probability = 1.0;
      return;
    }
    stack_count_ = 0;
    StackEntry& e = acquire_entry();
    net_.fire_into(t, m, e.marking);
    e.probability = 1.0;
    e.depth = 0;
    drain(vanishing_seen);
  }

  [[nodiscard]] const Successor* successors() const noexcept { return succ_.data(); }
  [[nodiscard]] std::size_t successor_count() const noexcept { return succ_count_; }

  std::vector<const CompiledTransition*> timed_scratch;

 private:
  struct StackEntry {
    Marking marking;
    double probability = 0.0;
    std::size_t depth = 0;
  };

  StackEntry& acquire_entry() {
    if (stack_count_ == stack_.size()) stack_.emplace_back();
    return stack_[stack_count_++];
  }

  void push_entry(const Marking& m, double probability, std::size_t depth) {
    StackEntry& e = acquire_entry();
    e.marking = m;
    e.probability = probability;
    e.depth = depth;
  }

  Successor& acquire_successor() {
    if (succ_count_ == succ_.size()) succ_.emplace_back();
    return succ_[succ_count_++];
  }

  void accumulate(const Marking& m, double probability) {
    for (std::size_t i = 0; i < succ_count_; ++i) {
      if (succ_[i].marking == m) {
        succ_[i].probability += probability;
        return;
      }
    }
    Successor& s = acquire_successor();
    s.marking = m;
    s.probability = probability;
  }

  void drain(std::size_t& vanishing_seen) {
    while (stack_count_ > 0) {
      // Swap the popped marking into the cursor buffer so the slot (and its
      // heap storage) is immediately reusable for pushed children.
      StackEntry& top = stack_[--stack_count_];
      cursor_.swap(top.marking);
      const double probability = top.probability;
      const std::size_t depth = top.depth;
      if (depth > options_.max_vanishing_depth) {
        throw std::runtime_error("SRN contains a vanishing loop (immediate-transition cycle)");
      }
      net_.enabled_immediates_into(cursor_, immediate_scratch_);
      if (immediate_scratch_.empty()) {
        accumulate(cursor_, probability);
        continue;
      }
      ++vanishing_seen;
      double total_weight = 0.0;
      for (const CompiledTransition* t : immediate_scratch_) total_weight += t->weight;
      for (const CompiledTransition* t : immediate_scratch_) {
        StackEntry& child = acquire_entry();
        net_.fire_into(*t, cursor_, child.marking);
        child.probability = probability * (t->weight / total_weight);
        child.depth = depth + 1;
      }
    }
  }

  CompiledNet net_;
  const ReachabilityOptions& options_;

  std::vector<StackEntry> stack_;
  std::size_t stack_count_ = 0;
  std::vector<Successor> succ_;
  std::size_t succ_count_ = 0;
  std::vector<const CompiledTransition*> immediate_scratch_;
  Marking cursor_;
};

// ---------------------------------------------------------------------------
// MarkingInterner: marking -> state-id map for the exploration loop.  When
// every place's token count fits `64 / place_count` bits the marking packs
// into one u64 and lookups go through an open-addressing table (splitmix64
// hash, linear probing) — far cheaper than hashing and comparing Marking
// vectors ~nnz times.  If a token ever outgrows the packing (or there are
// too many places), the interner permanently reports kNotPacked and
// build_reachability_graph falls back to a general unordered_map it
// materializes on demand from the markings discovered so far.
// ---------------------------------------------------------------------------

class MarkingInterner {
 public:
  MarkingInterner(std::size_t place_count, std::size_t reserve) {
    bits_ = place_count == 0 ? 0 : 64 / place_count;
    if (bits_ > 32) bits_ = 32;  // TokenCount is 32-bit; also keeps shifts defined
    packable_ = bits_ >= 2;     // need headroom; nets with > 32 places fall back
    if (packable_) {
      limit_ = bits_ == 32 ? std::numeric_limits<TokenCount>::max()
                           : static_cast<TokenCount>((std::uint64_t{1} << bits_) - 1);
      std::size_t capacity = 64;
      while (capacity < reserve * 2) capacity <<= 1;
      keys_.assign(capacity, 0);
      ids_.assign(capacity, 0);  // id + 1; 0 marks an empty slot
    }
  }

  /// Returns the existing id of `m`, kMissing when absent (the caller
  /// interns it and calls insert()), or kNotPacked when the caller must use
  /// its fallback map.
  [[nodiscard]] std::size_t find(const Marking& m) {
    if (!packable_) return kNotPacked;
    std::uint64_t key;
    if (!pack(m, key)) {
      packable_ = false;  // permanent fallback; the caller's map takes over
      return kNotPacked;
    }
    std::size_t slot = probe_start(key);
    while (ids_[slot] != 0) {
      if (keys_[slot] == key) return ids_[slot] - 1;
      slot = (slot + 1) & (keys_.size() - 1);
    }
    return kMissing;
  }

  void insert(const Marking& m, std::size_t id) {
    if (!packable_) return;
    if (id >= std::numeric_limits<std::uint32_t>::max()) {
      packable_ = false;  // id would not fit the table's u32 payload
      return;
    }
    std::uint64_t key;
    if (!pack(m, key)) {
      packable_ = false;
      return;
    }
    if ((count_ + 1) * 2 > keys_.size()) grow();
    place(key, static_cast<std::uint32_t>(id + 1));
    ++count_;
  }

  /// find() result meaning "not in the table, must be interned".
  static constexpr std::size_t kMissing = std::numeric_limits<std::size_t>::max();
  /// find() result meaning "use the caller's fallback map".
  static constexpr std::size_t kNotPacked = std::numeric_limits<std::size_t>::max() - 1;

 private:
  [[nodiscard]] bool pack(const Marking& m, std::uint64_t& key) const {
    std::uint64_t k = 0;
    for (TokenCount t : m) {
      if (t > limit_) return false;
      k = (k << bits_) | t;
    }
    key = k;
    return true;
  }

  [[nodiscard]] std::size_t probe_start(std::uint64_t key) const {
    // splitmix64 finalizer.
    std::uint64_t h = key + 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
    return static_cast<std::size_t>(h) & (keys_.size() - 1);
  }

  void place(std::uint64_t key, std::uint32_t id_plus_one) {
    std::size_t slot = probe_start(key);
    while (ids_[slot] != 0) slot = (slot + 1) & (keys_.size() - 1);
    keys_[slot] = key;
    ids_[slot] = id_plus_one;
  }

  void grow() {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::uint32_t> old_ids = std::move(ids_);
    keys_.assign(old_keys.size() * 2, 0);
    ids_.assign(old_ids.size() * 2, 0);
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_ids[i] != 0) place(old_keys[i], old_ids[i]);
    }
  }

  bool packable_ = false;
  std::size_t bits_ = 0;
  TokenCount limit_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> ids_;
};

}  // namespace

std::size_t ReachabilityGraph::index_of(const Marking& m) const {
  if (index_.empty() && !tangible_markings.empty()) {
    index_.reserve(tangible_markings.size());
    for (std::size_t i = 0; i < tangible_markings.size(); ++i) {
      index_.emplace(tangible_markings[i], i);
    }
  }
  const auto it = index_.find(m);
  if (it == index_.end()) throw std::out_of_range("unknown tangible marking " + to_string(m));
  return it->second;
}

ReachabilityGraph build_reachability_graph(const SrnModel& model,
                                           const ReachabilityOptions& options) {
  ReachabilityGraph graph;
  const std::size_t reserve = std::min(options.max_tangible_markings, std::size_t{1024});
  graph.tangible_markings.reserve(reserve);

  // Fast path: the packed-u64 interner.  The general unordered_map is only
  // materialized (from the markings discovered so far) if the net stops
  // being packable — most models never allocate it.
  MarkingInterner interner(model.place_count(), reserve);
  std::unordered_map<Marking, std::size_t, MarkingHash> slow_index;
  bool slow_ready = false;
  const auto ensure_slow_index = [&] {
    if (slow_ready) return;
    slow_index.reserve(std::max(reserve, graph.tangible_markings.size()));
    for (std::size_t i = 0; i < graph.tangible_markings.size(); ++i) {
      slow_index.emplace(graph.tangible_markings[i], i);
    }
    slow_ready = true;
  };
  const auto intern = [&](const Marking& m) -> std::size_t {
    const std::size_t fast = interner.find(m);
    if (fast < MarkingInterner::kNotPacked) return fast;
    if (fast == MarkingInterner::kNotPacked) {
      ensure_slow_index();
      const auto it = slow_index.find(m);
      if (it != slow_index.end()) return it->second;
    }
    if (graph.tangible_markings.size() >= options.max_tangible_markings) {
      throw std::runtime_error("tangible state space exceeds configured bound");
    }
    const std::size_t id = graph.tangible_markings.size();
    graph.tangible_markings.push_back(m);
    interner.insert(m, id);
    if (slow_ready) slow_index.emplace(m, id);
    return id;
  };

  Explorer explorer(model, options);

  // Resolve the initial marking (it may be vanishing).
  explorer.resolve_vanishing(model.initial_marking(), graph.vanishing_markings_seen);
  std::vector<std::pair<std::size_t, double>> initial;
  initial.reserve(explorer.successor_count());
  for (std::size_t i = 0; i < explorer.successor_count(); ++i) {
    initial.emplace_back(intern(explorer.successors()[i].marking),
                         explorer.successors()[i].probability);
  }

  // BFS frontier as an index queue.  Markings are interned (and so queued)
  // in discovery order, which makes expansion order identical to state-id
  // order: per-state edge rows can therefore accumulate into flat CSR-style
  // arrays, merged in place, with no (from -> to -> rate) hash maps.
  std::vector<std::size_t> frontier;
  frontier.reserve(reserve);
  for (const auto& [id, p] : initial) frontier.push_back(id);
  std::size_t frontier_head = 0;

  std::vector<std::size_t> edge_row_offsets{0};
  edge_row_offsets.reserve(reserve + 1);
  std::vector<std::size_t> edge_to;
  std::vector<double> edge_rate;

  std::vector<bool> expanded;
  expanded.reserve(reserve);
  Marking current;
  while (frontier_head < frontier.size()) {
    const std::size_t from = frontier[frontier_head++];
    if (from < expanded.size() && expanded[from]) continue;
    expanded.resize(graph.tangible_markings.size(), false);
    expanded[from] = true;

    const std::size_t row_begin = edge_to.size();
    current = graph.tangible_markings[from];  // copy: the vector may grow
    explorer.net().enabled_timed_into(current, explorer.timed_scratch);
    for (const CompiledTransition* t : explorer.timed_scratch) {
      const double r = explorer.net().checked_rate(*t, current);
      explorer.resolve_firing(*t, current, graph.vanishing_markings_seen);
      for (std::size_t i = 0; i < explorer.successor_count(); ++i) {
        const Explorer::Successor& succ = explorer.successors()[i];
        const std::size_t to = intern(succ.marking);
        if (to >= expanded.size() || !expanded[to]) frontier.push_back(to);
        if (to == from) continue;  // net effect is a self loop: drop
        const double rate = r * succ.probability;
        bool merged = false;
        for (std::size_t k = row_begin; k < edge_to.size(); ++k) {
          if (edge_to[k] == to) {
            edge_rate[k] += rate;
            merged = true;
            break;
          }
        }
        if (!merged) {
          edge_to.push_back(to);
          edge_rate.push_back(rate);
        }
      }
    }
    edge_row_offsets.push_back(edge_to.size());
  }

  graph.chain.reserve(graph.tangible_count(), edge_to.size());
  graph.chain.add_states(graph.tangible_count());
  for (std::size_t from = 0; from + 1 < edge_row_offsets.size(); ++from) {
    for (std::size_t k = edge_row_offsets[from]; k < edge_row_offsets[from + 1]; ++k) {
      graph.chain.add_transition(from, edge_to[k], edge_rate[k]);
    }
  }

  graph.initial_distribution.assign(graph.tangible_count(), 0.0);
  for (const auto& [id, p] : initial) graph.initial_distribution[id] += p;
  return graph;
}

SrnAnalyzer::SrnAnalyzer(const SrnModel& model, const ReachabilityOptions& options)
    : SrnAnalyzer(model, AnalyzerOptions{.reachability = options,
                                         .steady_state = {},
                                         .throw_on_divergence = true}) {}

SrnAnalyzer::SrnAnalyzer(const SrnModel& model, const AnalyzerOptions& options,
                         linalg::StationarySolver* workspace) {
  const auto start = std::chrono::steady_clock::now();
  graph_ = build_reachability_graph(model, options.reachability);
  const linalg::SteadyStateResult ss =
      workspace != nullptr ? graph_.chain.steady_state(*workspace, options.steady_state)
                           : graph_.chain.steady_state(options.steady_state);
  diagnostics_.tangible_states = graph_.tangible_count();
  diagnostics_.vanishing_markings = graph_.vanishing_markings_seen;
  diagnostics_.transitions = graph_.chain.transitions().size();
  diagnostics_.solver_iterations = ss.iterations;
  diagnostics_.residual = ss.residual;
  diagnostics_.converged = ss.converged;
  diagnostics_.wall_time_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (options.throw_on_divergence && diagnostics_.badly_diverged()) {
    throw std::runtime_error("SRN steady-state solve failed to converge");
  }
  steady_ = ss.distribution;
}

double SrnAnalyzer::expected_reward(const RewardFunction& reward) const {
  if (!reward) throw std::invalid_argument("expected_reward: null reward");
  double acc = 0.0;
  for (std::size_t i = 0; i < graph_.tangible_count(); ++i) {
    acc += steady_[i] * reward(graph_.tangible_markings[i]);
  }
  return acc;
}

double SrnAnalyzer::probability(const std::function<bool(const Marking&)>& predicate) const {
  if (!predicate) throw std::invalid_argument("probability: null predicate");
  double acc = 0.0;
  for (std::size_t i = 0; i < graph_.tangible_count(); ++i) {
    if (predicate(graph_.tangible_markings[i])) acc += steady_[i];
  }
  return acc;
}

double SrnAnalyzer::mean_tokens(PlaceId place) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < graph_.tangible_count(); ++i) {
    acc += steady_[i] * static_cast<double>(graph_.tangible_markings[i].at(place));
  }
  return acc;
}

}  // namespace patchsec::petri
