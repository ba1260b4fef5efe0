#include "patchsec/petri/reachability.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
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

  /// Resolve the firing of `t` in tangible marking `m`.
  void resolve_firing(const CompiledTransition& t, const Marking& m,
                      std::size_t& vanishing_seen) {
    succ_count_ = 0;
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
// MarkingInterner: packed-key -> state-id map for the exploration loop.  When
// every place's token count fits `64 / place_count` bits the marking packs
// into one u64 (place 0 in the most significant field) and lookups go
// through an open-addressing table (splitmix64 hash, linear probing) — far
// cheaper than hashing and comparing Marking vectors ~nnz times.  Firing can
// then stay on the key: advance() applies a transition's net deltas by field
// arithmetic.  Once a marking fails to pack (a token outgrows its field, too
// many places, or an id outgrows the u32 payload) the interner is off for
// good and build_reachability_graph falls back to a general unordered_map
// it materializes from the markings discovered so far.
// ---------------------------------------------------------------------------

class MarkingInterner {
 public:
  MarkingInterner(std::size_t place_count, std::size_t reserve) : places_(place_count) {
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

  [[nodiscard]] bool packable() const noexcept { return packable_; }

  /// Packs `m` into `key`; false, and the interner off for good, when it
  /// does not fit.
  [[nodiscard]] bool pack(const Marking& m, std::uint64_t& key) {
    std::uint64_t k = 0;
    for (TokenCount t : m) {
      if (t > limit_) packable_ = false;
      k = (k << bits_) | t;
    }
    key = k;
    return packable_;
  }

  void unpack(std::uint64_t key, Marking& m) const {
    m.resize(places_);
    for (std::size_t p = places_; p-- > 0; key >>= bits_) {
      m[p] = static_cast<TokenCount>(key & limit_);
    }
  }

  /// Applies a firing's net deltas to `key` in place; false (key unusable)
  /// when a touched field would leave [0, limit].
  [[nodiscard]] bool advance(std::span<const PlaceDelta> deltas, std::uint64_t& key) const {
    for (const PlaceDelta& d : deltas) {
      const std::size_t shift = (places_ - 1 - d.place) * bits_;
      const std::int64_t next = static_cast<std::int64_t>((key >> shift) & limit_) + d.delta;
      if (next < 0 || next > static_cast<std::int64_t>(limit_)) return false;
      key += static_cast<std::uint64_t>(d.delta) << shift;  // mod 2^64: no carry leaves the field
    }
    return true;
  }

  /// Id of a packed key, or kMissing.
  [[nodiscard]] std::size_t find(std::uint64_t key) const {
    std::size_t slot = probe_start(key);
    while (ids_[slot] != 0) {
      if (keys_[slot] == key) return ids_[slot] - 1;
      slot = (slot + 1) & (keys_.size() - 1);
    }
    return kMissing;
  }

  void insert(std::uint64_t key, std::size_t id) {
    if (id >= std::numeric_limits<std::uint32_t>::max()) {
      packable_ = false;  // id would not fit the table's u32 payload
      return;
    }
    if ((count_ + 1) * 2 > keys_.size()) grow();
    place(key, static_cast<std::uint32_t>(id + 1));
    ++count_;
  }

  static constexpr std::size_t kMissing = std::numeric_limits<std::size_t>::max();

 private:
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

  std::size_t places_ = 0;
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

namespace {

ReachabilityGraph explore(const SrnModel& model, const ReachabilityOptions& options,
                          bool keep_record) {
  ReachabilityGraph graph;
  const std::size_t reserve = std::min(options.max_tangible_markings, std::size_t{1024});
  graph.tangible_markings.reserve(reserve);

  // Fast path: the packed-u64 interner.  The general unordered_map is only
  // materialized (from the markings discovered so far) if the net stops
  // being packable — most models never allocate it.
  MarkingInterner interner(model.place_count(), reserve);
  std::unordered_map<Marking, std::size_t, MarkingHash> slow_index;
  const auto new_state = [&]() -> std::size_t {
    if (graph.tangible_markings.size() >= options.max_tangible_markings) {
      throw std::runtime_error("tangible state space exceeds configured bound");
    }
    return graph.tangible_markings.size();
  };
  // The marking of a key is unpacked only when the state is new.
  const auto intern_key = [&](std::uint64_t key) -> std::size_t {
    const std::size_t found = interner.find(key);
    if (found != MarkingInterner::kMissing) return found;
    const std::size_t id = new_state();
    interner.unpack(key, graph.tangible_markings.emplace_back());
    interner.insert(key, id);
    return id;
  };
  const auto intern = [&](const Marking& m) -> std::size_t {
    std::uint64_t key;
    if (interner.packable() && interner.pack(m, key)) return intern_key(key);
    if (slow_index.empty()) {
      slow_index.reserve(std::max(reserve, graph.tangible_markings.size()));
      for (std::size_t i = 0; i < graph.tangible_markings.size(); ++i) {
        slow_index.emplace(graph.tangible_markings[i], i);
      }
    }
    const auto it = slow_index.find(m);
    if (it != slow_index.end()) return it->second;
    const std::size_t id = new_state();
    graph.tangible_markings.push_back(m);
    slow_index.emplace(m, id);
    return id;
  };

  Explorer explorer(model, options);
  const CompiledNet& net = explorer.net();

  // Resolve the initial marking (it may be vanishing).
  explorer.resolve_vanishing(model.initial_marking(), graph.vanishing_markings_seen);
  std::vector<std::pair<std::size_t, double>> initial;
  initial.reserve(explorer.successor_count());
  for (std::size_t i = 0; i < explorer.successor_count(); ++i) {
    initial.emplace_back(intern(explorer.successors()[i].marking),
                         explorer.successors()[i].probability);
  }

  // States are expanded in id order: ids are handed out in discovery order,
  // so this is breadth-first, and each state's merged edge row is appended
  // whole — the RateRows form the Ctmc assembles from, recorded for rerate()
  // when kept.
  ctmc::RateRows rows;
  rows.offsets.reserve(reserve + 1);
  FiringRecord& record = graph.record;
  if (keep_record) {
    record.places = model.place_count();
    record.timed = net.timed().size();
  }
  const auto add_successor = [&](std::uint32_t timed, std::uint32_t entry) {
    if (keep_record) record.successors.push_back({timed, entry});
  };
  const auto add_edge = [&rows](std::size_t row_begin, std::size_t from, std::size_t to,
                                double rate) -> std::uint32_t {
    if (to == from) return FiringRecord::kSelfLoop;  // net effect is a self loop: drop
    for (std::size_t k = row_begin; k < rows.columns.size(); ++k) {
      if (rows.columns[k] == to) {
        rows.rates[k] += rate;
        return static_cast<std::uint32_t>(k);
      }
    }
    rows.columns.push_back(to);
    rows.rates.push_back(rate);
    return static_cast<std::uint32_t>(rows.columns.size() - 1);
  };
  const bool immediates = net.has_immediates();
  Marking current;
  for (std::size_t from = 0; from < graph.tangible_markings.size(); ++from) {
    const std::size_t row_begin = rows.columns.size();
    current = graph.tangible_markings[from];  // copy: the vector may grow
    // Without immediates every successor is tangible, so a firing can stay
    // on the packed key; a field leaving its range sends that firing down the
    // Marking path, which flips the interner to its fallback map.
    std::uint64_t current_key = 0;
    const bool packed = !immediates && interner.packable() && interner.pack(current, current_key);
    net.enabled_timed_into(current, explorer.timed_scratch);
    graph.firings += explorer.timed_scratch.size();
    for (const CompiledTransition* t : explorer.timed_scratch) {
      const double r = net.checked_rate(*t, current);
      const auto timed = static_cast<std::uint32_t>(t - net.timed().data());
      std::uint64_t key = current_key;
      if (packed && interner.packable() && interner.advance(net.deltas(*t), key)) {
        add_successor(timed, add_edge(row_begin, from, intern_key(key), r));
        continue;
      }
      explorer.resolve_firing(*t, current, graph.vanishing_markings_seen);
      for (std::size_t i = 0; i < explorer.successor_count(); ++i) {
        const Explorer::Successor& succ = explorer.successors()[i];
        add_successor(timed,
                      add_edge(row_begin, from, intern(succ.marking), r * succ.probability));
        if (keep_record && immediates) record.probabilities.push_back(succ.probability);
      }
    }
    rows.offsets.push_back(rows.columns.size());
    if (keep_record) record.offsets.push_back(record.successors.size());
  }

  ctmc::GeneratorPattern pattern(rows);
  graph.chain = ctmc::Ctmc(pattern, rows.rates);
  if (keep_record) record.pattern = std::move(pattern);
  graph.initial_distribution.assign(graph.tangible_count(), 0.0);
  for (const auto& [id, p] : initial) graph.initial_distribution[id] += p;
  return graph;
}

}  // namespace

ReachabilityGraph build_reachability_graph(const SrnModel& model,
                                           const ReachabilityOptions& options) {
  return explore(model, options, /*keep_record=*/false);
}

ReachabilityGraph explore_for_rerate(const SrnModel& model, const ReachabilityOptions& options) {
  return explore(model, options, /*keep_record=*/true);
}

ctmc::Ctmc rerate(const ReachabilityGraph& graph, const SrnModel& model) {
  const FiringRecord& record = graph.record;
  if (record.offsets.size() != graph.tangible_count() + 1) {
    throw std::invalid_argument("rerate: the exploration kept no firing record");
  }
  const CompiledNet net(model);
  const std::span<const CompiledTransition> timed = net.timed();
  if (model.place_count() != record.places || timed.size() != record.timed) {
    throw std::invalid_argument("rerate: the model is not the explored net");
  }
  // Each entry sums its successors' rates in exploration order, as the row
  // merge did (0 + r and r * 1 are r exactly); a rate is evaluated per successor.
  std::vector<double> rates(record.pattern.entry_count(), 0.0);
  for (std::size_t s = 0; s < graph.tangible_count(); ++s) {
    const Marking& m = graph.tangible_markings[s];
    for (std::size_t k = record.offsets[s]; k < record.offsets[s + 1]; ++k) {
      const FiringRecord::Successor& succ = record.successors[k];
      const double r = net.checked_rate(timed[succ.timed], m);
      if (succ.entry == FiringRecord::kSelfLoop) continue;
      rates[succ.entry] += record.probabilities.empty() ? r : r * record.probabilities[k];
    }
  }
  return ctmc::Ctmc(record.pattern, rates);
}

SrnAnalyzer::SrnAnalyzer(const SrnModel& model, const ReachabilityOptions& options)
    : SrnAnalyzer(model, AnalyzerOptions{.reachability = options,
                                         .steady_state = {},
                                         .throw_on_divergence = true}) {}

SrnAnalyzer::SrnAnalyzer(const SrnModel& model, const AnalyzerOptions& options,
                         linalg::StationarySolver* workspace,
                         std::shared_ptr<const ReachabilityGraph>* exploration) {
  const auto start = std::chrono::steady_clock::now();
  const bool rerating = exploration != nullptr && *exploration != nullptr;
  if (rerating) {
    graph_ = *exploration;
  } else {
    graph_ = std::make_shared<const ReachabilityGraph>(
        exploration != nullptr ? explore_for_rerate(model, options.reachability)
                               : build_reachability_graph(model, options.reachability));
    if (exploration != nullptr) *exploration = graph_;
  }
  const ctmc::Ctmc rerated = rerating ? rerate(*graph_, model) : ctmc::Ctmc();
  const ctmc::Ctmc& chain = rerating ? rerated : graph_->chain;
  linalg::SteadyStateResult ss = workspace != nullptr
                                     ? chain.steady_state(*workspace, options.steady_state)
                                     : chain.steady_state(options.steady_state);
  diagnostics_.tangible_states = graph_->tangible_count();
  diagnostics_.vanishing_markings = graph_->vanishing_markings_seen;
  diagnostics_.transitions = chain.transition_count();
  diagnostics_.solver_iterations = ss.iterations;
  diagnostics_.residual = ss.residual;
  diagnostics_.converged = ss.converged;
  diagnostics_.wall_time_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (options.throw_on_divergence && diagnostics_.badly_diverged()) {
    throw std::runtime_error("SRN steady-state solve failed to converge");
  }
  steady_ = std::move(ss.distribution);
}

double SrnAnalyzer::expected_reward(const RewardFunction& reward) const {
  if (!reward) throw std::invalid_argument("expected_reward: null reward");
  double acc = 0.0;
  for (std::size_t i = 0; i < graph_->tangible_count(); ++i) {
    acc += steady_[i] * reward(graph_->tangible_markings[i]);
  }
  return acc;
}

double SrnAnalyzer::probability(const std::function<bool(const Marking&)>& predicate) const {
  if (!predicate) throw std::invalid_argument("probability: null predicate");
  double acc = 0.0;
  for (std::size_t i = 0; i < graph_->tangible_count(); ++i) {
    if (predicate(graph_->tangible_markings[i])) acc += steady_[i];
  }
  return acc;
}

double SrnAnalyzer::mean_tokens(PlaceId place) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < graph_->tangible_count(); ++i) {
    acc += steady_[i] * static_cast<double>(graph_->tangible_markings[i].at(place));
  }
  return acc;
}

}  // namespace patchsec::petri
