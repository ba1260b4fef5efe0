#include "patchsec/petri/lumping.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace patchsec::petri {

namespace {

void append_u64(std::string& key, std::uint64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  key.append(buf, sizeof(v));
}

std::uint64_t rate_bits(double rate) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &rate, sizeof(bits));
  return bits;
}

void append_arcs(std::string& key, std::vector<Arc> arcs) {
  std::sort(arcs.begin(), arcs.end(), [](const Arc& a, const Arc& b) {
    return a.place != b.place ? a.place < b.place : a.multiplicity < b.multiplicity;
  });
  append_u64(key, arcs.size());
  for (const Arc& a : arcs) {
    append_u64(key, a.place);
    append_u64(key, a.multiplicity);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// LumpedNet mapping tables
// ---------------------------------------------------------------------------

struct LumpedNet::Mapping {
  struct PlaceInfo {
    bool grouped = false;
    std::size_t group = 0;
    std::size_t replica = 0;
    std::size_t slot = 0;
    PlaceId quotient = 0;  // passthrough image; unused for grouped places.
  };

  std::size_t flat_places = 0;
  std::size_t quotient_places = 0;
  std::vector<PlaceInfo> place;                             // by flat id
  std::vector<std::vector<std::vector<PlaceId>>> replicas;  // [group][replica][slot]
  std::vector<std::vector<PlaceId>> count_place;            // [group][slot]

  void project_into(const Marking& flat, Marking& out) const {
    if (flat.size() != flat_places) {
      throw std::invalid_argument("LumpedNet::project: flat marking size mismatch");
    }
    out.assign(quotient_places, 0);
    for (PlaceId p = 0; p < flat_places; ++p) {
      const PlaceInfo& info = place[p];
      if (info.grouped) {
        out[count_place[info.group][info.slot]] += flat[p];
      } else {
        out[info.quotient] = flat[p];
      }
    }
  }

  void reconstruct_into(const Marking& quotient, Marking& out) const {
    if (quotient.size() != quotient_places) {
      throw std::invalid_argument("LumpedNet::representative: quotient marking size mismatch");
    }
    out.assign(flat_places, 0);
    for (PlaceId p = 0; p < flat_places; ++p) {
      if (!place[p].grouped) out[p] = quotient[place[p].quotient];
    }
    // Canonical representative: replicas take slots in index order — replica
    // 0 gets the lowest occupied slot, and so on.  Any flat member of the
    // class would do for a symmetric reward; this one is deterministic.
    std::vector<TokenCount> remaining;
    for (std::size_t g = 0; g < replicas.size(); ++g) {
      remaining.assign(count_place[g].size(), 0);
      std::size_t total = 0;
      for (std::size_t s = 0; s < count_place[g].size(); ++s) {
        remaining[s] = quotient[count_place[g][s]];
        total += remaining[s];
      }
      if (total != replicas[g].size()) {
        throw std::invalid_argument(
            "LumpedNet::representative: slot counts do not sum to the replica count");
      }
      std::size_t slot = 0;
      for (const std::vector<PlaceId>& replica : replicas[g]) {
        while (remaining[slot] == 0) ++slot;
        out[replica[slot]] = 1;
        --remaining[slot];
      }
    }
  }
};

std::size_t LumpedNet::flat_place_count() const noexcept { return mapping_->flat_places; }

std::size_t LumpedNet::group_count() const noexcept { return mapping_->replicas.size(); }

std::size_t LumpedNet::slot_count(std::size_t group) const {
  return mapping_->count_place.at(group).size();
}

PlaceId LumpedNet::count_place(std::size_t group, std::size_t slot) const {
  return mapping_->count_place.at(group).at(slot);
}

PlaceId LumpedNet::passthrough_place(PlaceId flat_place) const {
  if (flat_place >= mapping_->flat_places) {
    throw std::out_of_range("LumpedNet::passthrough_place: invalid place id");
  }
  const auto& info = mapping_->place[flat_place];
  if (info.grouped) {
    throw std::invalid_argument("LumpedNet::passthrough_place: place " +
                                std::to_string(flat_place) +
                                " is grouped; use count_place(group, slot)");
  }
  return info.quotient;
}

Marking LumpedNet::project(const Marking& flat) const {
  Marking out;
  mapping_->project_into(flat, out);
  return out;
}

Marking LumpedNet::representative(const Marking& quotient) const {
  Marking out;
  mapping_->reconstruct_into(quotient, out);
  return out;
}

RewardFunction LumpedNet::lift_reward(RewardFunction flat_reward) const {
  if (!flat_reward) throw std::invalid_argument("LumpedNet::lift_reward: null reward");
  return [mapping = mapping_, reward = std::move(flat_reward)](const Marking& quotient) {
    thread_local Marking scratch;
    mapping->reconstruct_into(quotient, scratch);
    return reward(scratch);
  };
}

// ---------------------------------------------------------------------------
// lump_model
// ---------------------------------------------------------------------------

LumpedNet lump_model(const SrnModel& flat, const SymmetrySpec& spec) {
  auto mapping = std::make_shared<LumpedNet::Mapping>();
  mapping->flat_places = flat.place_count();
  mapping->place.assign(flat.place_count(), {});

  // Validate the group annotation: non-empty, slot-aligned, disjoint.
  for (std::size_t g = 0; g < spec.groups.size(); ++g) {
    const ReplicaGroup& group = spec.groups[g];
    if (group.replicas.empty()) {
      throw std::invalid_argument("lump_model: group " + std::to_string(g) + " has no replicas");
    }
    const std::size_t slots = group.replicas.front().size();
    if (slots == 0) {
      throw std::invalid_argument("lump_model: group " + std::to_string(g) + " has no slots");
    }
    for (std::size_t r = 0; r < group.replicas.size(); ++r) {
      const std::vector<PlaceId>& replica = group.replicas[r];
      if (replica.size() != slots) {
        throw std::invalid_argument("lump_model: replicas of group " + std::to_string(g) +
                                    " are not slot-aligned");
      }
      for (std::size_t s = 0; s < slots; ++s) {
        const PlaceId p = replica[s];
        if (p >= flat.place_count()) {
          throw std::invalid_argument("lump_model: invalid place id in group " +
                                      std::to_string(g));
        }
        if (mapping->place[p].grouped) {
          throw std::invalid_argument("lump_model: place " + flat.place_name(p) +
                                      " appears in more than one replica tuple");
        }
        mapping->place[p] = {true, g, r, s, 0};
      }
    }
    mapping->replicas.push_back(group.replicas);
  }

  // Single-token invariant: the count vector determines the replica-state
  // histogram only because each replica is a one-token state machine.
  const Marking initial = flat.initial_marking();
  for (std::size_t g = 0; g < spec.groups.size(); ++g) {
    for (const std::vector<PlaceId>& replica : spec.groups[g].replicas) {
      TokenCount total = 0;
      for (const PlaceId p : replica) total += initial[p];
      if (total != 1) {
        throw std::invalid_argument("lump_model: every replica of group " + std::to_string(g) +
                                    " must hold exactly one initial token");
      }
    }
  }

  // Quotient places: passthrough places keep their name and initial tokens;
  // each (group, slot) becomes one count place initialized to the number of
  // replicas starting in that slot.
  auto qmodel = std::make_shared<SrnModel>();
  for (PlaceId p = 0; p < flat.place_count(); ++p) {
    if (!mapping->place[p].grouped) {
      mapping->place[p].quotient = qmodel->add_place(flat.place_name(p), initial[p]);
    }
  }
  mapping->count_place.resize(spec.groups.size());
  for (std::size_t g = 0; g < spec.groups.size(); ++g) {
    const auto& replicas = spec.groups[g].replicas;
    mapping->count_place[g].resize(replicas.front().size());
    for (std::size_t s = 0; s < replicas.front().size(); ++s) {
      TokenCount count = 0;
      for (const std::vector<PlaceId>& replica : replicas) count += initial[replica[s]];
      mapping->count_place[g][s] = qmodel->add_place("#" + flat.place_name(replicas.front()[s]),
                                                     count);
    }
  }
  mapping->quotient_places = qmodel->place_count();

  // Classify transitions: an orbit per (group, slot pair, rate, shared-arc
  // signature) for replica transitions, passthrough for the rest.
  struct Orbit {
    std::size_t group = 0;
    std::size_t slot_in = 0;
    std::size_t slot_out = 0;
    double rate = 0.0;
    std::vector<Arc> shared_inputs;
    std::vector<Arc> shared_outputs;
    std::vector<Arc> shared_inhibitors;
    std::vector<std::size_t> members_per_replica;
    std::string first_name;
  };
  std::vector<Orbit> orbits;
  std::unordered_map<std::string, std::size_t> orbit_index;
  std::vector<TransitionId> passthrough;

  for (TransitionId t = 0; t < flat.transition_count(); ++t) {
    struct GroupedArc {
      std::size_t group, replica, slot;
      TokenCount multiplicity;
    };
    std::vector<GroupedArc> grouped_in, grouped_out;
    std::vector<Arc> shared_in, shared_out, shared_inh;
    for (const Arc& a : flat.input_arcs(t)) {
      const auto& info = mapping->place[a.place];
      if (info.grouped) {
        grouped_in.push_back({info.group, info.replica, info.slot, a.multiplicity});
      } else {
        shared_in.push_back(a);
      }
    }
    for (const Arc& a : flat.output_arcs(t)) {
      const auto& info = mapping->place[a.place];
      if (info.grouped) {
        grouped_out.push_back({info.group, info.replica, info.slot, a.multiplicity});
      } else {
        shared_out.push_back(a);
      }
    }
    for (const Arc& a : flat.inhibitor_arcs(t)) {
      if (mapping->place[a.place].grouped) {
        throw std::invalid_argument("lump_model: transition " + flat.transition_name(t) +
                                    " has an inhibitor arc on a grouped place");
      }
      shared_inh.push_back(a);
    }

    if (grouped_in.empty() && grouped_out.empty()) {
      passthrough.push_back(t);
      continue;
    }

    // Replica transition.  The exactness conditions: constant rate (so the
    // class rate is rate * count), one token moved between two slots of one
    // replica (so counts evolve as a lossless shift), no guard (guards could
    // distinguish replicas).
    const std::string& name = flat.transition_name(t);
    if (flat.transition_kind(t) != TransitionKind::kTimed) {
      throw std::invalid_argument("lump_model: immediate transition " + name +
                                  " touches a grouped place");
    }
    if (flat.has_guard(t)) {
      throw std::invalid_argument("lump_model: replica transition " + name + " has a guard");
    }
    const std::optional<double> rate = flat.constant_rate(t);
    if (!rate) {
      throw std::invalid_argument("lump_model: replica transition " + name +
                                  " has a marking-dependent rate");
    }
    if (grouped_in.size() != 1 || grouped_in.front().multiplicity != 1 ||
        grouped_out.size() != 1 || grouped_out.front().multiplicity != 1) {
      throw std::invalid_argument("lump_model: replica transition " + name +
                                  " must move exactly one token between two grouped places");
    }
    if (grouped_in.front().group != grouped_out.front().group ||
        grouped_in.front().replica != grouped_out.front().replica) {
      throw std::invalid_argument("lump_model: replica transition " + name +
                                  " spans replicas or groups");
    }

    std::string key;
    append_u64(key, grouped_in.front().group);
    append_u64(key, grouped_in.front().slot);
    append_u64(key, grouped_out.front().slot);
    append_u64(key, rate_bits(*rate));
    append_arcs(key, shared_in);
    append_arcs(key, shared_out);
    append_arcs(key, shared_inh);

    auto [it, inserted] = orbit_index.try_emplace(key, orbits.size());
    if (inserted) {
      Orbit orbit;
      orbit.group = grouped_in.front().group;
      orbit.slot_in = grouped_in.front().slot;
      orbit.slot_out = grouped_out.front().slot;
      orbit.rate = *rate;
      orbit.shared_inputs = std::move(shared_in);
      orbit.shared_outputs = std::move(shared_out);
      orbit.shared_inhibitors = std::move(shared_inh);
      orbit.members_per_replica.assign(spec.groups[orbit.group].replicas.size(), 0);
      orbit.first_name = name;
      orbits.push_back(std::move(orbit));
    }
    ++orbits[it->second].members_per_replica[grouped_in.front().replica];
  }

  // Passthrough transitions survive unchanged; marking-dependent rates and
  // guards are evaluated at the canonical representative (exact when they do
  // not distinguish replicas — the annotation contract).
  for (const TransitionId t : passthrough) {
    const std::string& name = flat.transition_name(t);
    TransitionId qt = 0;
    if (flat.transition_kind(t) == TransitionKind::kImmediate) {
      qt = qmodel->add_immediate_transition(name, flat.weight(t), flat.priority(t));
    } else if (const std::optional<double> rate = flat.constant_rate(t)) {
      qt = qmodel->add_timed_transition(name, *rate);
    } else {
      qt = qmodel->add_timed_transition(
          name, [mapping, rate = flat.rate_function(t)](const Marking& quotient) {
            thread_local Marking scratch;
            mapping->reconstruct_into(quotient, scratch);
            return rate(scratch);
          });
    }
    for (const Arc& a : flat.input_arcs(t)) {
      qmodel->add_input_arc(qt, mapping->place[a.place].quotient, a.multiplicity);
    }
    for (const Arc& a : flat.output_arcs(t)) {
      qmodel->add_output_arc(qt, mapping->place[a.place].quotient, a.multiplicity);
    }
    for (const Arc& a : flat.inhibitor_arcs(t)) {
      qmodel->add_inhibitor_arc(qt, mapping->place[a.place].quotient, a.multiplicity);
    }
    if (flat.has_guard(t)) {
      qmodel->set_guard(qt, [mapping, guard = flat.guard(t)](const Marking& quotient) {
        thread_local Marking scratch;
        mapping->reconstruct_into(quotient, scratch);
        return guard(scratch);
      });
    }
  }

  // One quotient transition per complete orbit, with the multiplicity-
  // weighted rate  rate * #{replicas in slot_in}  (times the per-replica
  // member count when a replica carries parallel copies).
  for (const Orbit& orbit : orbits) {
    const std::size_t members = orbit.members_per_replica.front();
    for (std::size_t r = 0; r < orbit.members_per_replica.size(); ++r) {
      if (orbit.members_per_replica[r] != members || members == 0) {
        throw std::invalid_argument(
            "lump_model: asymmetric orbit — transition " + orbit.first_name +
            " has no identically-shaped counterpart in replica " + std::to_string(r));
      }
    }
    const std::size_t replica_count = spec.groups[orbit.group].replicas.size();
    const PlaceId source = mapping->count_place[orbit.group][orbit.slot_in];
    const double unit_rate = orbit.rate * static_cast<double>(members);
    const TransitionId qt = qmodel->add_timed_transition(
        orbit.first_name + "[x" + std::to_string(replica_count) + "]",
        [unit_rate, source](const Marking& m) {
          return unit_rate * static_cast<double>(m[source]);
        });
    qmodel->add_input_arc(qt, source, 1);
    qmodel->add_output_arc(qt, mapping->count_place[orbit.group][orbit.slot_out], 1);
    for (const Arc& a : orbit.shared_inputs) {
      qmodel->add_input_arc(qt, mapping->place[a.place].quotient, a.multiplicity);
    }
    for (const Arc& a : orbit.shared_outputs) {
      qmodel->add_output_arc(qt, mapping->place[a.place].quotient, a.multiplicity);
    }
    for (const Arc& a : orbit.shared_inhibitors) {
      qmodel->add_inhibitor_arc(qt, mapping->place[a.place].quotient, a.multiplicity);
    }
  }

  LumpedNet net;
  net.model_ = std::move(qmodel);
  net.mapping_ = std::move(mapping);
  return net;
}

// ---------------------------------------------------------------------------
// Component factorization
// ---------------------------------------------------------------------------

std::vector<std::vector<TransitionId>> component_transitions(const SrnModel& model,
                                                             const ComponentSplit& split) {
  constexpr std::size_t kUnassigned = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> owner(model.place_count(), kUnassigned);
  for (std::size_t c = 0; c < split.components.size(); ++c) {
    for (const PlaceId p : split.components[c]) {
      if (p >= model.place_count()) {
        throw std::invalid_argument("component_transitions: invalid place id");
      }
      if (owner[p] != kUnassigned) {
        throw std::invalid_argument("component_transitions: place " + model.place_name(p) +
                                    " appears in more than one component");
      }
      owner[p] = c;
    }
  }
  for (PlaceId p = 0; p < model.place_count(); ++p) {
    if (owner[p] == kUnassigned) {
      throw std::invalid_argument("component_transitions: place " + model.place_name(p) +
                                  " is not covered by the split");
    }
  }

  std::vector<std::vector<TransitionId>> assignment(split.components.size());
  for (TransitionId t = 0; t < model.transition_count(); ++t) {
    if (model.transition_kind(t) != TransitionKind::kTimed) {
      throw std::invalid_argument("component_transitions: immediate transition " +
                                  model.transition_name(t) +
                                  " — the product form needs a fully timed net");
    }
    std::size_t component = kUnassigned;
    const auto claim = [&](const std::vector<Arc>& arcs) {
      for (const Arc& a : arcs) {
        if (component == kUnassigned) {
          component = owner[a.place];
        } else if (component != owner[a.place]) {
          throw std::invalid_argument("component_transitions: transition " +
                                      model.transition_name(t) + " spans components");
        }
      }
    };
    claim(model.input_arcs(t));
    claim(model.output_arcs(t));
    claim(model.inhibitor_arcs(t));
    if (component == kUnassigned) {
      throw std::invalid_argument("component_transitions: transition " +
                                  model.transition_name(t) + " touches no place");
    }
    assignment[component].push_back(t);
  }
  return assignment;
}

ReachabilityGraph build_component_reachability(const SrnModel& model,
                                               const std::vector<TransitionId>& transitions,
                                               const Marking& start,
                                               const ReachabilityOptions& options) {
  if (start.size() != model.place_count()) {
    throw std::invalid_argument("build_component_reachability: start marking size mismatch");
  }
  ReachabilityGraph graph;
  std::unordered_map<Marking, std::size_t, MarkingHash> index;
  graph.tangible_markings.push_back(start);
  index.emplace(start, 0);
  graph.chain.add_state();

  Marking next;
  Marking current;
  for (std::size_t i = 0; i < graph.tangible_markings.size(); ++i) {
    // Copy: the successor pushes below may reallocate tangible_markings.
    current = graph.tangible_markings[i];
    for (const TransitionId t : transitions) {
      if (!model.is_enabled(t, current)) continue;
      const double rate = model.rate(t, current);
      model.fire_into(t, current, next);
      if (next == current) continue;  // tangible self-loop: no CTMC effect
      auto [it, inserted] = index.try_emplace(next, graph.tangible_markings.size());
      if (inserted) {
        if (graph.tangible_markings.size() >= options.max_tangible_markings) {
          throw std::runtime_error(
              "build_component_reachability: tangible state space exceeds limit");
        }
        graph.tangible_markings.push_back(next);
        graph.chain.add_state();
      }
      graph.chain.add_transition(i, it->second, rate);
    }
  }
  graph.initial_distribution.assign(graph.tangible_markings.size(), 0.0);
  graph.initial_distribution[0] = 1.0;
  return graph;
}

namespace {

/// 16-point Gauss-Legendre nodes/weights on [-1, 1] (Newton iteration on the
/// Legendre recurrence; computed once).
constexpr int kQuadOrder = 16;

const std::pair<std::vector<double>, std::vector<double>>& gauss_legendre_16() {
  static const auto rule = [] {
    std::vector<double> x(kQuadOrder), w(kQuadOrder);
    const double pi = std::acos(-1.0);
    for (int i = 0; i < (kQuadOrder + 1) / 2; ++i) {
      double z = std::cos(pi * (i + 0.75) / (kQuadOrder + 0.5));
      double pp = 0.0;
      for (int iter = 0; iter < 64; ++iter) {
        double p1 = 1.0, p2 = 0.0;
        for (int j = 0; j < kQuadOrder; ++j) {
          const double p3 = p2;
          p2 = p1;
          p1 = ((2.0 * j + 1.0) * z * p2 - j * p3) / (j + 1.0);
        }
        pp = kQuadOrder * (z * p1 - p2) / (z * z - 1.0);
        const double z1 = z;
        z = z1 - p1 / pp;
        if (std::abs(z - z1) < 1e-15) break;
      }
      x[i] = -z;
      x[kQuadOrder - 1 - i] = z;
      w[i] = 2.0 / ((1.0 - z * z) * pp * pp);
      w[kQuadOrder - 1 - i] = w[i];
    }
    return std::make_pair(std::move(x), std::move(w));
  }();
  return rule;
}

double max_exit_rate(const ctmc::Ctmc& chain) {
  double best = 0.0;
  for (const double e : chain.exit_rates()) best = std::max(best, e);
  return best;
}

}  // namespace

FactoredAnalyzer::FactoredAnalyzer(const SrnModel& model, const ComponentSplit& split,
                                   const AnalyzerOptions& options)
    : FactoredAnalyzer(model, split, options, model.initial_marking()) {}

FactoredAnalyzer::FactoredAnalyzer(const SrnModel& model, const ComponentSplit& split,
                                   const AnalyzerOptions& options, const Marking& start)
    : model_(&model), start_(start) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::vector<TransitionId>> assignment = component_transitions(model, split);

  diagnostics_.converged = true;
  diagnostics_.flat_states = 1;
  for (std::size_t c = 0; c < assignment.size(); ++c) {
    graphs_.push_back(
        build_component_reachability(model, assignment[c], start, options.reachability));
    const ReachabilityGraph& graph = graphs_.back();
    linalg::SteadyStateResult result = graph.chain.steady_state(options.steady_state);
    diagnostics_.tangible_states += graph.tangible_count();
    diagnostics_.transitions += graph.chain.transitions().size();
    diagnostics_.solver_iterations += result.iterations;
    diagnostics_.residual = std::max(diagnostics_.residual, result.residual);
    diagnostics_.converged = diagnostics_.converged && result.converged;
    if (diagnostics_.flat_states > std::numeric_limits<std::size_t>::max() / graph.tangible_count()) {
      diagnostics_.flat_states = std::numeric_limits<std::size_t>::max();
    } else {
      diagnostics_.flat_states *= graph.tangible_count();
    }
    steady_.push_back(std::move(result.distribution));
  }
  diagnostics_.wall_time_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (options.throw_on_divergence && diagnostics_.badly_diverged()) {
    throw std::runtime_error("FactoredAnalyzer: steady-state solve diverged (residual " +
                             std::to_string(diagnostics_.residual) + ")");
  }
}

void FactoredAnalyzer::check_reward(const SeparableReward& reward) const {
  for (const SeparableReward::Term& term : reward.terms) {
    if (term.factors.size() != component_count()) {
      throw std::invalid_argument(
          "FactoredAnalyzer: separable-reward term must carry one factor per component");
    }
  }
}

double FactoredAnalyzer::expected_reward(const SeparableReward& reward) const {
  check_reward(reward);
  double total = 0.0;
  for (const SeparableReward::Term& term : reward.terms) {
    double product = term.coefficient;
    for (std::size_t c = 0; c < component_count() && product != 0.0; ++c) {
      const RewardFunction& factor = term.factors[c];
      if (!factor) continue;  // empty factor == constant 1
      double expectation = 0.0;
      for (std::size_t i = 0; i < graphs_[c].tangible_count(); ++i) {
        expectation += steady_[c][i] * factor(graphs_[c].tangible_markings[i]);
      }
      product *= expectation;
    }
    total += product;
  }
  return total;
}

double FactoredAnalyzer::reward_curve(const SeparableReward& reward,
                                      const std::vector<double>& grid,
                                      std::vector<double>& values,
                                      const ctmc::TransientOptions& options,
                                      ctmc::TransientDiagnostics* transient) const {
  check_reward(reward);
  if (grid.empty()) throw std::invalid_argument("FactoredAnalyzer::reward_curve: empty grid");
  for (std::size_t j = 0; j < grid.size(); ++j) {
    if (!(grid[j] >= 0.0) || (j > 0 && grid[j] < grid[j - 1])) {
      throw std::invalid_argument(
          "FactoredAnalyzer::reward_curve: grid must be ascending and non-negative");
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t components = component_count();

  // Per-(term, component) reward vectors on the component state spaces.
  std::vector<std::vector<std::vector<double>>> factor_values(reward.terms.size());
  for (std::size_t t = 0; t < reward.terms.size(); ++t) {
    factor_values[t].resize(components);
    for (std::size_t c = 0; c < components; ++c) {
      const RewardFunction& factor = reward.terms[t].factors[c];
      if (!factor) continue;
      auto& fv = factor_values[t][c];
      fv.resize(graphs_[c].tangible_count());
      for (std::size_t i = 0; i < fv.size(); ++i) fv[i] = factor(graphs_[c].tangible_markings[i]);
    }
  }

  // Quadrature timeline: composite Gauss-Legendre panels between consecutive
  // grid boundaries (plus [0, grid[0]]), with the panel count tied to the
  // summed uniformization rates so the product curve — whose p-th derivative
  // is bounded by (sum_c 2 Lambda_c)^p — is resolved far below the
  // uniformization truncation error (Lambda_eff * h <= 8 per 16-node panel
  // gives ~1e-16 relative panel error).
  double rate_scale = 0.0;
  for (const ReachabilityGraph& graph : graphs_) rate_scale += 2.0 * max_exit_rate(graph.chain);

  struct Event {
    double time;
    double weight;     // quadrature weight; 0 for pure grid points
    std::size_t grid;  // index into `values`, or npos
  };
  constexpr std::size_t kNoGrid = std::numeric_limits<std::size_t>::max();
  const auto& [nodes, weights] = gauss_legendre_16();
  std::vector<Event> events;
  double prev = 0.0;
  for (std::size_t j = 0; j < grid.size(); ++j) {
    const double length = grid[j] - prev;
    if (length > 0.0) {
      const std::size_t panels = std::min<std::size_t>(
          1024, std::max<std::size_t>(
                    1, static_cast<std::size_t>(std::ceil(rate_scale * length / 8.0))));
      const double h = length / static_cast<double>(panels);
      for (std::size_t panel = 0; panel < panels; ++panel) {
        const double a = prev + h * static_cast<double>(panel);
        const double mid = a + 0.5 * h;
        for (int k = 0; k < kQuadOrder; ++k) {
          events.push_back({mid + 0.5 * h * nodes[k], 0.5 * h * weights[k], kNoGrid});
        }
      }
    }
    events.push_back({grid[j], 0.0, j});
    prev = grid[j];
  }

  // Advance every component in lockstep through the merged timeline.  The
  // per-step truncation budget is divided across steps so the accumulated
  // stepping error stays below the caller's epsilon.
  ctmc::TransientOptions step_options = options;
  step_options.epsilon =
      std::max(1e-16, options.epsilon / static_cast<double>(std::max<std::size_t>(1, events.size())));
  std::vector<ctmc::TransientSolver> solvers;
  solvers.reserve(components);
  std::vector<std::vector<double>> current(components), advanced(components);
  for (std::size_t c = 0; c < components; ++c) {
    solvers.emplace_back(step_options);
    solvers.back().prepare(graphs_[c].chain);
    current[c] = graphs_[c].initial_distribution;
  }

  values.assign(grid.size(), 0.0);
  double accumulated = 0.0;
  double now = 0.0;
  for (const Event& event : events) {
    const double dt = event.time - now;
    if (dt > 0.0) {
      for (std::size_t c = 0; c < components; ++c) {
        solvers[c].distribution_at(current[c], dt, advanced[c]);
        current[c].swap(advanced[c]);
      }
      now = event.time;
    }
    double r = 0.0;
    for (std::size_t t = 0; t < reward.terms.size(); ++t) {
      double product = reward.terms[t].coefficient;
      for (std::size_t c = 0; c < components && product != 0.0; ++c) {
        const auto& fv = factor_values[t][c];
        if (fv.empty()) continue;
        double expectation = 0.0;
        for (std::size_t i = 0; i < fv.size(); ++i) expectation += current[c][i] * fv[i];
        product *= expectation;
      }
      r += product;
    }
    if (event.grid != kNoGrid) {
      values[event.grid] = r;
    } else {
      accumulated += event.weight * r;
    }
  }

  if (transient != nullptr) {
    *transient = {};
    for (std::size_t c = 0; c < components; ++c) {
      const ctmc::TransientDiagnostics& d = solvers[c].diagnostics();
      transient->uniformization_rate = std::max(transient->uniformization_rate,
                                                d.uniformization_rate);
      transient->right_point = std::max(transient->right_point, d.right_point);
      transient->matvec_count += d.matvec_count;
      transient->poisson_mass = c == 0 ? d.poisson_mass
                                       : std::min(transient->poisson_mass, d.poisson_mass);
      transient->rhs_count = std::max(transient->rhs_count, d.rhs_count);
      // The component solvers share one dispatch decision; report any one.
      if (transient->kernel.empty()) transient->kernel = d.kernel;
    }
    transient->wall_time_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  return accumulated;
}

}  // namespace patchsec::petri
