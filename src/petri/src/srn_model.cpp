#include "patchsec/petri/srn_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace patchsec::petri {

PlaceId SrnModel::add_place(std::string name, TokenCount initial_tokens) {
  if (name.empty()) throw std::invalid_argument("add_place: empty name");
  for (const Place& p : places_) {
    if (p.name == name) throw std::invalid_argument("add_place: duplicate name " + name);
  }
  places_.push_back({std::move(name), initial_tokens});
  return places_.size() - 1;
}

bool valid_rate(double scale, bool per_token) noexcept {
  const double ceiling =
      per_token ? scale * static_cast<double>(std::numeric_limits<TokenCount>::max()) : scale;
  return scale > 0.0 && std::isfinite(ceiling);
}

namespace {

void check_rate(const std::string& name, const Rate& rate) {
  if (!valid_rate(rate.scale, rate.place.has_value())) {
    throw std::invalid_argument("rate of " + name + " must be finite and > 0 at every marking");
  }
}

}  // namespace

TransitionId SrnModel::add_timed_transition(std::string name, double rate) {
  return add_transition(std::move(name), TransitionKind::kTimed, {rate, std::nullopt});
}

TransitionId SrnModel::add_timed_transition(std::string name, double rate_per_token,
                                            PlaceId place) {
  check_place(place);
  return add_transition(std::move(name), TransitionKind::kTimed, {rate_per_token, place});
}

void SrnModel::set_rate(TransitionId t, double scale) {
  (void)timed_rate(t);  // checks t and its kind
  Transition& tr = transitions_[t];
  check_rate(tr.name, {scale, tr.rate.place});
  tr.rate.scale = scale;
}

TransitionId SrnModel::add_immediate_transition(std::string name, double weight,
                                                unsigned priority) {
  if (!(weight > 0.0)) throw std::invalid_argument("immediate weight must be positive: " + name);
  return add_transition(std::move(name), TransitionKind::kImmediate, {}, weight, priority);
}

TransitionId SrnModel::add_transition(std::string name, TransitionKind kind, Rate rate,
                                      double weight, unsigned priority) {
  if (name.empty()) throw std::invalid_argument("add_transition: empty name");
  if (kind == TransitionKind::kTimed) check_rate(name, rate);
  for (const Transition& other : transitions_) {
    if (other.name == name) throw std::invalid_argument("duplicate transition name " + name);
  }
  Transition& t = transitions_.emplace_back();
  t.name = std::move(name);
  t.kind = kind;
  t.rate = rate;
  t.weight = weight;
  t.priority = priority;
  return transitions_.size() - 1;
}

namespace {

/// The arc of `arcs` on place p, or nullptr.
Arc* find_arc(std::vector<Arc>& arcs, PlaceId p) {
  for (Arc& a : arcs) {
    if (a.place == p) return &a;
  }
  return nullptr;
}

/// Add `multiplicity` to p's arc in `arcs`, appending one when p has none:
/// a repeated input or output arc is one arc of the summed multiplicity.
void add_flow_arc(std::vector<Arc>& arcs, PlaceId p, TokenCount multiplicity) {
  if (multiplicity == 0) throw std::invalid_argument("arc multiplicity must be positive");
  Arc* existing = find_arc(arcs, p);
  if (existing == nullptr) {
    arcs.push_back({p, multiplicity});
    return;
  }
  TokenCount sum = 0;
  if (__builtin_add_overflow(existing->multiplicity, multiplicity, &sum)) {
    throw std::invalid_argument("repeated arc multiplicities overflow the token count");
  }
  existing->multiplicity = sum;
}

}  // namespace

void SrnModel::add_input_arc(TransitionId t, PlaceId p, TokenCount multiplicity) {
  check_transition(t);
  check_place(p);
  add_flow_arc(transitions_[t].inputs, p, multiplicity);
}

void SrnModel::add_output_arc(TransitionId t, PlaceId p, TokenCount multiplicity) {
  check_transition(t);
  check_place(p);
  add_flow_arc(transitions_[t].outputs, p, multiplicity);
}

void SrnModel::add_inhibitor_arc(TransitionId t, PlaceId p, TokenCount multiplicity) {
  check_transition(t);
  check_place(p);
  if (multiplicity == 0) throw std::invalid_argument("arc multiplicity must be positive");
  // Repeated inhibitor arcs: the tightest (smallest) threshold is the only
  // one that ever binds.
  Arc* existing = find_arc(transitions_[t].inhibitors, p);
  if (existing == nullptr) {
    transitions_[t].inhibitors.push_back({p, multiplicity});
  } else {
    existing->multiplicity = std::min(existing->multiplicity, multiplicity);
  }
}

void SrnModel::set_guard(TransitionId t, Guard guard) {
  check_transition(t);
  transitions_[t].guard = std::move(guard);
}

PlaceId SrnModel::place(const std::string& name) const {
  for (PlaceId i = 0; i < places_.size(); ++i) {
    if (places_[i].name == name) return i;
  }
  throw std::out_of_range("no such place: " + name);
}

TransitionId SrnModel::transition(const std::string& name) const {
  for (TransitionId i = 0; i < transitions_.size(); ++i) {
    if (transitions_[i].name == name) return i;
  }
  throw std::out_of_range("no such transition: " + name);
}

const std::vector<Arc>& SrnModel::input_arcs(TransitionId t) const {
  check_transition(t);
  return transitions_[t].inputs;
}

const std::vector<Arc>& SrnModel::output_arcs(TransitionId t) const {
  check_transition(t);
  return transitions_[t].outputs;
}

const std::vector<Arc>& SrnModel::inhibitor_arcs(TransitionId t) const {
  check_transition(t);
  return transitions_[t].inhibitors;
}

bool SrnModel::has_guard(TransitionId t) const {
  check_transition(t);
  return static_cast<bool>(transitions_[t].guard);
}

const Guard& SrnModel::guard(TransitionId t) const {
  check_transition(t);
  return transitions_[t].guard;
}

const Rate& SrnModel::timed_rate(TransitionId t) const {
  check_transition(t);
  if (transitions_[t].kind != TransitionKind::kTimed) {
    throw std::logic_error("timed_rate() called on immediate transition " + transitions_[t].name);
  }
  return transitions_[t].rate;
}

Marking SrnModel::initial_marking() const {
  Marking m(places_.size());
  for (std::size_t i = 0; i < places_.size(); ++i) m[i] = places_[i].initial;
  return m;
}

bool SrnModel::is_enabled(TransitionId t, const Marking& m) const {
  check_transition(t);
  if (m.size() != places_.size()) throw std::invalid_argument("marking size mismatch");
  const Transition& tr = transitions_[t];
  for (const Arc& a : tr.inputs) {
    if (m[a.place] < a.multiplicity) return false;
  }
  for (const Arc& a : tr.inhibitors) {
    if (m[a.place] >= a.multiplicity) return false;
  }
  if (tr.guard && !tr.guard(m)) return false;
  return true;
}

double SrnModel::rate(TransitionId t, const Marking& m) const {
  check_transition(t);
  const Transition& tr = transitions_[t];
  if (tr.kind != TransitionKind::kTimed) {
    throw std::logic_error("rate() called on immediate transition " + tr.name);
  }
  const double r = tr.rate.at(m);
  if (r == 0.0) {  // only a per-token rate at an empty place
    throw std::domain_error("rate of " + tr.name + " is 0 in " + petri::to_string(m) +
                            ": its place " + places_[*tr.rate.place].name + " is empty");
  }
  return r;
}

double SrnModel::weight(TransitionId t) const {
  check_transition(t);
  if (transitions_[t].kind != TransitionKind::kImmediate) {
    throw std::logic_error("weight() called on timed transition");
  }
  return transitions_[t].weight;
}

unsigned SrnModel::priority(TransitionId t) const {
  check_transition(t);
  if (transitions_[t].kind != TransitionKind::kImmediate) {
    throw std::logic_error("priority() called on timed transition");
  }
  return transitions_[t].priority;
}

Marking SrnModel::fire(TransitionId t, const Marking& m) const {
  Marking next;
  fire_into(t, m, next);
  return next;
}

void SrnModel::fire_into(TransitionId t, const Marking& m, Marking& out) const {
  if (!is_enabled(t, m)) {
    throw std::logic_error("fire: transition " + transitions_[t].name + " not enabled in " +
                           petri::to_string(m));
  }
  const Transition& tr = transitions_[t];
  for (const Arc& a : tr.outputs) {  // checked before `out` (which may alias m) changes
    std::int64_t next = static_cast<std::int64_t>(m[a.place]) + a.multiplicity;
    for (const Arc& in : tr.inputs) {
      if (in.place == a.place) next -= in.multiplicity;
    }
    if (next > std::numeric_limits<TokenCount>::max()) {
      throw std::overflow_error("firing " + tr.name + " overflows place " +
                                places_[a.place].name + " in " + petri::to_string(m));
    }
  }
  out = m;  // self-assignment safe when out aliases m; deltas applied below
  for (const Arc& a : tr.inputs) out[a.place] -= a.multiplicity;
  for (const Arc& a : tr.outputs) out[a.place] += a.multiplicity;
}

std::vector<TransitionId> SrnModel::enabled_immediates(const Marking& m) const {
  std::vector<TransitionId> out;
  unsigned best_priority = 0;
  for (TransitionId t = 0; t < transitions_.size(); ++t) {
    if (transitions_[t].kind != TransitionKind::kImmediate) continue;
    if (!is_enabled(t, m)) continue;
    if (transitions_[t].priority > best_priority) {
      best_priority = transitions_[t].priority;
      out.clear();
    }
    if (transitions_[t].priority == best_priority) out.push_back(t);
  }
  return out;
}

std::vector<TransitionId> SrnModel::enabled_timed(const Marking& m) const {
  std::vector<TransitionId> out;
  for (TransitionId t = 0; t < transitions_.size(); ++t) {
    if (transitions_[t].kind == TransitionKind::kTimed && is_enabled(t, m)) out.push_back(t);
  }
  return out;
}

void SrnModel::check_place(PlaceId p) const {
  if (p >= places_.size()) throw std::out_of_range("invalid place id");
}

void SrnModel::check_transition(TransitionId t) const {
  if (t >= transitions_.size()) throw std::out_of_range("invalid transition id");
}

}  // namespace patchsec::petri
