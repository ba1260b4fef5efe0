#include "patchsec/petri/compiled_net.hpp"

#include <algorithm>
#include <stdexcept>

namespace patchsec::petri {

CompiledNet::CompiledNet(const SrnModel& model) : model_(&model) {
  std::vector<std::int64_t> delta_scratch(model.place_count(), 0);
  std::vector<PlaceId> touched;
  for (TransitionId t = 0; t < model.transition_count(); ++t) {
    CompiledTransition ct;
    ct.id = t;
    ct.in_begin = static_cast<std::uint32_t>(arcs_.size());
    for (const Arc& a : model.input_arcs(t)) arcs_.push_back({a.place, a.multiplicity});
    ct.in_end = static_cast<std::uint32_t>(arcs_.size());
    ct.inh_begin = ct.in_end;
    for (const Arc& a : model.inhibitor_arcs(t)) arcs_.push_back({a.place, a.multiplicity});
    ct.inh_end = static_cast<std::uint32_t>(arcs_.size());

    touched.clear();
    for (const Arc& a : model.input_arcs(t)) {
      if (delta_scratch[a.place] == 0) touched.push_back(a.place);
      delta_scratch[a.place] -= static_cast<std::int64_t>(a.multiplicity);
    }
    for (const Arc& a : model.output_arcs(t)) {
      if (delta_scratch[a.place] == 0) touched.push_back(a.place);
      delta_scratch[a.place] += static_cast<std::int64_t>(a.multiplicity);
    }
    ct.delta_begin = static_cast<std::uint32_t>(deltas_.size());
    std::sort(touched.begin(), touched.end());
    for (PlaceId p : touched) {
      if (delta_scratch[p] != 0) deltas_.push_back({p, delta_scratch[p]});
      delta_scratch[p] = 0;
    }
    ct.delta_end = static_cast<std::uint32_t>(deltas_.size());

    if (model.has_guard(t)) ct.guard = &model.guard(t);
    if (model.transition_kind(t) == TransitionKind::kTimed) {
      ct.rate = model.timed_rate(t);
      timed_.push_back(ct);
    } else {
      ct.weight = model.weight(t);
      ct.priority = model.priority(t);
      immediates_.push_back(ct);
    }
  }
  // Highest priority first; stable keeps ascending-id order inside a
  // priority class, matching SrnModel::enabled_immediates.
  std::stable_sort(immediates_.begin(), immediates_.end(),
                   [](const CompiledTransition& a, const CompiledTransition& b) {
                     return a.priority > b.priority;
                   });
}

double CompiledNet::checked_rate(const CompiledTransition& t, const Marking& m) const {
  const double r = t.rate.at(m);
  // Only a per-token rate at an empty place is 0: the model throws its error.
  return r != 0.0 ? r : model_->rate(t.id, m);
}

void CompiledNet::throw_overflow(const CompiledTransition& t, PlaceId place,
                                 const Marking& m) const {
  throw std::overflow_error("firing " + model_->transition_name(t.id) + " overflows place " +
                            model_->place_name(place) + " in " + to_string(m));
}

}  // namespace patchsec::petri
