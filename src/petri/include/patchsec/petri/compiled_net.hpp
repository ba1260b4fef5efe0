#pragma once
/// \file compiled_net.hpp
/// \brief CompiledNet: an SrnModel flattened for hot loops.  Input/inhibitor
/// arcs live in one contiguous array indexed by per-transition spans, firing
/// effects are precomputed net token deltas per touched place, and transitions
/// are partitioned timed/immediate (immediates pre-sorted by priority).  All
/// per-marking work is then branch-light array scanning with zero allocation.
///
/// Shared by the reachability explorer (analytic path) and the test-side
/// Monte-Carlo event loop (tests/testgen): both compile the model once and then reuse
/// caller-owned scratch vectors across millions of enabledness checks and
/// firings.  A CompiledNet copies the model's rates and holds pointers into
/// its guards; the model must outlive it and must not be modified afterwards.
/// All member functions are const and touch no mutable state, so one
/// CompiledNet may serve concurrent readers (threaded simulation
/// replications) provided the model's guard closures are pure.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "patchsec/petri/marking.hpp"
#include "patchsec/petri/srn_model.hpp"

namespace patchsec::petri {

struct FlatArc {
  PlaceId place = 0;
  TokenCount multiplicity = 0;
};

struct PlaceDelta {
  PlaceId place = 0;
  std::int64_t delta = 0;
};

struct CompiledTransition {
  TransitionId id = 0;
  std::uint32_t in_begin = 0, in_end = 0;        // input arcs (enabling)
  std::uint32_t inh_begin = 0, inh_end = 0;      // inhibitor arcs
  std::uint32_t delta_begin = 0, delta_end = 0;  // net firing effect
  const Guard* guard = nullptr;                  // nullptr when unguarded
  Rate rate;                                     // timed transitions only
  double weight = 0.0;                           // immediates only
  unsigned priority = 0;                         // immediates only
};

class CompiledNet {
 public:
  explicit CompiledNet(const SrnModel& model);

  [[nodiscard]] bool enabled(const CompiledTransition& t, const Marking& m) const {
    for (std::uint32_t k = t.in_begin; k < t.in_end; ++k) {
      if (m[arcs_[k].place] < arcs_[k].multiplicity) return false;
    }
    for (std::uint32_t k = t.inh_begin; k < t.inh_end; ++k) {
      if (m[arcs_[k].place] >= arcs_[k].multiplicity) return false;
    }
    if (t.guard != nullptr && !(*t.guard)(m)) return false;
    return true;
  }

  /// Successor of firing t in m, written into `out` (capacity reused).  Only
  /// call with `enabled(t, m)`; `out` must not alias `m`.  Throws
  /// std::overflow_error when a place would exceed the TokenCount range.
  void fire_into(const CompiledTransition& t, const Marking& m, Marking& out) const {
    out = m;
    for (std::uint32_t k = t.delta_begin; k < t.delta_end; ++k) {
      const std::int64_t next = static_cast<std::int64_t>(m[deltas_[k].place]) + deltas_[k].delta;
      if (next > std::numeric_limits<TokenCount>::max()) throw_overflow(t, deltas_[k].place, m);
      out[deltas_[k].place] = static_cast<TokenCount>(next);
    }
  }

  /// Net token change of firing t: one entry per touched place, ascending.
  [[nodiscard]] std::span<const PlaceDelta> deltas(const CompiledTransition& t) const noexcept {
    return {deltas_.data() + t.delta_begin, deltas_.data() + t.delta_end};
  }

  /// Timed transitions in ascending id order.
  [[nodiscard]] std::span<const CompiledTransition> timed() const noexcept { return timed_; }

  void enabled_timed_into(const Marking& m, std::vector<const CompiledTransition*>& out) const {
    out.clear();
    for (const CompiledTransition& t : timed_) {
      if (enabled(t, m)) out.push_back(&t);
    }
  }

  /// Enabled immediates of maximal priority (same set and order as
  /// SrnModel::enabled_immediates).
  void enabled_immediates_into(const Marking& m,
                               std::vector<const CompiledTransition*>& out) const {
    out.clear();
    std::size_t i = 0;
    for (; i < immediates_.size(); ++i) {
      if (enabled(immediates_[i], m)) break;
    }
    if (i == immediates_.size()) return;
    const unsigned priority = immediates_[i].priority;
    out.push_back(&immediates_[i]);
    for (++i; i < immediates_.size() && immediates_[i].priority == priority; ++i) {
      if (enabled(immediates_[i], m)) out.push_back(&immediates_[i]);
    }
  }

  [[nodiscard]] bool has_immediates() const noexcept { return !immediates_.empty(); }

  /// Rate of a timed transition in m, validated as SrnModel::rate does
  /// (std::domain_error, with its message, when it is 0).
  [[nodiscard]] double checked_rate(const CompiledTransition& t, const Marking& m) const;

 private:
  [[noreturn]] void throw_overflow(const CompiledTransition& t, PlaceId place,
                                   const Marking& m) const;

  const SrnModel* model_ = nullptr;  // for error messages only
  std::vector<FlatArc> arcs_;
  std::vector<PlaceDelta> deltas_;
  std::vector<CompiledTransition> timed_;
  std::vector<CompiledTransition> immediates_;
};

}  // namespace patchsec::petri
