#pragma once
// Stochastic Reward Net (generalized stochastic Petri net + reward
// functions), the modeling formalism of SPNP/SHARPE which the paper uses.
//
// Supported features, matching what the paper's models need:
//  * timed transitions with exponentially distributed firing times whose
//    rates are data: a constant c, or c * #p (marking-dependent rates such
//    as  lambda * #Pup), re-rated in place by set_rate();
//  * immediate transitions with priorities and probabilistic weights;
//  * guard functions (enabling predicates over the marking, Table III);
//  * input / output / inhibitor arcs with multiplicities;
//  * rate rewards evaluated on tangible markings (Table VI).

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "patchsec/petri/marking.hpp"

namespace patchsec::petri {

using PlaceId = std::size_t;
using TransitionId = std::size_t;

/// Enabling predicate over a marking (a "guard" in SPNP terminology).
using Guard = std::function<bool(const Marking&)>;

/// Rate reward assigned to tangible markings.
using RewardFunction = std::function<double(const Marking&)>;

enum class TransitionKind : std::uint8_t { kTimed, kImmediate };

/// One arc endpoint.  `multiplicity` tokens are consumed/produced/required.
struct Arc {
  PlaceId place = 0;
  TokenCount multiplicity = 1;
};

/// A timed transition's rate: `scale`, or `scale * #place` when `place` is
/// set.  Only a valid_rate() is accepted, so only c * #p at #p = 0 is 0.
struct Rate {
  double scale = 0.0;
  std::optional<PlaceId> place;

  [[nodiscard]] double at(const Marking& m) const {
    return place ? scale * static_cast<double>(m[*place]) : scale;
  }
};

/// True when `scale` is a rate SrnModel accepts: finite and > 0 and, for a
/// per-token rate, scale * #p finite for every TokenCount.
[[nodiscard]] bool valid_rate(double scale, bool per_token) noexcept;

/// Declarative SRN.  Build places and transitions, then hand the model to the
/// reachability generator (analytic path) or the test-side simulator
/// (Monte-Carlo oracle).  The model itself is immutable during analysis.
class SrnModel {
 public:
  SrnModel() = default;

  // ---- construction -------------------------------------------------------

  /// Add a place with the given initial token count; names must be unique.
  PlaceId add_place(std::string name, TokenCount initial_tokens = 0);

  /// Add a timed transition with a constant rate.
  TransitionId add_timed_transition(std::string name, double rate);

  /// Add a timed transition with the marking-dependent rate per token * #place.
  TransitionId add_timed_transition(std::string name, double rate_per_token, PlaceId place);

  /// Re-rate timed transition t to `scale`, keeping the rate's shape: throws
  /// std::invalid_argument with add_timed_transition's message unless `scale`
  /// is a valid_rate() of that shape, std::logic_error for immediates.
  void set_rate(TransitionId t, double scale);

  /// Add an immediate transition.  Among simultaneously enabled immediates,
  /// the highest priority fires; ties are resolved probabilistically by
  /// weight.
  TransitionId add_immediate_transition(std::string name, double weight = 1.0,
                                        unsigned priority = 1);

  /// Arcs are unique per (transition, place): a repeated input or output arc
  /// adds its multiplicity to the existing one (std::invalid_argument when
  /// the sum overflows TokenCount), and a repeated inhibitor arc keeps the
  /// smaller threshold.  Every consumer therefore sees one arc per place.
  void add_input_arc(TransitionId t, PlaceId p, TokenCount multiplicity = 1);
  void add_output_arc(TransitionId t, PlaceId p, TokenCount multiplicity = 1);
  void add_inhibitor_arc(TransitionId t, PlaceId p, TokenCount multiplicity = 1);

  /// Attach an enabling guard.  Replaces any previous guard.
  void set_guard(TransitionId t, Guard guard);

  // ---- introspection ------------------------------------------------------

  [[nodiscard]] std::size_t place_count() const noexcept { return places_.size(); }
  [[nodiscard]] std::size_t transition_count() const noexcept { return transitions_.size(); }
  [[nodiscard]] const std::string& place_name(PlaceId p) const { return places_.at(p).name; }
  [[nodiscard]] const std::string& transition_name(TransitionId t) const {
    return transitions_.at(t).name;
  }
  [[nodiscard]] TransitionKind transition_kind(TransitionId t) const {
    return transitions_.at(t).kind;
  }
  /// Lookup by name; throws std::out_of_range when absent.
  [[nodiscard]] PlaceId place(const std::string& name) const;
  [[nodiscard]] TransitionId transition(const std::string& name) const;

  /// Arc introspection (for exporters and structural analysis).
  [[nodiscard]] const std::vector<Arc>& input_arcs(TransitionId t) const;
  [[nodiscard]] const std::vector<Arc>& output_arcs(TransitionId t) const;
  [[nodiscard]] const std::vector<Arc>& inhibitor_arcs(TransitionId t) const;
  [[nodiscard]] bool has_guard(TransitionId t) const;
  /// The guard itself (empty std::function when none) — lets analysis code
  /// compile the net into flat arrays without re-wrapping the model.
  [[nodiscard]] const Guard& guard(TransitionId t) const;
  /// A timed transition's rate as data (std::logic_error for immediates);
  /// callers evaluating it must refuse a 0 as rate() does.
  [[nodiscard]] const Rate& timed_rate(TransitionId t) const;

  [[nodiscard]] Marking initial_marking() const;

  // ---- semantics ----------------------------------------------------------

  /// True when t's input arcs are satisfied, inhibitor arcs are not violated
  /// and the guard (if any) holds.
  [[nodiscard]] bool is_enabled(TransitionId t, const Marking& m) const;

  /// Firing rate of a timed transition in marking m (only meaningful when
  /// enabled).  Throws std::logic_error for immediate transitions and
  /// std::domain_error when it is 0 (a per-token rate at an empty place).
  [[nodiscard]] double rate(TransitionId t, const Marking& m) const;

  /// Weight/priority of an immediate transition.
  [[nodiscard]] double weight(TransitionId t) const;
  [[nodiscard]] unsigned priority(TransitionId t) const;

  /// Successor marking after firing t in m.  Throws std::logic_error when t
  /// is not enabled and std::overflow_error when a place would exceed the
  /// TokenCount range.
  [[nodiscard]] Marking fire(TransitionId t, const Marking& m) const;

  /// Allocation-free fire: writes the successor of firing t in m into `out`
  /// (resized/overwritten; its capacity is reused).  `out` may alias `m`.
  /// Throws as fire() does.
  void fire_into(TransitionId t, const Marking& m, Marking& out) const;

  /// All enabled immediate transitions of maximal priority in m.
  [[nodiscard]] std::vector<TransitionId> enabled_immediates(const Marking& m) const;

  /// All enabled timed transitions in m.
  [[nodiscard]] std::vector<TransitionId> enabled_timed(const Marking& m) const;

  /// A marking is vanishing when at least one immediate transition is
  /// enabled (immediates preempt timed transitions).
  [[nodiscard]] bool is_vanishing(const Marking& m) const {
    return !enabled_immediates(m).empty();
  }

 private:
  struct Place {
    std::string name;
    TokenCount initial = 0;
  };
  struct Transition {
    std::string name;
    TransitionKind kind = TransitionKind::kTimed;
    Rate rate;              // timed only
    double weight = 1.0;    // immediate only
    unsigned priority = 1;  // immediate only
    std::vector<Arc> inputs;
    std::vector<Arc> outputs;
    std::vector<Arc> inhibitors;
    Guard guard;  // optional
  };

  TransitionId add_transition(std::string name, TransitionKind kind, Rate rate,
                              double weight = 1.0, unsigned priority = 1);
  void check_place(PlaceId p) const;
  void check_transition(TransitionId t) const;

  std::vector<Place> places_;
  std::vector<Transition> transitions_;
};

}  // namespace patchsec::petri
