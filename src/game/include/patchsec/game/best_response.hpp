#pragma once
/// \file best_response.hpp
/// \brief Exact pure-equilibrium enumeration for the patch-scheduling game,
/// with a verified (not assumed) certificate per equilibrium.
///
/// The defender's strategy set is the finite design x cadence grid, so
/// solve() needs no iteration:
///
///  1. **Sweep** — submit every cell to the EvalService once (a warm
///     re-solve is pure cache hits) and record its COA.
///  2. **Attacker best response per cell** — allocate the effort budget
///     greedily over classes in descending utility (exact for a linear
///     objective over the capped simplex { 0 <= w_c <= cap,
///     sum w_c <= budget }), ties by canonical class order.  The cell is
///     flagged when that optimum is not unique: some unit of effort can move
///     between two equal-utility classes, or into a zero-utility class with
///     unspent budget, without changing the attacker's payoff.
///  3. **Enumerate** — a cell is a pure equilibrium when it is within the
///     cost budget, satisfies the exposure bound under its own attacker
///     best response w, and no cell feasible under that same w has a COA
///     more than tie_epsilon higher.  The coupled budget
///     window * exposure(w) <= bound is linear in w, so this is one pass
///     over the cached grid per cell.
///
/// Every equilibrium is re-checked by the deviation certificate: the
/// defender check replays the feasibility filter over every grid cell and
/// bounds the best feasible COA gain; the attacker check compares against a
/// fresh greedy optimum AND walks all weight-transfer pairs (the KKT-style
/// exchange argument: moving mass from a held class to a strictly-better-
/// utility class with cap slack would improve).  Both bounds must stay
/// within certificate_epsilon or `verified` stays false.

#include <cstddef>
#include <string>
#include <vector>

#include "patchsec/core/session.hpp"
#include "patchsec/game/game_spec.hpp"
#include "patchsec/harm/path_classes.hpp"
#include "patchsec/service/eval_service.hpp"

namespace patchsec::game {

/// One defender pure strategy: a cell of the design x cadence grid.
struct DefenderStrategy {
  std::size_t design_index = 0;
  std::size_t cadence_index = 0;
  friend bool operator==(const DefenderStrategy&, const DefenderStrategy&) = default;
};

/// One attacker mixed strategy: effort weights aligned with the canonical
/// class universe (EquilibriumResult::class_names).
struct AttackerStrategy {
  std::vector<double> weights;
};

/// One grid cell of the COA/AIM decision frontier, scored against the
/// attacker's best response at that cell.  A cell that is not an
/// equilibrium says why: over the cost budget, over the exposure bound, or
/// beaten by a feasible deviation worth `coa_gain`.
struct FrontierPoint {
  std::size_t design_index = 0;
  std::size_t cadence_index = 0;
  std::string design_name;
  double cadence_hours = 0.0;
  double coa = 0.0;            ///< defender payoff of the cell.
  double attack_impact = 0.0;  ///< before-patch AIM of the design.
  double attack_success = 0.0; ///< before-patch ASP of the design.
  double deployment_cost = 0.0;
  double exposure = 0.0;         ///< coupled constraint under the cell's attacker best response.
  double attacker_payoff = 0.0;  ///< attacker's best-response value at this cell.
  /// Largest COA gain over this cell among cells feasible under its attacker
  /// best response (0 when none is better); above tie_epsilon = beaten.
  double coa_gain = 0.0;
  bool cost_feasible = false;
  bool exposure_feasible = false;
  bool equilibrium = false;  ///< the cell is a pure equilibrium.
};

/// Deviation-check certificate: recomputed at each equilibrium, never assumed
/// from the enumeration.  `verified` requires both player checks to pass.
struct DeviationCertificate {
  bool verified = false;
  bool defender_ok = false;
  bool attacker_ok = false;
  /// Best feasible COA improvement any grid deviation offers (<= epsilon to pass).
  double defender_best_gain = 0.0;
  /// Greedy-optimum payoff minus held payoff (<= epsilon to pass).
  double attacker_best_gain = 0.0;
  /// Best utility-rate gain over all pairwise weight transfers with cap/mass
  /// slack (the exchange check; <= epsilon to pass).
  double attacker_exchange_gain = 0.0;
  std::size_t defender_strategies_checked = 0;
  std::size_t attacker_transfers_checked = 0;
};

/// One pure equilibrium: a defender cell, the attacker's best response
/// there, and its deviation certificate.
struct Equilibrium {
  DefenderStrategy defender;
  AttackerStrategy attacker;
  /// The attacker's optimal face at this cell is not a single point: another
  /// allocation earns the same attacker payoff and may move the exposure.
  bool tie_face = false;
  DeviationCertificate certificate;
};

/// The solver's full answer: every pure equilibrium, the defender-preferred
/// one spelled out, the frontier, and the service counters of the run.
struct EquilibriumResult {
  bool converged = false;      ///< at least one pure equilibrium exists.
  std::size_t iterations = 0;  ///< grid sweeps run (one per solve).

  /// Every pure equilibrium, in (design, cadence) order.
  std::vector<Equilibrium> equilibria;

  /// The defender-preferred equilibrium (highest COA, ties to the lowest
  /// (i, j)); left default-initialized when `converged` is false.
  DefenderStrategy defender;
  enterprise::RedundancyDesign design;  ///< resolved defender design.
  double cadence_hours = 0.0;           ///< resolved defender cadence.
  AttackerStrategy attacker;
  std::vector<std::string> class_names;  ///< canonical class universe, aligned with weights.

  double defender_payoff = 0.0;  ///< equilibrium COA.
  double attacker_payoff = 0.0;  ///< equilibrium attacker value.
  double exposure = 0.0;         ///< coupled-constraint value at equilibrium.
  DeviationCertificate certificate;

  std::vector<FrontierPoint> frontier;  ///< full grid, (design, cadence) order.

  /// Service counters at the end of the run (cache hit rate, solves,
  /// coalesced — the memoization evidence).
  service::ServiceStats service;
  [[nodiscard]] double cache_hit_rate() const noexcept { return service.cache.hit_rate(); }
};

/// Pure-equilibrium solver.  Owns an EvalService over the spec's
/// scenario so every inner evaluation rides the content-hashed cache; the
/// service (and through it the Session) stays inspectable after solve() for
/// the memoization assertions.
class BestResponseSolver {
 public:
  /// Validates the spec and builds the strategy spaces: per-design HARM path
  /// classes, read from the service Session's security memo
  /// (core::Session::path_classes — role-labelled, under the scenario's
  /// enumeration cap, from the same HARM build the grid sweep's reports
  /// use), the canonical class universe, deployment costs, and cadence
  /// window factors.  The solver builds no HARM of its own: a cold
  /// constructor plus solve() builds one per design.
  explicit BestResponseSolver(GameSpec spec, service::ServiceOptions options = {});

  /// Sweep the grid, enumerate every pure equilibrium and certify each.
  /// Deterministic for a fixed spec: independent of the service's worker
  /// count and repeatable across runs.
  [[nodiscard]] EquilibriumResult solve();

  [[nodiscard]] const GameSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const service::EvalService& service() const noexcept { return service_; }
  /// Canonical class universe (union over the design grid, sorted by
  /// signature).  Attacker weights index into this.
  [[nodiscard]] const std::vector<std::string>& class_names() const noexcept {
    return class_names_;
  }

 private:
  struct CellScore {
    double coa = 0.0;
    double attack_impact = 0.0;
    double attack_success = 0.0;
  };

  /// Sweep the whole grid through the service (one submit per cell, futures
  /// drained in submission order) into scores_.
  void sweep_grid();
  [[nodiscard]] double exposure_of(std::size_t design_index, std::size_t cadence_index,
                                   const std::vector<double>& weights) const;
  [[nodiscard]] double attacker_value(std::size_t design_index, std::size_t cadence_index,
                                      const std::vector<double>& weights) const;
  /// Per-class attacker utilities at a defender cell.
  [[nodiscard]] std::vector<double> utilities_at(std::size_t design_index,
                                                 std::size_t cadence_index) const;
  /// Exact greedy maximizer of a linear objective over the capped simplex;
  /// `tie_face` reports whether another allocation attains the same value.
  [[nodiscard]] std::vector<double> attacker_best_response(const std::vector<double>& utilities,
                                                           bool* tie_face = nullptr) const;
  [[nodiscard]] bool cost_feasible(std::size_t design_index) const;
  [[nodiscard]] bool exposure_feasible(std::size_t design_index, std::size_t cadence_index,
                                       const std::vector<double>& weights) const;
  [[nodiscard]] DeviationCertificate certify(const DefenderStrategy& defender,
                                             const std::vector<double>& weights) const;

  GameSpec spec_;
  service::EvalService service_;

  std::size_t num_designs_ = 0;
  std::size_t num_cadences_ = 0;
  std::vector<std::string> class_names_;      ///< canonical universe (size C).
  std::vector<std::vector<double>> success_;  ///< [design][class] success probability.
  /// [design][class] impact_weight * impact/impact_max + (1 - impact_weight)
  /// * success — the cadence-independent factor of the attacker utility.
  std::vector<std::vector<double>> util_base_;
  std::vector<double> cost_;                  ///< [design] deployment cost.
  std::vector<double> window_;                ///< [cadence] cadence / max cadence.
  double impact_max_ = 0.0;                   ///< normalizer of the AIM payoff term.
  std::vector<CellScore> scores_;             ///< [design * num_cadences_ + cadence].
};

}  // namespace patchsec::game
