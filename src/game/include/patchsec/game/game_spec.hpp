#pragma once
/// \file game_spec.hpp
/// \brief The attacker–defender patch-scheduling game: what each player
/// controls, what constrains them, and how payoffs are scored.
///
/// The paper scores *fixed* designs against *fixed* patch schedules; the
/// adversarial version is the real capacity-planning question.  The
/// **defender** picks one cell of a design grid x cadence grid (the
/// scenario's candidate designs and patch schedule) to maximize COA, subject
/// to a deployment-cost budget and an *exposure bound that depends on where
/// the attacker concentrates effort* — the coupled constraint that makes
/// this a generalized Nash equilibrium problem (GNEP) rather than a plain
/// bimatrix game.  The **attacker** spreads an effort budget over the HARM
/// attack-path classes (harm::aggregate_path_classes — role-signature
/// strategies, stable across the design grid) on a capped simplex
/// { w >= 0, w_c <= per_path_cap, sum w_c <= effort_budget }, maximizing a
/// path-weighted mix of attack impact (AIM) and success probability scaled
/// by the patch window (a slower cadence leaves vulnerabilities exploitable
/// longer).
///
/// The defender's strategy set is finite, so the game is solved exactly by
/// enumeration (best_response.hpp): one memoized Session/EvalService sweep
/// scores every cell, the attacker's best response at each cell is an exact
/// greedy fill of its linear objective, and the coupled budget
/// window * exposure <= bound is linear in the attacker weights, so each
/// cell's equilibrium test is one pass over the cached grid.

#include <array>
#include <limits>

#include "patchsec/core/scenario.hpp"

namespace patchsec::game {

/// \brief Defender-side constraints: a deployment-cost budget (independent
/// of the attacker) and the coupled exposure bound (dependent on the
/// attacker's current effort allocation).
struct DefenderConstraints {
  /// Deployment cost of one server of each role (role_index order).
  std::array<double, enterprise::kRoleCount> server_cost{1.0, 1.0, 1.0, 1.0};
  /// Total deployment budget: sum_role count * server_cost <= cost_budget.
  double cost_budget = std::numeric_limits<double>::infinity();
  /// Coupled (GNEP) constraint: the effort-weighted attack exposure
  ///   window(cadence) * sum_c w_c * success_c(design)
  /// must stay <= exposure_bound, where window(cadence) = cadence / max
  /// cadence in the grid (a longer patch interval leaves the population
  /// exploitable longer) and success_c is the class success probability of
  /// the design's before-patch HARM.  Infinity disables the coupling.
  double exposure_bound = std::numeric_limits<double>::infinity();
};

/// \brief Attacker-side strategy space: a capped effort simplex over the
/// attack-path classes.
struct AttackerConstraints {
  double effort_budget = 1.0;  ///< sum_c w_c <= effort_budget.
  double per_path_cap = 1.0;   ///< w_c <= per_path_cap (cap < budget spreads effort).
};

/// \brief Attacker payoff composition: utility of class c under defender
/// cell (design i, cadence j) is
///   window(j) * [ impact_weight * impact_c(i)/impact_max
///                 + (1 - impact_weight) * success_c(i) ]
/// with impact_max the largest class impact over the whole grid (so the AIM
/// term is a [0, 1] share, commensurable with the probability term).
struct PayoffWeights {
  double impact_weight = 0.5;  ///< AIM share; 1 - impact_weight weights ASP.
};

/// \brief Everything one equilibrium computation needs.  The embedded
/// Scenario doubles as the defender strategy space: `designs()` is the
/// design grid, `patch_intervals()` the cadence grid, and the engine options
/// configure the inner solves exactly as for a plain Session sweep.
struct GameSpec {
  core::Scenario scenario;
  DefenderConstraints defender;
  AttackerConstraints attacker;
  PayoffWeights payoff;

  /// Defender payoff (COA) differences within this bound count as equal:
  /// a cell is an equilibrium unless a feasible deviation gains more.  The
  /// same bound decides when two attacker utilities tie.
  double tie_epsilon = 1e-12;
  /// Slack allowed by the deviation-check certificate.
  double certificate_epsilon = 1e-9;

  /// The paper case study as a game: the five Sec. IV designs against a
  /// weekly-to-bimonthly cadence grid, an exposure bound that binds at slow
  /// cadences, and an attacker who must spread effort over at least two
  /// path classes.
  [[nodiscard]] static GameSpec paper_case_study();

  /// Throws std::invalid_argument with a precise message when the spec is
  /// not solvable (delegates to Scenario::validate, then checks the game
  /// knobs: at least one design and one cadence, finite non-negative server
  /// costs, positive cost budget and exposure bound (+inf, the default,
  /// means unconstrained), finite positive effort budget and per-path cap,
  /// impact_weight in [0, 1], finite non-negative tie_epsilon, finite
  /// positive certificate_epsilon).
  void validate() const;
};

}  // namespace patchsec::game
