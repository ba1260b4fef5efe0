// Shared load generation for the game-layer benchmarks: the same equilibrium
// computation drives the standalone `bench_game` CLI and the schema-v7
// `game_equilibrium_k6` row of `run_benchmarks`, so the committed
// BENCH_RESULTS.json and the CI smoke step measure identical work.
//
// The k=6 game: uniform k-per-tier designs k = 1..6 (the k=6 upper layer is
// the classic flat-engine wall, so the spec runs the exact symmetry-lumped
// engine) against the weekly-to-bimonthly cadence ladder, a deployment
// budget that prices the k=6 fleet out, and an exposure bound that prices
// lazy cadences out.  Each measured repetition solves the game TWICE on one
// solver: the second solve re-runs the grid sweep against the warm service
// cache (hit rate 0.5 by construction: one cold sweep out of two) and must
// reproduce the first equilibrium bit for bit — determinism is asserted into
// the row's `converged` flag, not assumed.

#pragma once

#include <cmath>
#include <cstring>
#include <vector>

#include "patchsec/game/best_response.hpp"

namespace patchsec::benchgame {

inline bool same_bits(double a, double b) noexcept {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The k=6 game of the `game_equilibrium_k6` row.
inline game::GameSpec k6_game_spec() {
  game::GameSpec spec;
  std::vector<enterprise::RedundancyDesign> designs;
  for (unsigned k = 1; k <= 6; ++k) {
    designs.push_back(enterprise::RedundancyDesign{{k, k, k, k}});
  }
  core::EngineOptions engine;
  engine.lumping = true;  // k=6 flat is the scaling wall the lumping layer removed.
  spec.scenario = core::Scenario::paper_case_study()
                      .with_designs(designs)
                      .with_patch_schedule({168.0, 360.0, 720.0, 1440.0})
                      .with_engine(engine);
  spec.defender.cost_budget = 20.0;    // 4k servers at unit cost: k <= 5 deployable.
  spec.defender.exposure_bound = 0.4;  // prices the 720 h / 1440 h windows out.
  spec.attacker.effort_budget = 1.0;
  spec.attacker.per_path_cap = 0.6;
  return spec;
}

/// One equilibrium measurement: two back-to-back solves on one solver.
struct GameOutcome {
  bool converged = false;       ///< both solves found a pure equilibrium.
  bool certified = false;       ///< both deviation-check certificates verified.
  bool deterministic = false;   ///< warm-cache re-solve reproduced the result bitwise.
  std::size_t iterations = 0;   ///< grid sweeps of the first solve.
  std::size_t grid_cells = 0;   ///< defender strategy space size (N x M).
  std::uint64_t solves = 0;     ///< Session solves the service ran (== grid_cells when cached).
  std::uint64_t submitted = 0;  ///< grid evaluations requested across both solves.
  double cache_hit_rate = 0.0;  ///< service cache hit rate across both solves.
  double evals_per_second = 0.0;  ///< grid evaluations delivered per second (caller fills).
  game::EquilibriumResult result;  ///< the first solve's equilibrium.
};

inline bool equal_equilibria(const game::EquilibriumResult& a, const game::EquilibriumResult& b) {
  if (!(a.defender == b.defender) || a.converged != b.converged ||
      a.iterations != b.iterations ||
      a.attacker.weights.size() != b.attacker.weights.size()) {
    return false;
  }
  for (std::size_t c = 0; c < a.attacker.weights.size(); ++c) {
    if (!same_bits(a.attacker.weights[c], b.attacker.weights[c])) return false;
  }
  return same_bits(a.defender_payoff, b.defender_payoff) &&
         same_bits(a.attacker_payoff, b.attacker_payoff) && same_bits(a.exposure, b.exposure);
}

/// Solve the k=6 game twice through one service and check everything the
/// bench row asserts.  `workers` sizes the service pool (the outcome must
/// not depend on it — bench_game cross-checks counts).
inline GameOutcome run_equilibrium(std::size_t workers = 1) {
  service::ServiceOptions options;
  options.workers = workers;
  game::BestResponseSolver solver(k6_game_spec(), options);
  GameOutcome outcome;
  outcome.result = solver.solve();
  const game::EquilibriumResult warm = solver.solve();
  outcome.converged = outcome.result.converged && warm.converged;
  outcome.certified = outcome.result.certificate.verified && warm.certificate.verified;
  outcome.deterministic = equal_equilibria(outcome.result, warm);
  outcome.iterations = outcome.result.iterations;
  outcome.grid_cells =
      solver.spec().scenario.designs().size() * solver.spec().scenario.patch_intervals().size();
  outcome.solves = warm.service.solves;
  outcome.submitted = warm.service.submitted;
  outcome.cache_hit_rate = warm.service.cache.hit_rate();
  return outcome;
}

}  // namespace patchsec::benchgame
