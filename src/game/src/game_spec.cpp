#include "patchsec/game/game_spec.hpp"

#include <cmath>
#include <stdexcept>

namespace patchsec::game {

GameSpec GameSpec::paper_case_study() {
  GameSpec spec;
  // Defender grid: the five Sec. IV candidate designs against a weekly /
  // biweekly / monthly / bimonthly cadence ladder (the paper evaluates the
  // monthly point; the game asks which rung survives an adaptive attacker).
  spec.scenario = core::Scenario::paper_case_study().with_patch_schedule(
      {168.0, 360.0, 720.0, 1440.0});
  // Unit server cost, budget 5: every candidate design (4-5 servers) is
  // deployable, so the cost constraint only prunes hypothetical deviations —
  // the binding constraint is exposure.
  spec.defender.cost_budget = 5.0;
  // Binds at slow cadences: the bimonthly window factor is 1.0 and the
  // before-patch class success probabilities are high, so a concentrated
  // attacker pushes lazy schedules out of the feasible set.
  spec.defender.exposure_bound = 0.4;
  // Cap below the budget forces the attacker to spread over at least two
  // path classes (the 3-tier policy yields exactly two: dns-web-app-db and
  // web-app-db).
  spec.attacker.effort_budget = 1.0;
  spec.attacker.per_path_cap = 0.6;
  return spec;
}

void GameSpec::validate() const {
  scenario.validate();
  if (scenario.designs().empty()) {
    throw std::invalid_argument("GameSpec: scenario must carry at least one candidate design");
  }
  if (scenario.patch_intervals().empty()) {
    throw std::invalid_argument("GameSpec: scenario must carry at least one patch cadence");
  }
  for (double c : defender.server_cost) {
    if (!(c >= 0.0) || !std::isfinite(c)) {
      throw std::invalid_argument("GameSpec: server costs must be finite and >= 0");
    }
  }
  if (!(defender.cost_budget > 0.0)) {
    throw std::invalid_argument("GameSpec: cost budget must be > 0");
  }
  if (!(defender.exposure_bound > 0.0)) {
    throw std::invalid_argument("GameSpec: exposure bound must be > 0");
  }
  if (!(attacker.effort_budget > 0.0) || !std::isfinite(attacker.effort_budget)) {
    throw std::invalid_argument("GameSpec: attacker effort budget must be finite and > 0");
  }
  if (!(attacker.per_path_cap > 0.0) || !std::isfinite(attacker.per_path_cap)) {
    throw std::invalid_argument("GameSpec: attacker per-path cap must be finite and > 0");
  }
  if (!(payoff.impact_weight >= 0.0 && payoff.impact_weight <= 1.0)) {
    throw std::invalid_argument("GameSpec: impact_weight must lie in [0, 1]");
  }
  // An infinite epsilon ties every COA pair and every utility pair, and lets
  // every certificate check pass vacuously.
  if (!(tie_epsilon >= 0.0) || !std::isfinite(tie_epsilon)) {
    throw std::invalid_argument("GameSpec: tie_epsilon must be finite and >= 0");
  }
  if (!(certificate_epsilon > 0.0) || !std::isfinite(certificate_epsilon)) {
    throw std::invalid_argument("GameSpec: certificate_epsilon must be finite and > 0");
  }
}

}  // namespace patchsec::game
