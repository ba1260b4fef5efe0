// Patch-scheduling game: solve the paper case study as an attacker–defender
// equilibrium problem and emit the decision-frontier data behind a Fig. 6
// style trade-off plot (COA vs attack exposure across the design x cadence
// grid, with the equilibrium cell marked).
//
// The defender picks a redundancy design and a patch cadence under a cost
// budget and an exposure bound coupled to the attacker's effort allocation;
// the attacker spreads an effort budget over the HARM attack-path classes.
// The solver enumerates every pure equilibrium of the finite grid, and the
// defender-preferred one's deviation-check certificate is REQUIRED to verify
// here: no equilibrium, or an uncertified one, exits nonzero, so the CI smoke
// run pins the game layer end to end.
//
// Usage: patch_game [--json | --csv]
//   (no flag)  human-readable summary + equilibria + frontier table
//   --json     machine-readable result (equilibria, frontier, certificate)
//   --csv      frontier as CSV (one row per grid cell)

#include <cstdio>
#include <cstring>
#include <string>

#include "patchsec/game/best_response.hpp"

namespace game = patchsec::game;

namespace {

void print_csv(const game::EquilibriumResult& result) {
  std::printf(
      "design,cadence_hours,coa,attack_impact,attack_success,deployment_cost,"
      "exposure,attacker_payoff,coa_gain,cost_feasible,exposure_feasible,equilibrium\n");
  for (const game::FrontierPoint& p : result.frontier) {
    std::printf("%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%d,%d\n",
                p.design_name.c_str(), p.cadence_hours, p.coa, p.attack_impact,
                p.attack_success, p.deployment_cost, p.exposure, p.attacker_payoff, p.coa_gain,
                p.cost_feasible ? 1 : 0, p.exposure_feasible ? 1 : 0, p.equilibrium ? 1 : 0);
  }
}

void print_json(const game::EquilibriumResult& result) {
  std::printf("{\n");
  std::printf("  \"converged\": %s,\n", result.converged ? "true" : "false");
  std::printf("  \"iterations\": %zu,\n", result.iterations);
  std::printf("  \"equilibrium\": {\n");
  std::printf("    \"design\": \"%s\",\n", result.design.name().c_str());
  std::printf("    \"cadence_hours\": %.17g,\n", result.cadence_hours);
  std::printf("    \"coa\": %.17g,\n", result.defender_payoff);
  std::printf("    \"attacker_payoff\": %.17g,\n", result.attacker_payoff);
  std::printf("    \"exposure\": %.17g,\n", result.exposure);
  std::printf("    \"attacker_weights\": {");
  for (std::size_t c = 0; c < result.class_names.size(); ++c) {
    std::printf("%s\"%s\": %.17g", c == 0 ? "" : ", ", result.class_names[c].c_str(),
                result.attacker.weights[c]);
  }
  std::printf("}\n  },\n");
  std::printf("  \"certificate\": {\n");
  std::printf("    \"verified\": %s,\n", result.certificate.verified ? "true" : "false");
  std::printf("    \"defender_best_gain\": %.17g,\n", result.certificate.defender_best_gain);
  std::printf("    \"attacker_best_gain\": %.17g,\n", result.certificate.attacker_best_gain);
  std::printf("    \"attacker_exchange_gain\": %.17g,\n",
              result.certificate.attacker_exchange_gain);
  std::printf("    \"defender_strategies_checked\": %zu,\n",
              result.certificate.defender_strategies_checked);
  std::printf("    \"attacker_transfers_checked\": %zu\n",
              result.certificate.attacker_transfers_checked);
  std::printf("  },\n");
  std::printf("  \"service\": {\"solves\": %llu, \"cache_hits\": %llu, \"hit_rate\": %.6f},\n",
              static_cast<unsigned long long>(result.service.solves),
              static_cast<unsigned long long>(result.service.cache.hits),
              result.cache_hit_rate());
  std::printf("  \"equilibria\": [\n");
  for (std::size_t e = 0; e < result.equilibria.size(); ++e) {
    const game::Equilibrium& eq = result.equilibria[e];
    std::printf("    {\"design_index\": %zu, \"cadence_index\": %zu, \"attacker_weights\": [",
                eq.defender.design_index, eq.defender.cadence_index);
    for (std::size_t c = 0; c < eq.attacker.weights.size(); ++c) {
      std::printf("%s%.17g", c == 0 ? "" : ", ", eq.attacker.weights[c]);
    }
    std::printf("], \"tie_face\": %s, \"verified\": %s}%s\n", eq.tie_face ? "true" : "false",
                eq.certificate.verified ? "true" : "false",
                e + 1 < result.equilibria.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"frontier\": [\n");
  for (std::size_t f = 0; f < result.frontier.size(); ++f) {
    const game::FrontierPoint& p = result.frontier[f];
    std::printf("    {\"design\": \"%s\", \"cadence_hours\": %.17g, \"coa\": %.17g, "
                "\"attack_impact\": %.17g, \"attack_success\": %.17g, \"exposure\": %.17g, "
                "\"attacker_payoff\": %.17g, \"coa_gain\": %.17g, \"feasible\": %s, "
                "\"equilibrium\": %s}%s\n",
                p.design_name.c_str(), p.cadence_hours, p.coa, p.attack_impact,
                p.attack_success, p.exposure, p.attacker_payoff, p.coa_gain,
                p.cost_feasible && p.exposure_feasible ? "true" : "false",
                p.equilibrium ? "true" : "false", f + 1 < result.frontier.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

void print_human(const game::EquilibriumResult& result) {
  std::printf("=== patch-scheduling game: paper case study ===\n\n");
  std::printf("equilibria: %zu pure equilibri%s on the grid\n", result.equilibria.size(),
              result.equilibria.size() == 1 ? "um" : "a");
  std::printf("defender  : %s @ every %.0f h  (COA %.6f, exposure %.4f)\n",
              result.design.name().c_str(), result.cadence_hours, result.defender_payoff,
              result.exposure);
  std::printf("attacker  : payoff %.4f over %zu path classes\n", result.attacker_payoff,
              result.class_names.size());
  for (std::size_t c = 0; c < result.class_names.size(); ++c) {
    std::printf("    %-24s effort %.4f\n", result.class_names[c].c_str(),
                result.attacker.weights[c]);
  }
  std::printf("certificate: %s (defender gain %.2e, attacker gain %.2e, exchange %.2e)\n",
              result.certificate.verified ? "VERIFIED" : "NOT VERIFIED",
              result.certificate.defender_best_gain, result.certificate.attacker_best_gain,
              result.certificate.attacker_exchange_gain);
  std::printf("service    : %llu solves, %llu cache hits (hit rate %.2f)\n\n",
              static_cast<unsigned long long>(result.service.solves),
              static_cast<unsigned long long>(result.service.cache.hits),
              result.cache_hit_rate());

  std::printf("%-28s %9s %9s %9s %9s %9s %6s %5s\n", "design @ cadence", "COA", "AIM", "ASP",
              "exposure", "COA gain", "feas", "eq");
  for (const game::FrontierPoint& p : result.frontier) {
    std::string cell = p.design_name + " @ " + std::to_string(static_cast<int>(p.cadence_hours));
    std::printf("%-28s %9.5f %9.2f %9.5f %9.4f %9.2e %6s %5s\n", cell.c_str(), p.coa,
                p.attack_impact, p.attack_success, p.exposure, p.coa_gain,
                p.cost_feasible && p.exposure_feasible ? "yes" : "no",
                p.equilibrium ? "<==" : "");
  }
  std::printf("\nequilibria (cell, attacker effort):\n");
  for (const game::Equilibrium& eq : result.equilibria) {
    std::printf("  (%zu, %zu)", eq.defender.design_index, eq.defender.cadence_index);
    for (double w : eq.attacker.weights) std::printf("  %.4f", w);
    std::printf("%s%s\n", eq.tie_face ? "  [tied attacker optimum]" : "",
                eq.certificate.verified ? "" : "  [NOT VERIFIED]");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  const bool csv = argc > 1 && std::strcmp(argv[1], "--csv") == 0;

  game::BestResponseSolver solver(game::GameSpec::paper_case_study());
  const game::EquilibriumResult result = solver.solve();

  if (json) {
    print_json(result);
  } else if (csv) {
    print_csv(result);
  } else {
    print_human(result);
  }

  // The smoke contract: the paper game must have a pure equilibrium whose
  // deviation-check certificate verifies, every run, every thread count.
  if (!result.converged) {
    std::fprintf(stderr, "FAIL: no pure equilibrium on the grid\n");
    return 1;
  }
  if (!result.certificate.verified) {
    std::fprintf(stderr, "FAIL: deviation-check certificate did not verify\n");
    return 1;
  }
  return 0;
}
