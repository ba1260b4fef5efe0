// Game-layer tests: the hand-solvable 2x2 oracle equilibrium, the recorded
// fixed points of the former Gauss-Seidel solver (each must be among the
// enumerated equilibria), the deviation-check certificate under a seeded
// randomized spec sweep, a brute-force oracle that enumerates the vertices of
// the attacker's capped simplex and must reproduce the equilibrium set, the
// per-cell reasons when no equilibrium exists, one memoized grid sweep per
// solve, one HARM build per design, determinism across runs and service
// worker counts, and spec validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "patchsec/enterprise/network.hpp"
#include "patchsec/game/best_response.hpp"
#include "patchsec/harm/path_classes.hpp"

namespace game = patchsec::game;
namespace core = patchsec::core;
namespace ent = patchsec::enterprise;
namespace harm = patchsec::harm;
namespace svc = patchsec::service;

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_weights(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t c = 0; c < a.size(); ++c) {
    if (!same_bits(a[c], b[c])) return false;
  }
  return true;
}

/// The hand-solvable 2x2 game: designs {base, 2-APP} x cadences {360, 720}.
///
/// Solved by inspection:
///  * window factors are 0.5 (360 h) and 1.0 (720 h); both path classes have
///    before-patch success ~1, so exposure ~ window * (total effort).  With
///    the bound at 0.6 and effort budget 1, the 720 h column is infeasible
///    and the 360 h column is feasible no matter how the attacker splits.
///  * among the feasible column the defender takes the COA maximizer: the
///    2-APP design (COA 0.9929 > 0.9913).
///  * the attacker fills the per-class cap 0.6 on the higher-utility class
///    first: dns-web-app-db has the same success but strictly larger
///    impact than web-app-db, so the split is exactly (0.6, 0.4).
game::GameSpec oracle_2x2_spec() {
  game::GameSpec spec;
  spec.scenario = core::Scenario::paper_case_study()
                      .with_designs({ent::RedundancyDesign{{1, 1, 1, 1}},
                                     ent::RedundancyDesign{{1, 1, 2, 1}}})
                      .with_patch_schedule({360.0, 720.0});
  spec.defender.cost_budget = 5.0;
  spec.defender.exposure_bound = 0.6;
  spec.attacker.effort_budget = 1.0;
  spec.attacker.per_path_cap = 0.6;
  return spec;
}

/// The k=6 game: uniform k-per-tier designs k = 1..6 on the exact lumped
/// engine against the weekly-to-bimonthly cadence ladder, a cost budget that
/// prices the k=6 fleet out, and an exposure bound that prices the 720 h and
/// 1440 h windows out.
game::GameSpec k6_game_spec() {
  std::vector<ent::RedundancyDesign> designs;
  for (unsigned k = 1; k <= 6; ++k) designs.push_back(ent::RedundancyDesign{{k, k, k, k}});
  core::EngineOptions engine;
  engine.lumping = true;
  game::GameSpec spec;
  spec.scenario = core::Scenario::paper_case_study()
                      .with_designs(designs)
                      .with_patch_schedule({168.0, 360.0, 720.0, 1440.0})
                      .with_engine(engine);
  spec.defender.cost_budget = 20.0;    // 4k servers at unit cost: k <= 5 deployable.
  spec.defender.exposure_bound = 0.4;
  spec.attacker.effort_budget = 1.0;
  spec.attacker.per_path_cap = 0.6;
  return spec;
}

bool equilibria_bit_identical(const game::EquilibriumResult& a,
                              const game::EquilibriumResult& b) {
  if (!(a.defender == b.defender) || a.converged != b.converged ||
      a.iterations != b.iterations || !same_weights(a.attacker.weights, b.attacker.weights) ||
      a.equilibria.size() != b.equilibria.size()) {
    return false;
  }
  for (std::size_t e = 0; e < a.equilibria.size(); ++e) {
    if (!(a.equilibria[e].defender == b.equilibria[e].defender) ||
        !same_weights(a.equilibria[e].attacker.weights, b.equilibria[e].attacker.weights) ||
        a.equilibria[e].tie_face != b.equilibria[e].tie_face) {
      return false;
    }
  }
  return same_bits(a.defender_payoff, b.defender_payoff) &&
         same_bits(a.attacker_payoff, b.attacker_payoff) && same_bits(a.exposure, b.exposure);
}

/// The fixed point the Gauss-Seidel best-response iteration converged to on
/// a spec (defender cell and attacker weights, bit for bit).
struct RecordedFixedPoint {
  std::size_t design_index;
  std::size_t cadence_index;
  std::vector<double> weights;
};

/// True when `recorded` is one of the enumerated equilibria, weights
/// bit-identical (the enumeration uses the same greedy attacker response).
bool enumerates(const game::EquilibriumResult& result, const RecordedFixedPoint& recorded) {
  for (const game::Equilibrium& eq : result.equilibria) {
    if (eq.defender == game::DefenderStrategy{recorded.design_index, recorded.cadence_index} &&
        same_weights(eq.attacker.weights, recorded.weights)) {
      return true;
    }
  }
  return false;
}

std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t x = state;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
}

// ---------------------------------------------------------------------------
// Brute-force oracle: rebuild every cell's class utilities from the HARMs,
// enumerate all vertices of the capped simplex { 0 <= w <= cap, sum w <=
// budget } (every coordinate at a bound, or the budget tight with one
// fractional coordinate), and test each cell against the definition of a
// pure equilibrium.  Shares no code with the solver's greedy fill.

struct OracleEquilibrium {
  game::DefenderStrategy defender;
  std::vector<double> weights;
  bool tie_face = false;
};

struct ClassTable {
  std::vector<std::string> names;
  std::vector<std::vector<double>> success;  // [design][class]
  std::vector<std::vector<double>> base;     // [design][class], cadence-free utility
};

ClassTable class_table(const game::GameSpec& spec) {
  const core::Scenario& scenario = spec.scenario;
  const std::size_t designs = scenario.designs().size();
  std::vector<std::vector<harm::PathClass>> per_design;
  std::map<std::vector<std::string>, std::size_t> index;
  double impact_max = 0.0;
  for (const ent::RedundancyDesign& design : scenario.designs()) {
    const harm::Harm model =
        ent::NetworkModel(design, scenario.specs(), scenario.policy()).build_harm();
    per_design.push_back(harm::aggregate_path_classes(
        model, [&model](harm::GraphNodeId id) { return ent::role_label(model.graph().name(id)); },
        scenario.engine().harm_paths));
    for (const harm::PathClass& cls : per_design.back()) {
      index.emplace(cls.signature, 0);
      impact_max = std::max(impact_max, cls.max_impact);
    }
  }
  ClassTable table;
  for (auto& [signature, position] : index) {
    position = table.names.size();
    harm::PathClass named;
    named.signature = signature;
    table.names.push_back(named.name());
  }
  table.success.assign(designs, std::vector<double>(index.size(), 0.0));
  table.base.assign(designs, std::vector<double>(index.size(), 0.0));
  const double alpha = spec.payoff.impact_weight;
  for (std::size_t i = 0; i < designs; ++i) {
    for (const harm::PathClass& cls : per_design[i]) {
      const std::size_t c = index.at(cls.signature);
      table.success[i][c] = cls.success_probability;
      const double share = impact_max > 0.0 ? cls.max_impact / impact_max : 0.0;
      table.base[i][c] = alpha * share + (1.0 - alpha) * cls.success_probability;
    }
  }
  return table;
}

std::vector<std::vector<double>> simplex_vertices(std::size_t classes, double cap, double budget) {
  std::vector<std::vector<double>> vertices;
  for (std::uint32_t mask = 0; mask < (1u << classes); ++mask) {
    std::vector<double> w(classes, 0.0);
    double rest = budget;
    for (std::size_t c = 0; c < classes; ++c) {
      if ((mask >> c) & 1u) {
        w[c] = cap;
        rest -= cap;
      }
    }
    if (rest < 0.0) continue;
    vertices.push_back(w);
    for (std::size_t f = 0; f < classes; ++f) {
      if (((mask >> f) & 1u) == 0 && rest > 0.0 && rest < cap) {
        std::vector<double> fractional = w;
        fractional[f] = rest;
        vertices.push_back(std::move(fractional));
      }
    }
  }
  return vertices;
}

std::vector<OracleEquilibrium> brute_force_equilibria(const game::GameSpec& spec,
                                                      const ClassTable& table,
                                                      const game::EquilibriumResult& result) {
  const std::vector<ent::RedundancyDesign>& designs = spec.scenario.designs();
  const std::vector<double>& cadences = spec.scenario.patch_intervals();
  const double max_cadence = *std::max_element(cadences.begin(), cadences.end());
  const std::size_t classes = table.names.size();
  const std::vector<std::vector<double>> vertices =
      simplex_vertices(classes, spec.attacker.per_path_cap, spec.attacker.effort_budget);
  constexpr double kSlack = 1e-9;

  auto coa = [&](std::size_t i, std::size_t j) { return result.frontier.at(i * cadences.size() + j).coa; };
  auto feasible = [&](std::size_t i, std::size_t j, const std::vector<double>& w) {
    double cost = 0.0;
    for (std::size_t r = 0; r < ent::kRoleCount; ++r) {
      cost += static_cast<double>(designs[i].counts[r]) * spec.defender.server_cost[r];
    }
    double exposure = 0.0;
    for (std::size_t c = 0; c < classes; ++c) exposure += w[c] * table.success[i][c];
    return cost <= spec.defender.cost_budget + kSlack &&
           cadences[j] / max_cadence * exposure <= spec.defender.exposure_bound + kSlack;
  };

  std::vector<OracleEquilibrium> equilibria;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    for (std::size_t j = 0; j < cadences.size(); ++j) {
      std::vector<double> value(vertices.size(), 0.0);
      double best = -1.0;
      for (std::size_t v = 0; v < vertices.size(); ++v) {
        for (std::size_t c = 0; c < classes; ++c) {
          value[v] += vertices[v][c] * (cadences[j] / max_cadence * table.base[i][c]);
        }
        best = std::max(best, value[v]);
      }
      // Among the optimal vertices the attacker spends the least effort
      // (effort that earns nothing is not spent), then favours canonical
      // class order (lexicographically largest weights).
      std::size_t optimal = 0;
      const std::vector<double>* chosen = nullptr;
      double chosen_mass = 0.0;
      for (std::size_t v = 0; v < vertices.size(); ++v) {
        if (value[v] < best - spec.tie_epsilon) continue;
        ++optimal;
        double mass = 0.0;
        for (double w : vertices[v]) mass += w;
        if (chosen == nullptr || mass < chosen_mass - 1e-12 ||
            (mass <= chosen_mass + 1e-12 && vertices[v] > *chosen)) {
          chosen = &vertices[v];
          chosen_mass = mass;
        }
      }
      const std::vector<double>& w = *chosen;
      bool equilibrium = feasible(i, j, w);
      for (std::size_t di = 0; equilibrium && di < designs.size(); ++di) {
        for (std::size_t dj = 0; dj < cadences.size(); ++dj) {
          if (feasible(di, dj, w) && coa(di, dj) > coa(i, j) + spec.tie_epsilon) {
            equilibrium = false;
          }
        }
      }
      if (equilibrium) equilibria.push_back({game::DefenderStrategy{i, j}, w, optimal > 1});
    }
  }
  return equilibria;
}

void expect_matches_oracle(const game::GameSpec& spec, const game::EquilibriumResult& result,
                           const std::string& label) {
  const ClassTable table = class_table(spec);
  EXPECT_EQ(result.class_names, table.names) << label;
  const std::vector<OracleEquilibrium> oracle = brute_force_equilibria(spec, table, result);
  ASSERT_EQ(result.equilibria.size(), oracle.size()) << label;
  EXPECT_EQ(result.converged, !oracle.empty()) << label;
  const std::size_t cadences = spec.scenario.patch_intervals().size();
  auto coa = [&](const game::DefenderStrategy& cell) {
    return result.frontier.at(cell.design_index * cadences + cell.cadence_index).coa;
  };
  const OracleEquilibrium* preferred = nullptr;
  for (std::size_t e = 0; e < oracle.size(); ++e) {
    const game::Equilibrium& eq = result.equilibria[e];
    EXPECT_EQ(eq.defender, oracle[e].defender) << label << " equilibrium " << e;
    EXPECT_TRUE(same_weights(eq.attacker.weights, oracle[e].weights)) << label << " equilibrium " << e;
    EXPECT_EQ(eq.tie_face, oracle[e].tie_face) << label << " equilibrium " << e;
    EXPECT_TRUE(eq.certificate.verified) << label << " equilibrium " << e;
    if (preferred == nullptr || coa(oracle[e].defender) > coa(preferred->defender)) {
      preferred = &oracle[e];
    }
  }
  if (preferred != nullptr) {
    EXPECT_EQ(result.defender, preferred->defender) << label;
    EXPECT_TRUE(same_weights(result.attacker.weights, preferred->weights)) << label;
  }
}

/// Attacker reaches DNS and web, both reach the application tier: two path
/// classes, dns-app-db and web-app-db.
ent::ReachabilityPolicy twin_entry_policy() {
  ent::ReachabilityPolicy policy = ent::ReachabilityPolicy::three_tier();
  policy.reaches = [](ent::ServerRole from, ent::ServerRole to) {
    switch (from) {
      case ent::ServerRole::kDns:
      case ent::ServerRole::kWeb: return to == ent::ServerRole::kApp;
      case ent::ServerRole::kApp: return to == ent::ServerRole::kDb;
      case ent::ServerRole::kDb: return false;
    }
    return false;
  };
  return policy;
}

/// A wider topology than Fig. 2 (DNS also reaches the application tier, web
/// also reaches the database): five path classes instead of two.
ent::ReachabilityPolicy wide_policy() {
  ent::ReachabilityPolicy policy = ent::ReachabilityPolicy::three_tier();
  policy.reaches = [](ent::ServerRole from, ent::ServerRole to) {
    switch (from) {
      case ent::ServerRole::kDns: return to == ent::ServerRole::kWeb || to == ent::ServerRole::kApp;
      case ent::ServerRole::kWeb: return to == ent::ServerRole::kApp || to == ent::ServerRole::kDb;
      case ent::ServerRole::kApp: return to == ent::ServerRole::kDb;
      case ent::ServerRole::kDb: return false;
    }
    return false;
  };
  return policy;
}

}  // namespace

TEST(Game, OracleEquilibrium2x2) {
  game::BestResponseSolver solver(oracle_2x2_spec());
  const game::EquilibriumResult result = solver.solve();

  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.equilibria.size(), 1u);
  EXPECT_EQ(result.defender.design_index, 1u);  // the 2-APP design...
  EXPECT_EQ(result.defender.cadence_index, 0u); // ...at the 360 h cadence.
  EXPECT_DOUBLE_EQ(result.cadence_hours, 360.0);

  ASSERT_EQ(result.class_names.size(), 2u);
  EXPECT_EQ(result.class_names[0], "dns-web-app-db");
  EXPECT_EQ(result.class_names[1], "web-app-db");
  EXPECT_NEAR(result.attacker.weights[0], 0.6, 1e-12);
  EXPECT_NEAR(result.attacker.weights[1], 0.4, 1e-12);
  EXPECT_FALSE(result.equilibria[0].tie_face);

  // The certificate is verified, not assumed: both deviation bounds hold
  // and every grid cell was actually checked.
  EXPECT_TRUE(result.certificate.verified);
  EXPECT_TRUE(result.certificate.defender_ok);
  EXPECT_TRUE(result.certificate.attacker_ok);
  EXPECT_LE(result.certificate.defender_best_gain, 1e-9);
  EXPECT_LE(result.certificate.attacker_best_gain, 1e-9);
  EXPECT_EQ(result.certificate.defender_strategies_checked, 4u);

  // Frontier covers the grid; the infeasible 720 h column is marked, and
  // the base design at 360 h is beaten by exactly the 2-APP COA margin.
  ASSERT_EQ(result.frontier.size(), 4u);
  for (const game::FrontierPoint& p : result.frontier) {
    EXPECT_EQ(p.exposure_feasible, p.cadence_hours < 700.0);
    EXPECT_EQ(p.equilibrium,
              p.design_index == 1 && p.cadence_index == 0);
  }
  EXPECT_DOUBLE_EQ(result.frontier[0].coa_gain, result.frontier[2].coa - result.frontier[0].coa);
  EXPECT_GT(result.frontier[0].coa_gain, solver.spec().tie_epsilon);
}

TEST(Game, RecordedFixedPointsAreEnumerated) {
  // The fixed points the Gauss-Seidel iteration converged to on the paper
  // game, the 2x2 oracle and the k=6 game.  Each must be one of
  // the enumerated equilibria, and here it is also the defender-preferred one.
  const std::vector<double> split{0x1.3333333333333p-1, 0x1.999999999999ap-2};  // (0.6, 0.4)
  const struct {
    const char* name;
    game::GameSpec spec;
    RecordedFixedPoint fixed_point;
  } cases[] = {
      {"paper", game::GameSpec::paper_case_study(), {3, 1, split}},
      {"2x2", oracle_2x2_spec(), {1, 0, split}},
      {"k6", k6_game_spec(), {4, 1, split}},
  };
  for (const auto& c : cases) {
    game::BestResponseSolver solver(c.spec);
    const game::EquilibriumResult result = solver.solve();
    ASSERT_TRUE(result.converged) << c.name;
    EXPECT_TRUE(enumerates(result, c.fixed_point)) << c.name;
    EXPECT_EQ(result.defender,
              (game::DefenderStrategy{c.fixed_point.design_index, c.fixed_point.cadence_index}))
        << c.name;
    EXPECT_TRUE(result.certificate.verified) << c.name;
    for (const game::Equilibrium& eq : result.equilibria) {
      EXPECT_TRUE(eq.certificate.verified) << c.name;
    }
  }
}

TEST(Game, CertificateHoldsOnEveryEquilibriumOfSeededSweep) {
  // 12 seeded random specs over the paper designs: random exposure bounds,
  // caps, payoff mixes and budgets.  Every enumerated equilibrium must carry
  // a fully verified deviation-check certificate, and the fixed point the
  // Gauss-Seidel iteration reached on each spec must be among them.
  const std::vector<RecordedFixedPoint> recorded{
      {0, 2, {0x1.fcaca1b9d982cp-1, 0x1.d516fd7628fcp-6}},
      {3, 3, {0x1.0b7f2182c7e54p-1, 0.0}},
      {3, 2, {0x1.e237a233cd96p-2, 0x1.06e170d9b95f8p-2}},
      {0, 1, {0x1.8659c7a1f5c3ep-1, 0.0}},
      {0, 3, {0x1.5342cfc8b64bdp-1, 0.0}},
      {3, 2, {0x1.d501c5d28673cp-2, 0x1.d501c5d28673cp-2}},
      {3, 3, {0x1.bbd56fb0273dbp-1, 0.0}},
      {0, 2, {0x1.50235edc152efp-1, 0x1.99cceb7147152p-2}},
      {3, 2, {0x1.da67f11890e28p-2, 0x1.da67f11890e28p-2}},
      {0, 3, {0x1.db569e5b0d15cp-2, 0x1.7ad3c3d413da4p-3}},
      {3, 3, {0x1.ad7fc77b44059p-2, 0x1.ad7fc77b44059p-2}},
      {3, 1, {0x1.402b5d3b7738p-1, 0x1.e037b7718505cp-2}},
  };
  std::uint64_t state = 0xA5A5F00DDEADBEEFull;
  for (std::size_t trial = 0; trial < recorded.size(); ++trial) {
    game::GameSpec spec;
    spec.scenario = core::Scenario::paper_case_study().with_patch_schedule(
        {168.0, 360.0, 720.0, 1440.0});
    spec.defender.cost_budget = 4.0 + 2.0 * uniform01(state);
    spec.defender.exposure_bound = 0.15 + 1.05 * uniform01(state);
    spec.attacker.per_path_cap = 0.3 + 0.7 * uniform01(state);
    spec.attacker.effort_budget = 0.5 + uniform01(state);
    spec.payoff.impact_weight = uniform01(state);
    (void)splitmix(state);  // the draw that seeded the iteration's tie-breaking.

    game::BestResponseSolver solver(spec);
    const game::EquilibriumResult result = solver.solve();
    EXPECT_EQ(result.iterations, 1u);
    EXPECT_EQ(result.frontier.size(),
              spec.scenario.designs().size() * spec.scenario.patch_intervals().size());
    ASSERT_TRUE(result.converged) << "trial " << trial;
    EXPECT_TRUE(enumerates(result, recorded[trial])) << "trial " << trial;
    for (const game::Equilibrium& eq : result.equilibria) {
      EXPECT_TRUE(eq.certificate.verified)
          << "trial " << trial << ": equilibrium (" << eq.defender.design_index << ", "
          << eq.defender.cadence_index << ") without a verified certificate (defender gain "
          << eq.certificate.defender_best_gain << ", attacker gain "
          << eq.certificate.attacker_best_gain << ")";
    }
  }
}

TEST(Game, BruteForceOracleReproducesEquilibria) {
  // Small random games: three designs with one or two servers per tier, a
  // random subset of the cadence ladder, each role running one of the
  // paper's four server specs, and one of three topologies (two to five
  // path classes).
  const core::Scenario paper = core::Scenario::paper_case_study();
  const std::vector<ent::ReachabilityPolicy> policies{ent::ReachabilityPolicy::three_tier(),
                                                      twin_entry_policy(), wide_policy()};
  const std::vector<double> ladder{168.0, 360.0, 720.0, 1440.0};
  std::uint64_t state = 0x0DDBA11C0FFEE5EDull;
  std::size_t with_equilibria = 0;
  std::size_t multiple = 0;
  std::size_t preferred_not_first = 0;
  std::size_t tie_faces = 0;
  for (std::size_t trial = 0; trial < 100; ++trial) {
    std::vector<ent::RedundancyDesign> designs(3);
    for (ent::RedundancyDesign& design : designs) {
      for (unsigned& count : design.counts) count = 1 + static_cast<unsigned>(splitmix(state) % 2);
    }
    std::vector<double> cadences;
    for (double hours : ladder) {
      if (uniform01(state) < 0.6) cadences.push_back(hours);
    }
    if (cadences.empty()) cadences.push_back(ladder[splitmix(state) % ladder.size()]);

    game::GameSpec spec;
    spec.scenario = core::Scenario(paper)
                        .with_designs(designs)
                        .with_patch_schedule(cadences)
                        .with_policy(policies[trial % policies.size()]);
    for (std::size_t r = 0; r < ent::kRoleCount; ++r) {
      const auto donor = static_cast<ent::ServerRole>(splitmix(state) % ent::kRoleCount);
      spec.scenario.with_spec(static_cast<ent::ServerRole>(r), paper.specs().at(donor));
    }
    spec.defender.cost_budget = 4.0 + 4.0 * uniform01(state);
    spec.defender.exposure_bound = 0.15 + 1.05 * uniform01(state);
    spec.attacker.per_path_cap = 0.2 + 0.8 * uniform01(state);
    spec.attacker.effort_budget = 0.5 + uniform01(state);
    spec.payoff.impact_weight = uniform01(state);

    game::BestResponseSolver solver(spec);
    const game::EquilibriumResult result = solver.solve();
    expect_matches_oracle(spec, result, "trial " + std::to_string(trial));
    if (!result.equilibria.empty()) ++with_equilibria;
    if (result.equilibria.size() > 1) ++multiple;
    if (result.converged && !(result.defender == result.equilibria.front().defender)) {
      ++preferred_not_first;
    }
    for (const game::Equilibrium& eq : result.equilibria) tie_faces += eq.tie_face ? 1 : 0;
  }
  // The sweep must exercise every outcome of the enumeration.
  EXPECT_GE(with_equilibria, 10u);
  EXPECT_GE(multiple, 1u);
  EXPECT_GE(preferred_not_first, 1u);
  EXPECT_GE(tie_faces, 1u);
}

TEST(Game, TieFaceIsFlaggedAndMatchesOracle) {
  // DNS and web servers share one spec and one count, so the two entry
  // classes dns-app-db and web-app-db earn exactly equal utility: with the
  // cap below the budget, the attacker's optimum is a segment, not a point.
  const core::Scenario base = core::Scenario::paper_case_study();
  game::GameSpec spec;
  spec.scenario = core::Scenario(base)
                      .with_spec(ent::ServerRole::kWeb, base.specs().at(ent::ServerRole::kDns))
                      .with_policy(twin_entry_policy())
                      .with_designs({ent::RedundancyDesign{{1, 1, 1, 1}},
                                     ent::RedundancyDesign{{2, 2, 1, 1}},
                                     ent::RedundancyDesign{{1, 1, 2, 1}}})
                      .with_patch_schedule({360.0, 720.0});
  spec.defender.cost_budget = 6.0;
  spec.defender.exposure_bound = 0.8;
  spec.attacker.effort_budget = 1.0;
  spec.attacker.per_path_cap = 0.6;

  game::BestResponseSolver solver(spec);
  const game::EquilibriumResult result = solver.solve();
  ASSERT_EQ(result.class_names.size(), 2u);
  ASSERT_TRUE(result.converged);
  for (const game::Equilibrium& eq : result.equilibria) {
    EXPECT_TRUE(eq.tie_face);
    // Today's tie-break: the canonical-order class is filled first.
    EXPECT_EQ(eq.attacker.weights[0], 0.6);
  }
  expect_matches_oracle(spec, result, "equal utilities");

  // A design without DNS servers has no dns-web-app-db paths: that class
  // earns zero utility there, so the effort left over after the capped
  // web-app-db class can sit on it or stay unspent at equal payoff.
  game::GameSpec no_dns = oracle_2x2_spec();
  no_dns.scenario = core::Scenario::paper_case_study()
                        .with_designs({ent::RedundancyDesign{{0, 1, 1, 1}},
                                       ent::RedundancyDesign{{1, 1, 1, 1}}})
                        .with_patch_schedule({360.0, 720.0});
  no_dns.defender.exposure_bound = 0.8;
  const game::EquilibriumResult unspent = game::BestResponseSolver(no_dns).solve();
  ASSERT_EQ(unspent.equilibria.size(), 1u);
  EXPECT_EQ(unspent.equilibria[0].defender, (game::DefenderStrategy{0, 1}));
  EXPECT_TRUE(unspent.equilibria[0].tie_face);
  EXPECT_EQ(unspent.equilibria[0].attacker.weights, (std::vector<double>{0.0, 0.6}));
  expect_matches_oracle(no_dns, unspent, "zero utility");
}

TEST(Game, BestResponseSweepsAreMemoizedNotResolved) {
  // Each solve is one grid sweep: two solves over an N x M grid submit
  // 2*N*M evaluations but pay for at most N*M Session solves (the service
  // cache returns the rest) and at most M * kRoleCount lower-layer
  // aggregations (the Session memoizes per cadence).
  for (const game::GameSpec& spec : {game::GameSpec::paper_case_study(), k6_game_spec()}) {
    const std::size_t cells =
        spec.scenario.designs().size() * spec.scenario.patch_intervals().size();
    SCOPED_TRACE(cells);

    game::BestResponseSolver solver(spec);
    const game::EquilibriumResult first = solver.solve();
    const game::EquilibriumResult second = solver.solve();  // warm re-solve.
    ASSERT_TRUE(first.converged);
    ASSERT_TRUE(second.converged);
    EXPECT_TRUE(first.certificate.verified);
    EXPECT_TRUE(second.certificate.verified);
    EXPECT_EQ(first.iterations, 1u);
    EXPECT_EQ(second.iterations, 1u);
    EXPECT_TRUE(equilibria_bit_identical(first, second));

    const svc::ServiceStats stats = solver.service().stats();
    EXPECT_EQ(stats.submitted, 2 * cells);
    EXPECT_LE(stats.solves, cells);       // the re-sweep is served from the cache...
    EXPECT_GE(stats.cache.hits, cells);   // ...as cache hits.
    EXPECT_GE(stats.cache.hit_rate(), 0.5);

    const core::Session::WorkspaceCounters counters =
        solver.service().session().workspace_counters();
    EXPECT_LE(counters.aggregation_solves,
              spec.scenario.patch_intervals().size() * ent::kRoleCount);
    EXPECT_LE(counters.availability_solves, cells);
  }
}

TEST(Game, ColdSolveBuildsOneHarmPerDesign) {
  // The constructor's path classes and the sweep's security metrics come
  // from one HARM build per design (the Session's security memo), and a warm
  // re-solve builds none.  The third spec has the benchmark's game shape:
  // lumped k = 2, 4, ..., 12 against 4 cadences on one service worker.
  game::GameSpec grid = k6_game_spec();
  std::vector<ent::RedundancyDesign> even;
  for (unsigned k = 2; k <= 12; k += 2) even.push_back(ent::RedundancyDesign{{k, k, k, k}});
  grid.scenario.with_designs(even).with_patch_schedule({168.0, 336.0, 720.0, 1440.0});
  grid.defender.cost_budget = 32.0;
  grid.defender.exposure_bound = 0.5;
  svc::ServiceOptions solo;
  solo.workers = 1;
  for (const game::GameSpec& spec : {game::GameSpec::paper_case_study(), k6_game_spec(), grid}) {
    const std::size_t designs = spec.scenario.designs().size();
    SCOPED_TRACE(spec.scenario.designs().back().name());
    game::BestResponseSolver solver(spec, solo);
    const core::Session& session = solver.service().session();
    EXPECT_EQ(session.workspace_counters().harm_builds, designs);  // the constructor's.
    EXPECT_TRUE(solver.solve().certificate.verified);
    EXPECT_EQ(session.workspace_counters().harm_builds, designs);
    (void)solver.solve();
    EXPECT_EQ(session.workspace_counters().harm_builds, designs);
  }
}

TEST(Game, DeterministicAcrossRunsAndWorkerCounts) {
  svc::ServiceOptions solo;
  solo.workers = 1;
  svc::ServiceOptions pooled;
  pooled.workers = 4;
  for (const game::GameSpec& spec : {game::GameSpec::paper_case_study(), k6_game_spec()}) {
    SCOPED_TRACE(spec.scenario.designs().size());
    game::BestResponseSolver a(spec, solo);
    game::BestResponseSolver b(spec, solo);
    game::BestResponseSolver c(spec, pooled);
    const game::EquilibriumResult ra = a.solve();
    const game::EquilibriumResult rb = b.solve();
    const game::EquilibriumResult rc = c.solve();

    ASSERT_TRUE(ra.converged);
    EXPECT_TRUE(ra.certificate.verified);
    EXPECT_TRUE(equilibria_bit_identical(ra, rb));
    EXPECT_TRUE(equilibria_bit_identical(ra, rc));
  }
}

TEST(Game, InfeasibleExposureBoundReportsNoEquilibrium) {
  // A bound below the tightest achievable exposure leaves every cell
  // infeasible under its own attacker response: no equilibrium, and every
  // frontier cell says why.
  game::GameSpec spec = oracle_2x2_spec();
  spec.defender.exposure_bound = 1e-6;
  game::BestResponseSolver solver(spec);
  const game::EquilibriumResult result = solver.solve();
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.equilibria.empty());
  EXPECT_FALSE(result.certificate.verified);
  EXPECT_EQ(result.iterations, 1u);
  ASSERT_EQ(result.frontier.size(), 4u);
  for (const game::FrontierPoint& p : result.frontier) {
    EXPECT_FALSE(p.equilibrium);
    EXPECT_TRUE(!p.cost_feasible || !p.exposure_feasible || p.coa_gain > spec.tie_epsilon)
        << p.design_name << " @ " << p.cadence_hours << " h fails without a reason";
    EXPECT_TRUE(p.cost_feasible);
    EXPECT_FALSE(p.exposure_feasible);
  }

  // A cost budget below every design fails each cell on cost instead.
  spec = oracle_2x2_spec();
  spec.defender.cost_budget = 1.0;
  const game::EquilibriumResult priced_out = game::BestResponseSolver(spec).solve();
  EXPECT_FALSE(priced_out.converged);
  EXPECT_TRUE(priced_out.equilibria.empty());
  for (const game::FrontierPoint& p : priced_out.frontier) EXPECT_FALSE(p.cost_feasible);
}

TEST(Game, SpecValidationRejectsBadKnobs) {
  const game::GameSpec good = game::GameSpec::paper_case_study();
  EXPECT_NO_THROW(good.validate());

  game::GameSpec spec = good;
  spec.attacker.effort_budget = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = good;
  spec.payoff.impact_weight = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = good;
  spec.tie_epsilon = -1e-12;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = good;
  spec.certificate_epsilon = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  // An infinite epsilon would tie every cell (tie_epsilon) or pass every
  // certificate check vacuously (certificate_epsilon).
  spec = good;
  spec.tie_epsilon = std::numeric_limits<double>::infinity();
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = good;
  spec.certificate_epsilon = std::numeric_limits<double>::infinity();
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = good;
  spec.scenario = core::Scenario::paper_case_study().with_designs({});
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}
