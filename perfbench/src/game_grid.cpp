// game_grid — one attacker-defender equilibrium.  Each op constructs a cold
// game::BestResponseSolver over lumped uniform designs k = 2, 4, ..., 12
// against 4 cadences and runs solve(): HARM path-class aggregation in the
// constructor, then a grid sweep through the solver's EvalService (lumped
// availability, HARM, verification per cell) and the best-response rounds.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "common.hpp"
#include "patchsec/game/best_response.hpp"
#include "patchsec/service/request_hash.hpp"
#include "replay.hpp"

namespace perfbench {

namespace {

namespace core = patchsec::core;
namespace game = patchsec::game;
namespace service = patchsec::service;

const std::vector<double> kCadences{168.0, 336.0, 504.0, 720.0, 1080.0, 1440.0};
constexpr std::size_t kGridCadences = 4;
constexpr double kTailPercentile = 90.0;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kWarmupOps = 5;

/// Seeded game: 4 of the 6 cadences, and budgets drawn from fixed sets.  The
/// design grid is fixed, so every op enumerates the same HARM paths.
game::GameSpec op_spec(Rng& rng) {
  std::vector<ent::RedundancyDesign> designs;
  for (unsigned k = 2; k <= 12; k += 2) designs.push_back(ent::RedundancyDesign{{k, k, k, k}});
  std::vector<double> cadences = kCadences;
  rng.shuffle(cadences);
  cadences.resize(kGridCadences);
  std::sort(cadences.begin(), cadences.end());

  core::EngineOptions engine;
  engine.lumping = true;
  engine.parallel = false;
  game::GameSpec spec;
  spec.scenario = core::Scenario::paper_case_study()
                      .with_designs(std::move(designs))
                      .with_patch_schedule(std::move(cadences))
                      .with_engine(engine);
  spec.defender.cost_budget = rng.pick(std::vector<double>{24.0, 32.0, 40.0});
  spec.defender.exposure_bound = rng.pick(std::vector<double>{0.4, 0.5, 0.6});
  spec.attacker.effort_budget = 1.0;
  spec.attacker.per_path_cap = rng.pick(std::vector<double>{0.5, 0.6, 0.7});
  return spec;
}

service::ServiceOptions solver_options() {
  service::ServiceOptions options;
  options.workers = 1;
  return options;
}

bool same_equilibrium(const game::EquilibriumResult& a, const game::EquilibriumResult& b) {
  if (!(a.defender == b.defender) || a.converged != b.converged ||
      a.attacker.weights.size() != b.attacker.weights.size()) {
    return false;
  }
  for (std::size_t c = 0; c < a.attacker.weights.size(); ++c) {
    if (!same_bits(a.attacker.weights[c], b.attacker.weights[c])) return false;
  }
  return same_bits(a.defender_payoff, b.defender_payoff) &&
         same_bits(a.attacker_payoff, b.attacker_payoff);
}

struct Op {
  std::unique_ptr<game::BestResponseSolver> solver;
  game::EquilibriumResult result;
  double ctor_s = 0.0;
  double solve_s = 0.0;
};

/// One measured op (constructor + cold solve), checked off the clock: the
/// result converged and its deviation certificate verified.
OpResult run_op(Rng& rng, Op* keep = nullptr) {
  game::GameSpec spec = op_spec(rng);
  Op op;
  const auto start = Clock::now();
  op.solver = std::make_unique<game::BestResponseSolver>(std::move(spec), solver_options());
  const auto constructed = Clock::now();
  op.result = op.solver->solve();
  const auto solved = Clock::now();
  op.ctor_s = seconds_between(start, constructed);
  op.solve_s = seconds_between(constructed, solved);
  OpResult r{seconds_between(start, solved) * 1000.0,
             op.result.converged && op.result.certificate.verified};
  if (!r.ok) {
    const game::GameSpec& s = op.solver->spec();
    std::fprintf(stderr,
                 "game_grid: op failed (cost_budget %g, exposure_bound %g, per_path_cap %g, "
                 "converged %d, certified %d)\n",
                 s.defender.cost_budget, s.defender.exposure_bound, s.attacker.per_path_cap,
                 op.result.converged ? 1 : 0, op.result.certificate.verified ? 1 : 0);
  }
  if (keep != nullptr) *keep = std::move(op);
  return r;
}

/// Replay of one op through the public calls the solver makes: the
/// constructor's per-design HARM build and path-class aggregation, the grid
/// sweep's request keys and Session::evaluate stages, then the game loop
/// itself as a re-solve on the op's solver with every cell cached.
bool replay_op(Op& op, Trace& trace) {
  const core::Scenario& scenario = op.solver->spec().scenario;
  const auto root = trace.scope("op");
  std::set<std::string> names;
  for (const ent::RedundancyDesign& design : scenario.designs()) {
    for (const patchsec::harm::PathClass& cls : replay_path_classes(scenario, design, trace)) {
      names.insert(class_name(cls));
    }
  }
  bool ok = std::vector<std::string>(names.begin(), names.end()) == op.solver->class_names();

  std::uint64_t scenario_hash = 0;
  {
    const auto span = trace.scope("service.key");
    scenario_hash = service::hash_scenario(scenario);
  }
  SessionReplay session(scenario);
  const std::size_t cadences = scenario.patch_intervals().size();
  for (std::size_t i = 0; i < scenario.designs().size(); ++i) {
    for (std::size_t j = 0; j < cadences; ++j) {
      service::EvalRequest request;
      request.design = scenario.designs()[i];
      request.patch_interval_hours = scenario.patch_intervals()[j];
      {
        const auto span = trace.scope("service.key");
        (void)service::request_key(scenario_hash, request);
      }
      const SteadyCell cell = session.evaluate(request.design, request.patch_interval_hours, trace);
      const game::FrontierPoint& point = op.result.frontier.at(i * cadences + j);
      ok = ok && same_bits(cell.coa, point.coa) &&
           same_bits(cell.security.before.attack_impact, point.attack_impact) &&
           same_bits(cell.security.before.attack_success_probability, point.attack_success);
    }
  }
  game::EquilibriumResult warm;
  {
    const auto span = trace.scope("game.loop");
    warm = op.solver->solve();
  }
  return ok && same_equilibrium(warm, op.result);
}

}  // namespace

Outcome run_game_grid(const RunOptions& options) {
  Measured m;
  Rng rng(options.seed);
  for (std::size_t s = 0; s < kSetups; ++s) {
    timed_setup(m, [&] {
      rng = Rng(options.seed);
      for (std::size_t w = 0; w < kWarmupOps; ++w) (void)run_op(rng);
    });
  }

  const double untraced_seconds = options.trace ? options.seconds / 2.0 : options.seconds;
  measure_ops(untraced_seconds, m, [&] { return run_op(rng); });

  Outcome out;
  if (!options.trace) {
    out.metrics = end_to_end(m, kTailPercentile, serial_throughput(m.op_ms));
    out.notes = {raw_note(m, kTailPercentile, serial_throughput(m.raw_op_ms))};
    out.attempted = m.attempted;
    out.failed = m.failed;
    return out;
  }

  Trace trace;
  std::vector<double> replay_ms, ctor_s, solve_s, warm_s, rounds, grid_evals;
  double spent = 0.0;
  while (spent < options.seconds / 2.0 || replay_ms.size() < 5) {
    Op op;
    OpResult r = run_op(rng, &op);
    spent += r.ms / 1000.0;
    ctor_s.push_back(op.ctor_s);
    solve_s.push_back(op.solve_s);
    rounds.push_back(static_cast<double>(op.result.iterations));
    grid_evals.push_back(static_cast<double>(op.result.service.submitted));
    {
      const auto start = Clock::now();
      const game::EquilibriumResult warm = op.solver->solve();
      warm_s.push_back(seconds_since(start));
      r.ok = r.ok && same_equilibrium(warm, op.result);
    }
    const auto start = Clock::now();
    r.ok = replay_op(op, trace) && r.ok;
    replay_ms.push_back(seconds_since(start) * 1000.0);
    spent += replay_ms.back() / 1000.0;
    ++m.attempted;
    if (!r.ok) ++m.failed;
  }
  out.attempted = m.attempted;
  out.failed = m.failed;
  out.metrics = per_layer(trace, {{"game.ctor_s", median(ctor_s)},
                                  {"game.solve_s", median(solve_s)},
                                  {"game.warm_solve_s", median(warm_s)},
                                  {"game.rounds", median(rounds)},
                                  {"game.grid_evals", median(grid_evals)},
                                  {"trace.overhead", median(replay_ms) / median(m.raw_op_ms)}});
  out.notes = ranking_lines("game_grid", trace);
  out.spans_csv = trace.csv();
  return out;
}

}  // namespace perfbench
