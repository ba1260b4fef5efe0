#include "patchsec/testgen/differential_runner.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "patchsec/core/session.hpp"
#include "patchsec/sim/seed_stream.hpp"

namespace patchsec::testgen {

namespace {

// Salt separating the simulation's replication streams from the generator's
// draws: the two uses of one scenario seed must not correlate.
constexpr std::uint64_t kSimulationSalt = 0x5eed0fdeadbeef01ull;

// Per-point z of a SIMULTANEOUS level-z band over `points` grid points
// (Bonferroni): the transient verdict is a whole-curve claim — "the analytic
// curve lies inside the band everywhere" — so the per-point intervals are
// widened until the familywise coverage matches the configured z.  Without
// this, a 5-point grid at per-point 95% misses ~1 - 0.95^5 ~ 23% of
// scenarios on independent points, blowing any sane miss budget with a
// correct pipeline.  Solved by bisection on the normal CDF (the per-point
// intervals themselves stay Student-t; the adjustment factor is normal-tail,
// which is what Bonferroni prescribes asymptotically).
double simultaneous_z(double z, std::size_t points) {
  if (points <= 1) return z;
  const auto tail = [](double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); };
  const double target = tail(z) / static_cast<double>(points);
  double lo = z, hi = z + 10.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (tail(mid) > target ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

// Patch-window entry state of the transient mode: one server of every
// deployed role enters its patch window at t = 0 — the "patch wave" whose
// healing the curve tracks.  Deterministic (no seed dependence), so the
// analytic and simulated paths trivially agree on the start state.
std::map<enterprise::ServerRole, unsigned> patch_wave(const enterprise::RedundancyDesign& design) {
  std::map<enterprise::ServerRole, unsigned> down;
  for (const enterprise::ServerRole role :
       {enterprise::ServerRole::kDns, enterprise::ServerRole::kWeb, enterprise::ServerRole::kApp,
        enterprise::ServerRole::kDb}) {
    if (design.count(role) > 0) down.emplace(role, 1);
  }
  return down;
}

DifferentialCase run_case_transient(const GeneratedScenario& generated,
                                    const DifferentialOptions& options) {
  DifferentialCase result;
  result.scenario_seed = generated.scenario_seed;
  result.label = generated.label;
  result.design = generated.design.name();
  result.patch_interval_hours = generated.scenario.patch_interval_hours();
  result.grid_points = options.transient_grid.size();

  core::EngineOptions analytic_engine;
  analytic_engine.backend = core::EvalBackend::kAnalytic;
  analytic_engine.throw_on_divergence = false;
  analytic_engine.time_points = options.transient_grid;
  analytic_engine.initial_down = patch_wave(generated.design);
  core::Scenario analytic = generated.scenario;
  analytic.with_engine(analytic_engine);
  const core::Session analytic_session(std::move(analytic));
  const core::EvalReport analytic_report =
      analytic_session.evaluate_transient(generated.design);
  result.analytic_coa = analytic_report.coa;
  result.analytic_converged = analytic_report.converged();

  core::EngineOptions sim_engine = analytic_engine;
  sim_engine.backend = core::EvalBackend::kSimulation;
  sim_engine.simulation = options.simulation;
  sim_engine.simulation.seed = sim::splitmix64(generated.scenario_seed ^ kSimulationSalt);
  core::Scenario simulated = generated.scenario;
  simulated.with_engine(sim_engine);
  const core::Session sim_session(std::move(simulated));
  const core::EvalReport sim_report = sim_session.evaluate_transient(generated.design);
  result.simulated_coa = sim_report.coa;
  result.half_width_95 = sim_report.coa_half_width_95;

  const double z_point = simultaneous_z(options.z, options.transient_grid.size());
  result.lint_clean = analytic_report.lint_clean() && sim_report.lint_clean();
  result.inside_ci =
      sim_report.transient_agrees_with(analytic_report, z_point) && result.lint_clean;
  // Per-point deviations, for the report (the verdict above is the
  // authoritative band check).
  for (std::size_t j = 0; j < sim_report.transient.coa.size(); ++j) {
    const double deviation =
        std::abs(sim_report.transient.coa[j] - analytic_report.transient.coa[j]);
    if (deviation > result.worst_deviation) {
      result.worst_deviation = deviation;
      result.worst_point_hours = sim_report.transient.time_points_hours[j];
    }
  }
  if (!result.inside_ci) {
    // Count the failing points with exactly the band the verdict used.
    for (std::size_t j = 0; j < sim_report.transient.coa.size(); ++j) {
      if (!sim_report.transient_point_agrees(analytic_report, j, z_point)) {
        ++result.points_outside;
      }
    }
  }
  return result;
}

DifferentialCase run_case(const GeneratedScenario& generated, const DifferentialOptions& options) {
  if (options.mode == DifferentialMode::kTransient) {
    return run_case_transient(generated, options);
  }
  DifferentialCase result;
  result.scenario_seed = generated.scenario_seed;
  result.label = generated.label;
  result.design = generated.design.name();
  result.patch_interval_hours = generated.scenario.patch_interval_hours();

  // Analytic pass.  Divergence is surfaced, not thrown: a non-converged
  // solve shows up as analytic_converged == false next to the CI verdict.
  core::EngineOptions analytic_engine;
  analytic_engine.backend = core::EvalBackend::kAnalytic;
  analytic_engine.throw_on_divergence = false;
  core::Scenario analytic = generated.scenario;
  analytic.with_engine(analytic_engine);
  const core::Session analytic_session(std::move(analytic));
  const core::EvalReport analytic_report = analytic_session.evaluate(generated.design);
  result.analytic_coa = analytic_report.coa;
  result.analytic_converged = analytic_report.converged();

  // Simulation pass: same scenario, Monte-Carlo oracle, per-case seed
  // derived from the scenario seed.
  core::EngineOptions sim_engine;
  sim_engine.backend = core::EvalBackend::kSimulation;
  sim_engine.simulation = options.simulation;
  sim_engine.simulation.seed = sim::splitmix64(generated.scenario_seed ^ kSimulationSalt);
  core::Scenario simulated = generated.scenario;
  simulated.with_engine(sim_engine);
  const core::Session sim_session(std::move(simulated));
  const core::EvalReport sim_report = sim_session.evaluate(generated.design);
  result.simulated_coa = sim_report.coa;
  result.half_width_95 = sim_report.coa_half_width_95;
  result.lint_clean = analytic_report.lint_clean() && sim_report.lint_clean();

  // Third axis (kLumped): the same scenario through the closed-form
  // upper-layer engine.  The lumping is exact, so this is a deterministic check
  // against the flat solve PLUS the usual statistical check against the
  // simulation oracle — a lumping bug shows up in the former even when the
  // CI is wide enough to hide it.
  if (options.mode == DifferentialMode::kLumped) {
    core::EngineOptions lumped_engine = analytic_engine;
    lumped_engine.lumping = true;
    core::Scenario lumped = generated.scenario;
    lumped.with_engine(lumped_engine);
    const core::Session lumped_session(std::move(lumped));
    const core::EvalReport lumped_report = lumped_session.evaluate(generated.design);
    result.lumped_coa = lumped_report.coa;
    result.flat_lumped_deviation = std::abs(result.analytic_coa - result.lumped_coa);
    result.lumped_matches_flat = result.flat_lumped_deviation <= options.lumped_tolerance;
    result.analytic_converged = result.analytic_converged && lumped_report.converged();
    result.lint_clean = result.lint_clean && lumped_report.lint_clean();
    result.inside_ci = sim_report.agrees_with(analytic_report, options.z) &&
                       sim_report.agrees_with(lumped_report, options.z) &&
                       result.lumped_matches_flat && result.lint_clean;
    return result;
  }

  result.inside_ci = sim_report.agrees_with(analytic_report, options.z) && result.lint_clean;
  return result;
}

}  // namespace

const char* to_string(DifferentialMode mode) noexcept {
  switch (mode) {
    case DifferentialMode::kSteadyState:
      return "steady_state";
    case DifferentialMode::kTransient:
      return "transient";
    case DifferentialMode::kLumped:
      return "lumped";
  }
  return "unknown";
}

DifferentialRunner::DifferentialRunner(DifferentialOptions options)
    : options_(std::move(options)) {
  if (options_.scenarios == 0) {
    throw std::invalid_argument("DifferentialRunner: need at least 1 scenario");
  }
  if (!(options_.z > 0.0)) {
    throw std::invalid_argument("DifferentialRunner: z must be positive");
  }
  options_.simulation.validate();
  if (options_.mode == DifferentialMode::kLumped && !(options_.lumped_tolerance > 0.0)) {
    throw std::invalid_argument("DifferentialRunner: lumped_tolerance must be positive");
  }
  if (options_.mode == DifferentialMode::kTransient) {
    if (options_.transient_grid.empty()) {
      throw std::invalid_argument("DifferentialRunner: transient mode needs a time grid");
    }
    double previous = 0.0;
    for (double t : options_.transient_grid) {
      if (t < 0.0 || t < previous) {
        throw std::invalid_argument(
            "DifferentialRunner: transient grid must be ascending and non-negative");
      }
      previous = t;
    }
  }
}

DifferentialReport DifferentialRunner::run() const {
  DifferentialReport report;
  report.z = options_.z;
  report.mode = options_.mode;
  report.cases.reserve(options_.scenarios);
  ScenarioGenerator generator(options_.generator);
  for (std::size_t i = 0; i < options_.scenarios; ++i) {
    report.cases.push_back(run_case(generator.next(), options_));
    if (!report.cases.back().inside_ci) ++report.misses;
  }
  return report;
}

DifferentialCase DifferentialRunner::run_one(std::uint64_t scenario_seed,
                                             const DifferentialOptions& options) {
  return run_case(ScenarioGenerator::from_seed(scenario_seed, options.generator), options);
}

std::string DifferentialReport::to_json() const {
  // Schema v2 added "mode" and the transient band columns; v3 the
  // lumped-mode three-way columns; v4 the per-case "lint_clean" verdict of
  // the static model verifier.  Consumers of older reports can ignore keys
  // they do not know.
  std::ostringstream out;
  out << std::setprecision(12);
  out << "{\n  \"schema_version\": 4,\n  \"mode\": \"" << to_string(mode)
      << "\",\n  \"z\": " << z << ",\n  \"scenarios\": " << cases.size()
      << ",\n  \"misses\": " << misses << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const DifferentialCase& c = cases[i];
    out << "    {\"scenario_seed\": " << c.scenario_seed << ", \"label\": \"" << c.label
        << "\", \"design\": \"" << c.design
        << "\", \"patch_interval_hours\": " << c.patch_interval_hours
        << ", \"analytic_coa\": " << c.analytic_coa
        << ", \"simulated_coa\": " << c.simulated_coa
        << ", \"half_width_95\": " << c.half_width_95;
    if (mode == DifferentialMode::kTransient) {
      out << ", \"grid_points\": " << c.grid_points
          << ", \"points_outside\": " << c.points_outside
          << ", \"worst_point_hours\": " << c.worst_point_hours
          << ", \"worst_deviation\": " << c.worst_deviation;
    }
    if (mode == DifferentialMode::kLumped) {
      out << ", \"lumped_coa\": " << c.lumped_coa
          << ", \"flat_lumped_deviation\": " << c.flat_lumped_deviation
          << ", \"lumped_matches_flat\": " << (c.lumped_matches_flat ? "true" : "false");
    }
    out << ", \"inside_ci\": " << (c.inside_ci ? "true" : "false")
        << ", \"analytic_converged\": " << (c.analytic_converged ? "true" : "false")
        << ", \"lint_clean\": " << (c.lint_clean ? "true" : "false") << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace patchsec::testgen
