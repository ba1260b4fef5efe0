#include "patchsec/testgen/differential_runner.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/transient_coa.hpp"
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

// The simulation options of one case: the configured budget with the
// per-case seed derived from the scenario seed.
sim::SimulationOptions case_simulation(const GeneratedScenario& generated,
                                       const DifferentialOptions& options) {
  sim::SimulationOptions simulation = options.simulation;
  simulation.seed = sim::splitmix64(generated.scenario_seed ^ kSimulationSalt);
  return simulation;
}

DifferentialCase run_case_transient(const GeneratedScenario& generated,
                                    const DifferentialOptions& options) {
  DifferentialCase result;
  result.scenario_seed = generated.scenario_seed;
  result.label = generated.label;
  result.design = generated.design.name();
  result.patch_interval_hours = generated.scenario.patch_interval_hours();
  result.grid_points = options.transient_grid.size();

  core::EngineOptions engine;
  engine.throw_on_divergence = false;
  engine.time_points = options.transient_grid;
  engine.initial_down = patch_wave(generated.design);
  core::Scenario scenario = generated.scenario;
  scenario.with_engine(engine);
  const core::Session session(std::move(scenario));
  const core::EvalReport analytic = session.evaluate_transient(generated.design);
  result.analytic_coa = analytic.coa;
  result.analytic_converged = analytic.converged();
  result.lint_clean = analytic.lint_clean();

  // The oracle runs the network net the Session verified and solved, from
  // the same patch-window marking.
  const avail::NetworkSrn net =
      avail::build_network_srn(generated.design, session.aggregated_rates());
  const petri::Marking window_start = avail::patch_window_marking(net, engine.initial_down);
  const sim::TransientCurveEstimate simulated = sim::SrnSimulator(net.model).transient_reward_curve(
      net.coa_reward(), analytic.transient.time_points_hours,
      case_simulation(generated, options), &window_start);
  result.simulated_coa = simulated.interval_mean;
  result.half_width_95 = simulated.interval_half_width_95;

  const double z_point = simultaneous_z(options.z, options.transient_grid.size());
  result.inside_ci =
      transient_agrees_with(simulated, analytic.transient, z_point) && result.lint_clean;
  // Per-point deviations, for the report (the verdict above is the
  // authoritative band check).
  for (std::size_t j = 0; j < simulated.mean.size(); ++j) {
    const double deviation = std::abs(simulated.mean[j] - analytic.transient.coa[j]);
    if (deviation > result.worst_deviation) {
      result.worst_deviation = deviation;
      result.worst_point_hours = analytic.transient.time_points_hours[j];
    }
  }
  if (!result.inside_ci) {
    // Count the failing points with exactly the band the verdict used.
    for (std::size_t j = 0; j < simulated.mean.size(); ++j) {
      if (!transient_point_agrees(simulated, analytic.transient, j, z_point)) {
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
  core::EngineOptions engine;
  engine.throw_on_divergence = false;
  core::Scenario scenario = generated.scenario;
  scenario.with_engine(engine);
  const core::Session session(std::move(scenario));
  const core::EvalReport analytic = session.evaluate(generated.design);
  result.analytic_coa = analytic.coa;
  result.analytic_converged = analytic.converged();
  result.lint_clean = analytic.lint_clean();

  // Simulation pass: the network net the Session verified and solved, run
  // by the Monte-Carlo oracle with a per-case seed derived from the
  // scenario seed.
  const avail::NetworkSrn net =
      avail::build_network_srn(generated.design, session.aggregated_rates());
  const sim::SimulationEstimate simulated = sim::SrnSimulator(net.model)
      .steady_state_reward_replicated(net.coa_reward(), case_simulation(generated, options));
  result.simulated_coa = simulated.mean;
  result.half_width_95 = simulated.half_width_95;
  const CoaEstimate estimate{simulated.mean, simulated.half_width_95};

  // Third axis (kLumped): the same scenario through the closed-form
  // upper-layer engine.  The lumping is exact, so this is a deterministic check
  // against the flat solve PLUS the usual statistical check against the
  // simulation oracle — a lumping bug shows up in the former even when the
  // CI is wide enough to hide it.
  if (options.mode == DifferentialMode::kLumped) {
    core::EngineOptions lumped_engine = engine;
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
    result.inside_ci = agrees_with(estimate, {analytic.coa}, options.z) &&
                       agrees_with(estimate, {lumped_report.coa}, options.z) &&
                       result.lumped_matches_flat && result.lint_clean;
    return result;
  }

  result.inside_ci = agrees_with(estimate, {analytic.coa}, options.z) && result.lint_clean;
  return result;
}

}  // namespace

bool agrees_with(const CoaEstimate& a, const CoaEstimate& b, double z) noexcept {
  const double scale = z / 1.96;
  const double hw_a = a.half_width_95 * scale;
  const double hw_b = b.half_width_95 * scale;
  double combined = std::sqrt(hw_a * hw_a + hw_b * hw_b);
  if (combined == 0.0) combined = 1e-9;  // two exact values: round-off only
  return std::abs(a.coa - b.coa) <= combined;
}

bool transient_point_agrees(const sim::TransientCurveEstimate& simulated,
                            const core::TransientCurve& analytic, std::size_t j,
                            double z) noexcept {
  if (j >= simulated.mean.size() || j >= analytic.coa.size()) return false;
  const double half_width = j < simulated.half_width_95.size() ? simulated.half_width_95[j] : 0.0;
  const double floor = 3.0 / static_cast<double>(std::max<std::size_t>(
                                 simulated.diagnostics.replications, 1));
  const double band = std::max(half_width * (z / 1.96), floor);
  return std::abs(simulated.mean[j] - analytic.coa[j]) <= band;
}

bool transient_agrees_with(const sim::TransientCurveEstimate& simulated,
                           const core::TransientCurve& analytic, double z) noexcept {
  if (simulated.time_points.empty() || analytic.empty()) return false;
  if (simulated.time_points.size() != analytic.time_points_hours.size()) return false;
  for (std::size_t j = 0; j < simulated.time_points.size(); ++j) {
    if (std::abs(simulated.time_points[j] - analytic.time_points_hours[j]) > 1e-9) return false;
    if (!transient_point_agrees(simulated, analytic, j, z)) return false;
  }
  return true;
}

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
