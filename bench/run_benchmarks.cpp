// Standalone perf-tracking driver: runs the solver-core macro benchmarks and
// emits a machine-readable BENCH_RESULTS.json so the bench trajectory is
// comparable across PRs (schema documented in bench/README.md).
//
// Unlike the bench_* binaries this needs no Google Benchmark: each scenario
// is repeated a fixed number of times, the best and mean wall times are
// recorded alongside the model/solver diagnostics (state counts, CTMC
// transitions, solver iterations, converged flags) of the work performed.
//
//   run_benchmarks [--quick] [--reps N] [--output PATH]
//
//   --quick     3 repetitions (CI smoke); default is 15
//   --reps N    explicit repetition count
//   --output    output path, default BENCH_RESULTS.json in the CWD

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <string>
#include <vector>

#include <cmath>

#include "patchsec/avail/lumped_coa.hpp"
#include "patchsec/avail/transient_coa.hpp"
#include "patchsec/avail/network_srn.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/ctmc/transient_solver.hpp"
#include "patchsec/linalg/spmv_kernel.hpp"
#include "patchsec/linalg/stationary_solver.hpp"
#include "patchsec/petri/reachability.hpp"
#include "patchsec/sim/srn_simulator.hpp"
#include "game_load.hpp"
#include "service_load.hpp"

namespace {

namespace av = patchsec::avail;
namespace core = patchsec::core;
namespace ent = patchsec::enterprise;
namespace la = patchsec::linalg;
namespace pt = patchsec::petri;
namespace sm = patchsec::sim;

using Clock = std::chrono::steady_clock;

struct BenchResult {
  std::string name;
  std::size_t repetitions = 0;
  double wall_seconds_best = 0.0;
  double wall_seconds_mean = 0.0;
  std::size_t tangible_states = 0;
  std::size_t ctmc_transitions = 0;
  std::size_t solver_iterations = 0;
  std::uint64_t events_fired = 0;    ///< simulation benches: Monte-Carlo firings
  std::size_t flat_states = 0;       ///< lumped benches: size of the avoided flat space
  std::size_t rhs_count = 0;         ///< schema v5: panel width of a batched solve (1 = single)
  double evals_per_second = 0.0;     ///< schema v6: service rows — sustained request rate
  double cache_hit_rate = 0.0;       ///< schema v6: service rows — result-cache hit rate
  bool converged = true;
};

struct Sample {
  std::size_t tangible_states = 0;
  std::size_t ctmc_transitions = 0;
  std::size_t solver_iterations = 0;
  std::uint64_t events_fired = 0;
  std::size_t flat_states = 0;
  std::size_t rhs_count = 0;
  bool converged = true;
};

// Run `body` `reps` times; the body returns the diagnostics of the work it
// performed (recorded from the last repetition).  `time_divisor` scales the
// recorded wall times (the panel rows report PER-CURVE time: total / width).
BenchResult run_bench(const std::string& name, std::size_t reps,
                      const std::function<Sample()>& body, double time_divisor = 1.0) {
  BenchResult result;
  result.name = name;
  result.repetitions = reps;
  double total = 0.0;
  double best = 0.0;
  Sample sample;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    sample = body();
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    total += elapsed;
    if (r == 0 || elapsed < best) best = elapsed;
  }
  result.wall_seconds_best = best / time_divisor;
  result.wall_seconds_mean = total / static_cast<double>(reps) / time_divisor;
  result.tangible_states = sample.tangible_states;
  result.ctmc_transitions = sample.ctmc_transitions;
  result.solver_iterations = sample.solver_iterations;
  result.events_fired = sample.events_fired;
  result.flat_states = sample.flat_states;
  result.rhs_count = sample.rhs_count;
  result.converged = sample.converged;
  std::printf("%-32s best %10.6fs  mean %10.6fs  states %7zu  iters %6zu%s\n",
              result.name.c_str(), result.wall_seconds_best, result.wall_seconds_mean,
              result.tangible_states, result.solver_iterations,
              result.converged ? "" : "  [NOT CONVERGED]");
  return result;
}

Sample sample_from(const core::EvalReport& report) {
  Sample s;
  s.tangible_states = report.availability_diagnostics.tangible_states;
  s.ctmc_transitions = report.availability_diagnostics.transitions;
  s.solver_iterations = report.total_solver_iterations();
  s.converged = report.converged();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t reps = 15;
  std::string output = "BENCH_RESULTS.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      reps = 3;
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--output") == 0 && i + 1 < argc) {
      output = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--reps N] [--output PATH]\n", argv[0]);
      return 2;
    }
  }
  if (reps == 0) reps = 1;

  std::vector<BenchResult> results;

  // Full evaluate (HARM + memoized lower layer + upper-layer COA) per design
  // scale, fresh session each repetition with the aggregation pre-warmed so
  // the measurement matches bench_ablation_scale's BM_EvaluateUniformRedundancy.
  for (unsigned k : {2u, 4u, 6u}) {
    const ent::RedundancyDesign design{{k, k, k, k}};
    results.push_back(
        run_bench("evaluate_uniform_k" + std::to_string(k), reps, [&design]() -> Sample {
          const core::Session session(core::Scenario::paper_case_study());
          (void)session.aggregated_rates();
          return sample_from(session.evaluate(design));
        }));
  }

  // Reachability exploration alone at the largest configuration.
  {
    const core::Session session(core::Scenario::paper_case_study());
    const av::NetworkSrn net = av::build_network_srn(ent::RedundancyDesign{{6, 6, 6, 6}},
                                                     session.aggregated_rates());
    results.push_back(run_bench("reachability_network_k6", reps, [&net]() -> Sample {
      const pt::ReachabilityGraph g = pt::build_reachability_graph(net.model);
      Sample s;
      s.tangible_states = g.tangible_count();
      s.ctmc_transitions = g.chain.transitions().size();
      return s;
    }));

    // Steady-state solve alone: cold (fresh workspace per solve, includes
    // the structure build) vs warm (workspace reused across repetitions —
    // the Session schedule-sweep path).
    const la::CsrMatrix q = pt::build_reachability_graph(net.model).chain.generator();
    results.push_back(run_bench("steady_state_k6_cold", reps, [&q]() -> Sample {
      const la::SteadyStateResult ss = la::solve_steady_state(q);
      Sample s;
      s.tangible_states = q.rows();
      s.solver_iterations = ss.iterations;
      s.converged = ss.converged;
      return s;
    }));
    la::StationarySolver workspace;
    results.push_back(run_bench("steady_state_k6_warm", reps, [&q, &workspace]() -> Sample {
      const la::SteadyStateResult ss = workspace.solve(q);
      Sample s;
      s.tangible_states = q.rows();
      s.solver_iterations = ss.iterations;
      s.converged = ss.converged;
      return s;
    }));
  }

  // Lower-layer aggregation (server SRN build + solve, all roles).
  results.push_back(run_bench("server_srn_aggregation", reps, []() -> Sample {
    const core::Session session(core::Scenario::paper_case_study());
    (void)session.aggregated_rates();
    Sample s;
    for (const auto& [role, d] : session.aggregation_diagnostics(720.0)) {
      s.tangible_states += d.tangible_states;
      s.ctmc_transitions += d.transitions;
      s.solver_iterations += d.solver_iterations;
      s.converged = s.converged && d.converged;
    }
    return s;
  }));

  // Simulation backend: independent-replication throughput on the example
  // network's upper-layer SRN, serial vs threaded (8 workers).  The threaded
  // estimate must be bit-identical to the serial one for the same seed;
  // `converged` records that check.
  {
    const core::Session session(core::Scenario::paper_case_study());
    const av::NetworkSrn net =
        av::build_network_srn(ent::example_network_design(), session.aggregated_rates());
    const sm::SrnSimulator simulator(net.model);
    const pt::RewardFunction reward = net.coa_reward();
    sm::SimulationOptions sim_options;
    sim_options.seed = 20170626;
    sim_options.replications = 64;
    sim_options.warmup_hours = 1000.0;
    sim_options.horizon_hours = 10000.0;

    sim_options.threads = 1;
    const sm::SimulationEstimate serial_reference =
        simulator.steady_state_reward_replicated(reward, sim_options);
    results.push_back(run_bench("sim_replications_serial", reps,
                                [&simulator, &reward, &sim_options]() -> Sample {
                                  const sm::SimulationEstimate est =
                                      simulator.steady_state_reward_replicated(reward,
                                                                               sim_options);
                                  Sample s;
                                  s.events_fired = est.diagnostics.events_fired;
                                  s.solver_iterations = est.diagnostics.replications;
                                  return s;
                                }));

    sim_options.threads = 8;
    results.push_back(run_bench(
        "sim_replications_threaded8", reps,
        [&simulator, &reward, &sim_options, &serial_reference]() -> Sample {
          const sm::SimulationEstimate est =
              simulator.steady_state_reward_replicated(reward, sim_options);
          Sample s;
          s.events_fired = est.diagnostics.events_fired;
          s.solver_iterations = est.diagnostics.replications;
          s.converged = est.mean == serial_reference.mean &&
                        est.half_width_95 == serial_reference.half_width_95;
          return s;
        }));
  }

  // Transient engine (schema v3 rows): the 16-point coa(t) curve on the k=6
  // network after a patch wave, cold (fresh TransientSolver: generator +
  // uniformized-matrix build + curve) vs warm (prepared workspace, curve
  // only) — the uniformization counterpart of steady_state_k6_{cold,warm}.
  // solver_iterations records the matvec count of the expansion.
  {
    const core::Session session(core::Scenario::paper_case_study());
    const av::NetworkSrn net = av::build_network_srn(ent::RedundancyDesign{{6, 6, 6, 6}},
                                                     session.aggregated_rates());
    const pt::ReachabilityGraph graph = pt::build_reachability_graph(net.model);
    const pt::RewardFunction reward = net.coa_reward();
    std::vector<double> rewards;
    rewards.reserve(graph.tangible_count());
    for (const pt::Marking& m : graph.tangible_markings) rewards.push_back(reward(m));
    std::vector<double> initial(graph.tangible_count(), 0.0);
    const std::map<ent::ServerRole, unsigned> wave{{ent::ServerRole::kDns, 1},
                                                   {ent::ServerRole::kWeb, 1},
                                                   {ent::ServerRole::kApp, 1},
                                                   {ent::ServerRole::kDb, 1}};
    initial[graph.index_of(av::patch_window_marking(net, wave))] = 1.0;
    std::vector<double> grid;
    for (int j = 1; j <= 16; ++j) grid.push_back(24.0 * j / 16.0);
    std::vector<double> values;

    // The historical cold/warm rows stay pinned to the reference scalar
    // kernel so their trajectory remains comparable across PRs; the SIMD
    // rows below measure the same work on the dispatched kernel.
    patchsec::ctmc::TransientOptions scalar_options;
    scalar_options.kernel = patchsec::ctmc::TransientOptions::Kernel::kScalar;
    results.push_back(run_bench("transient_curve_k6_cold", reps, [&]() -> Sample {
      patchsec::ctmc::TransientSolver solver;
      solver.set_options(scalar_options);
      solver.prepare(graph.chain);
      (void)solver.reward_curve(initial, rewards, grid, values);
      Sample s;
      s.tangible_states = graph.tangible_count();
      s.ctmc_transitions = graph.chain.transitions().size();
      s.solver_iterations = solver.diagnostics().matvec_count;
      s.rhs_count = 1;
      return s;
    }));
    patchsec::ctmc::TransientSolver warm;
    warm.set_options(scalar_options);
    warm.prepare(graph.chain);
    results.push_back(run_bench("transient_curve_k6_warm", reps, [&]() -> Sample {
      const std::size_t matvecs_before = warm.diagnostics().matvec_count;
      (void)warm.reward_curve(initial, rewards, grid, values);
      Sample s;
      s.tangible_states = graph.tangible_count();
      s.ctmc_transitions = graph.chain.transitions().size();
      s.solver_iterations = warm.diagnostics().matvec_count - matvecs_before;
      // The reuse contract: one structure build no matter how many curves.
      s.converged = warm.structure_builds() == 1;
      s.rhs_count = 1;
      return s;
    }));
    const double scalar_warm_best = results.back().wall_seconds_best;

    // Schema v5 rows — the SIMD kernel layer.  transient_curve_k6_simd is
    // the warm row's exact work on the SIMD+panel path: the same curve
    // ridden on an 8-wide panel (8 replicated initial conditions, one
    // matrix sweep per expansion term for all 8), with wall_seconds
    // reported PER CURVE (total / 8) so the row is directly comparable to
    // the scalar warm row.  `converged` asserts scalar-oracle agreement at
    // 1e-10 plus the ROADMAP >=4x speedup target against the scalar row
    // measured above (the ratio only when a SIMD ISA actually dispatched,
    // so portable reruns stay meaningful).
    constexpr std::size_t kPanel = 8;
    std::vector<double> scalar_values = values;
    patchsec::ctmc::TransientSolver simd;
    simd.prepare(graph.chain);
    (void)simd.reward_curve(initial, rewards, grid, values);  // compile the kernel off-clock
    const std::vector<std::vector<double>> replicated(kPanel, initial);
    std::vector<std::vector<double>> replicated_curves;
    results.push_back(run_bench("transient_curve_k6_simd", reps, [&]() -> Sample {
      const std::size_t matvecs_before = simd.diagnostics().matvec_count;
      (void)simd.reward_curve_multi(replicated, rewards, grid, replicated_curves);
      Sample s;
      s.tangible_states = graph.tangible_count();
      s.ctmc_transitions = graph.chain.transitions().size();
      s.solver_iterations = simd.diagnostics().matvec_count - matvecs_before;
      s.rhs_count = kPanel;
      s.converged = simd.kernel_structure_builds() == 1;
      for (std::size_t b = 0; b < kPanel; ++b) {
        for (std::size_t j = 0; j < grid.size(); ++j) {
          s.converged =
              s.converged && std::abs(replicated_curves[b][j] - scalar_values[j]) <= 1e-10;
        }
      }
      return s;
    }, static_cast<double>(kPanel)));
    if (la::spmv_dispatched_isa() != la::SpmvIsa::kScalar) {
      results.back().converged =
          results.back().converged &&
          scalar_warm_best >= 4.0 * results.back().wall_seconds_best;
    }
    const double simd_warm_best = results.back().wall_seconds_best;

    // transient_batch8_k6: eight patch-wave initial markings advanced by ONE
    // panel solve.  The sequential reference (eight single-RHS curves on the
    // same warm SIMD solver) is timed with the same best-of-reps discipline;
    // `converged` asserts per-curve equivalence AND that the panel beats it.
    std::vector<std::vector<double>> initials;
    for (unsigned i = 1; i <= 8; ++i) {
      std::map<ent::ServerRole, unsigned> wave_i;
      for (unsigned role = 0; role < ent::kRoleCount; ++role) {
        if (i & (1u << role)) wave_i.emplace(static_cast<ent::ServerRole>(role), 1u);
      }
      initials.emplace_back(graph.tangible_count(), 0.0);
      initials.back()[graph.index_of(av::patch_window_marking(net, wave_i))] = 1.0;
    }
    std::vector<std::vector<double>> sequential_curves(initials.size());
    double sequential_best = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      const auto start = Clock::now();
      for (std::size_t b = 0; b < initials.size(); ++b) {
        (void)simd.reward_curve(initials[b], rewards, grid, sequential_curves[b]);
      }
      const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
      if (r == 0 || elapsed < sequential_best) sequential_best = elapsed;
    }
    std::vector<std::vector<double>> panel_curves;
    results.push_back(run_bench("transient_batch8_k6", reps, [&]() -> Sample {
      const std::size_t matvecs_before = simd.diagnostics().matvec_count;
      (void)simd.reward_curve_multi(initials, rewards, grid, panel_curves);
      Sample s;
      s.tangible_states = graph.tangible_count();
      s.ctmc_transitions = graph.chain.transitions().size();
      s.solver_iterations = simd.diagnostics().matvec_count - matvecs_before;
      s.rhs_count = initials.size();
      for (std::size_t b = 0; b < initials.size(); ++b) {
        for (std::size_t j = 0; j < grid.size(); ++j) {
          s.converged =
              s.converged && std::abs(panel_curves[b][j] - sequential_curves[b][j]) <= 1e-10;
        }
      }
      return s;
    }));
    results.back().converged =
        results.back().converged && results.back().wall_seconds_best < sequential_best;
    std::printf("  [kernel %s]  warm scalar/simd %.2fx  batch8 panel/sequential %.2fx\n",
                la::spmv_isa_name(la::spmv_dispatched_isa()),
                scalar_warm_best / simd_warm_best,
                sequential_best / results.back().wall_seconds_best);
  }

  // Full facade transient evaluation (Session::evaluate_transient, analytic
  // backend, 16-point derived grid) and the finite-horizon Monte-Carlo
  // counterpart (512 replications, 8 workers, thread-identity asserted via
  // `converged` like the steady-state sim rows).
  {
    core::EngineOptions engine;
    engine.horizon_hours = 24.0;
    engine.transient_points = 16;
    engine.initial_down = {{ent::ServerRole::kApp, 1}};
    const core::Session session(core::Scenario::paper_case_study().with_engine(engine));
    (void)session.aggregated_rates();
    results.push_back(run_bench("transient_session_paper", reps, [&session]() -> Sample {
      const core::EvalReport report = session.evaluate_transient(ent::example_network_design());
      Sample s;
      s.tangible_states = report.availability_diagnostics.tangible_states;
      s.ctmc_transitions = report.availability_diagnostics.transitions;
      s.solver_iterations = report.total_solver_iterations();
      s.converged = report.converged();
      return s;
    }));

    const av::NetworkSrn net =
        av::build_network_srn(ent::example_network_design(), session.aggregated_rates());
    const sm::SrnSimulator simulator(net.model);
    const pt::RewardFunction reward = net.coa_reward();
    const pt::Marking wave_start = av::patch_window_marking(net, engine.initial_down);
    const std::vector<double> sim_grid = engine.transient_grid();
    sm::SimulationOptions sim_options;
    sim_options.seed = 20170626;
    sim_options.replications = 512;
    sim_options.threads = 1;
    const sm::TransientCurveEstimate serial_reference =
        simulator.transient_reward_curve(reward, sim_grid, sim_options, &wave_start);
    sim_options.threads = 8;
    results.push_back(run_bench(
        "sim_transient_curve_threaded8", reps,
        [&simulator, &reward, &sim_grid, &sim_options, &wave_start,
         &serial_reference]() -> Sample {
          const sm::TransientCurveEstimate est =
              simulator.transient_reward_curve(reward, sim_grid, sim_options, &wave_start);
          Sample s;
          s.events_fired = est.diagnostics.events_fired;
          s.solver_iterations = est.diagnostics.replications;
          s.converged = est.mean == serial_reference.mean &&
                        est.half_width_95 == serial_reference.half_width_95 &&
                        est.interval_mean == serial_reference.interval_mean;
          return s;
        }));
  }

  // Symmetry-lumped evaluation (schema v4 rows): steady-state COA by product
  // form over the per-tier birth-death chains.  At k=6 the flat k=6 solve
  // exists as an in-run oracle, so `converged` additionally asserts 1e-10
  // agreement; at k=50 the flat chain (51^4 = 6,765,201 states) is out of
  // reach and the closed form is the cross-check.  `flat_states` records the
  // joint space each lumped solve avoided — the headline state-count ratio.
  {
    const core::Session session(core::Scenario::paper_case_study());
    const auto& rates = session.aggregated_rates();

    const ent::RedundancyDesign k6{{6, 6, 6, 6}};
    const double flat_k6 =
        av::capacity_oriented_availability_detailed(k6, rates, pt::AnalyzerOptions{}).coa;
    results.push_back(run_bench("lumped_k6_evaluate", reps, [&rates, &k6, flat_k6]() -> Sample {
      const av::CoaEvaluation eval =
          av::capacity_oriented_availability_lumped_detailed(k6, rates);
      Sample s;
      s.tangible_states = eval.diagnostics.tangible_states;
      s.ctmc_transitions = eval.diagnostics.transitions;
      s.solver_iterations = eval.diagnostics.solver_iterations;
      s.flat_states = eval.diagnostics.flat_states;
      s.converged = eval.diagnostics.converged && std::abs(eval.coa - flat_k6) <= 1e-10;
      return s;
    }));

    const ent::RedundancyDesign k50{{50, 50, 50, 50}};
    const double closed_k50 = av::coa_closed_form(k50, rates);
    results.push_back(
        run_bench("lumped_k50_evaluate", reps, [&rates, &k50, closed_k50]() -> Sample {
          const av::CoaEvaluation eval =
              av::capacity_oriented_availability_lumped_detailed(k50, rates);
          Sample s;
          s.tangible_states = eval.diagnostics.tangible_states;
          s.ctmc_transitions = eval.diagnostics.transitions;
          s.solver_iterations = eval.diagnostics.solver_iterations;
          s.flat_states = eval.diagnostics.flat_states;
          s.converged = eval.diagnostics.converged &&
                        std::abs(eval.coa - closed_k50) <= 1e-9 &&
                        eval.diagnostics.flat_states >=
                            100 * eval.diagnostics.tangible_states;
          return s;
        }));

    // Transient product form at k=50: a 5-servers-per-tier patch wave over
    // the 16-point 24 h grid.  solver_iterations counts the summed
    // per-component uniformization matvecs.
    std::map<ent::ServerRole, unsigned> wave;
    for (unsigned role = 0; role < ent::kRoleCount; ++role) {
      wave.emplace(static_cast<ent::ServerRole>(role), 5u);
    }
    std::vector<double> lumped_grid;
    for (int j = 1; j <= 16; ++j) lumped_grid.push_back(24.0 * j / 16.0);
    results.push_back(
        run_bench("lumped_k50_transient", reps, [&rates, &k50, &wave, &lumped_grid]() -> Sample {
          av::TransientCoaOptions options;
          options.initial_down = wave;
          const av::CoaCurveEvaluation eval =
              av::transient_coa_lumped_detailed(k50, rates, lumped_grid, options);
          Sample s;
          s.tangible_states = eval.diagnostics.tangible_states;
          s.ctmc_transitions = eval.diagnostics.transitions;
          s.solver_iterations = eval.diagnostics.solver_iterations;
          s.flat_states = eval.diagnostics.flat_states;
          bool in_range = true;
          for (const av::CoaPoint& p : eval.curve) {
            in_range = in_range && p.coa >= 0.0 && p.coa <= 1.0;
          }
          s.converged = eval.diagnostics.converged && in_range;
          return s;
        }));
  }

  // Schedule sweep: the five paper designs under six cadences through one
  // Session (memoization + per-thread solver workspace reuse).
  results.push_back(run_bench("schedule_sweep_5x6", reps, []() -> Sample {
    const core::Scenario scenario =
        core::Scenario::paper_case_study().with_patch_schedule({168, 336, 504, 720, 1440, 2160});
    const core::Session session(scenario);
    const std::vector<core::EvalReport> reports = session.evaluate_all();
    Sample s;
    for (const core::EvalReport& r : reports) {
      s.solver_iterations += r.total_solver_iterations();
      s.converged = s.converged && r.converged();
    }
    s.tangible_states = reports.back().availability_diagnostics.tangible_states;
    s.ctmc_transitions = reports.back().availability_diagnostics.transitions;
    return s;
  }));

  // Evaluation-service rows (schema v6): the duplicate-heavy (90% repeat)
  // k=6 throughput load and the grouped 8-wave transient panel, both driven
  // by the exact streams bench_service runs (bench/service_load.hpp).
  // `converged` carries the ISSUE 9 acceptance predicates: >= 5,000 evals/s
  // at >= 0.8 hit rate with cached replies bit-identical to fresh solo
  // solves, and full-width grouping with cache/solo agreement respectively.
  {
    namespace bs = patchsec::benchsvc;
    double best_rate = 0.0;
    double hit_rate = 0.0;
    bool every_rep_sound = true;
    results.push_back(run_bench("service_throughput_k6", reps, [&]() -> Sample {
      const bs::ThroughputOutcome o = bs::run_throughput_load(2000);
      best_rate = std::max(best_rate, o.evals_per_second);
      hit_rate = o.cache_hit_rate;
      every_rep_sound = every_rep_sound && o.bit_identical && o.cache_hit_rate >= 0.8;
      Sample s;
      s.tangible_states = o.tangible_states;
      s.solver_iterations = o.solver_iterations;
      s.converged = o.bit_identical && o.cache_hit_rate >= 0.8;
      return s;
    }));
    results.back().evals_per_second = best_rate;
    results.back().cache_hit_rate = hit_rate;
    results.back().converged =
        results.back().converged && every_rep_sound && best_rate >= 5000.0;
    std::printf("  [service]  throughput %.0f evals/s at hit rate %.2f\n", best_rate, hit_rate);

    double best_batch_rate = 0.0;
    results.push_back(run_bench("service_transient_batch_k6", reps, [&]() -> Sample {
      const bs::TransientBatchOutcome o = bs::run_transient_batch_load();
      best_batch_rate = std::max(best_batch_rate, o.evals_per_second);
      Sample s;
      s.tangible_states = o.tangible_states;
      s.solver_iterations = o.matvec_count;
      s.rhs_count = o.batch_width;
      s.converged = o.converged();
      return s;
    }));
    results.back().evals_per_second = best_batch_rate;
  }

  // Game-layer row (schema v7): the k=6 attacker–defender equilibrium
  // (bench/game_load.hpp), solved twice per repetition through one service.
  // The warm re-solve runs the grid sweep against the populated cache (hit
  // rate 0.5 by construction) and must reproduce the first equilibrium bit
  // for bit.  `converged` carries the acceptance predicates: certified
  // equilibrium + deterministic re-solve + cache hit rate >= 0.5.
  {
    namespace bg = patchsec::benchgame;
    double best_rate = 0.0;
    double hit_rate = 0.0;
    results.push_back(run_bench("game_equilibrium_k6", reps, [&]() -> Sample {
      const auto start = Clock::now();
      const bg::GameOutcome o = bg::run_equilibrium();
      const double wall = std::chrono::duration<double>(Clock::now() - start).count();
      best_rate = std::max(best_rate, static_cast<double>(o.submitted) / wall);
      hit_rate = o.cache_hit_rate;
      Sample s;
      s.tangible_states = o.grid_cells;
      s.solver_iterations = o.iterations;
      s.converged = o.converged && o.certified && o.deterministic && o.cache_hit_rate >= 0.5;
      return s;
    }));
    results.back().evals_per_second = best_rate;
    results.back().cache_hit_rate = hit_rate;
    std::printf("  [game]     equilibrium in %zu sweep(s) at hit rate %.2f\n",
                results.back().solver_iterations, hit_rate);
  }

  std::ofstream out(output);
  if (!out) {
    std::fprintf(stderr, "run_benchmarks: cannot write %s\n", output.c_str());
    return 1;
  }
  out << "{\n  \"schema_version\": 7,\n  \"unit\": \"seconds\",\n  \"repetitions\": " << reps
      << ",\n  \"benches\": [\n";
  out << std::setprecision(9);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"repetitions\": " << r.repetitions
        << ", \"wall_seconds_best\": " << r.wall_seconds_best
        << ", \"wall_seconds_mean\": " << r.wall_seconds_mean
        << ", \"tangible_states\": " << r.tangible_states
        << ", \"ctmc_transitions\": " << r.ctmc_transitions
        << ", \"solver_iterations\": " << r.solver_iterations
        << ", \"events_fired\": " << r.events_fired
        << ", \"flat_states\": " << r.flat_states
        << ", \"rhs_count\": " << r.rhs_count
        << ", \"evals_per_second\": " << r.evals_per_second
        << ", \"cache_hit_rate\": " << r.cache_hit_rate
        << ", \"converged\": " << (r.converged ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("\nwrote %s\n", output.c_str());
  return 0;
}
