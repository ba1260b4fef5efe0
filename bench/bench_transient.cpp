// Transient engine benchmarks: curve-evaluation throughput vs grid size
// (one Poisson expansion makes a G-point curve cost exactly one horizon of
// matvecs, not G of them) and the TransientSolver workspace-reuse win (the
// second curve on the same CTMC skips the generator + uniformized-matrix
// build).
//
// The workspace-reuse claim is ASSERTED on every run, not just printed: the
// prepared solver must beat the fresh-solver path (best-of-N wall time) and
// must report exactly one structure build across all warm curves.  A
// regression that silently rebuilds per curve exits nonzero here.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "patchsec/avail/transient_coa.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/petri/reachability.hpp"

namespace {

namespace av = patchsec::avail;
namespace core = patchsec::core;
namespace ct = patchsec::ctmc;
namespace ent = patchsec::enterprise;
namespace pt = patchsec::petri;

using Clock = std::chrono::steady_clock;

struct PreparedNetwork {
  pt::ReachabilityGraph graph;
  std::vector<double> rewards;
  std::vector<double> initial;
};

// The k-uniform network chain with the patch-wave start (one server per
// tier down), rewards and initial distribution precomputed.
PreparedNetwork prepared_network(unsigned k) {
  const core::Session session(core::Scenario::paper_case_study());
  const ent::RedundancyDesign design{{k, k, k, k}};
  const av::NetworkSrn net = av::build_network_srn(design, session.aggregated_rates());
  PreparedNetwork prep;
  prep.graph = pt::build_reachability_graph(net.model);
  const pt::RewardFunction reward = net.coa_reward();
  prep.rewards.reserve(prep.graph.tangible_count());
  for (const pt::Marking& m : prep.graph.tangible_markings) prep.rewards.push_back(reward(m));
  prep.initial.assign(prep.graph.tangible_count(), 0.0);
  const std::map<ent::ServerRole, unsigned> wave{{ent::ServerRole::kDns, 1},
                                                 {ent::ServerRole::kWeb, 1},
                                                 {ent::ServerRole::kApp, 1},
                                                 {ent::ServerRole::kDb, 1}};
  prep.initial[prep.graph.index_of(av::patch_window_marking(net, wave))] = 1.0;
  return prep;
}

std::vector<double> uniform_grid(std::size_t points, double horizon) {
  std::vector<double> grid;
  grid.reserve(points);
  for (std::size_t j = 0; j < points; ++j) {
    grid.push_back(horizon * static_cast<double>(j + 1) / static_cast<double>(points));
  }
  return grid;
}

// ---- printed studies (run from main before the GB loops) -------------------

void print_grid_scaling() {
  const PreparedNetwork prep = prepared_network(4);
  ct::TransientSolver solver;
  solver.prepare(prep.graph.chain);
  std::printf("=== curve cost vs grid size (k=4 network, %zu states, 24 h horizon) ===\n",
              prep.graph.tangible_count());
  std::printf("%12s %14s %12s %22s\n", "grid points", "best wall (ms)", "matvecs",
              "ms per 1000 points");
  std::vector<double> values;
  for (std::size_t points : {4u, 16u, 64u, 256u}) {
    const std::vector<double> grid = uniform_grid(points, 24.0);
    double best = 0.0;
    std::size_t matvecs = 0;
    for (int rep = 0; rep < 10; ++rep) {
      solver.prepare(prep.graph.chain);  // reset diagnostics; value refresh
      const auto start = Clock::now();
      (void)solver.reward_curve(prep.initial, prep.rewards, grid, values);
      const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
      if (rep == 0 || elapsed < best) best = elapsed;
      matvecs = solver.diagnostics().matvec_count;
    }
    std::printf("%12zu %14.4f %12zu %22.4f\n", points, best * 1e3, matvecs,
                best * 1e6 / static_cast<double>(points));
  }
  std::printf("\nReading: one Poisson expansion over the 24 h window serves every grid\n"
              "point, so the matvec total is the same for every grid density — only the\n"
              "per-term weighting into the grid points grows with it.\n\n");
}

// The asserted workspace-reuse study: fresh solver (generator + uniformized
// matrix build + curve) vs prepared solver (curve only).
void assert_workspace_reuse() {
  const PreparedNetwork prep = prepared_network(6);
  const std::vector<double> grid = {0.5, 1.0};  // short horizon: build-dominated
  std::vector<double> values;
  constexpr int kReps = 25;

  double cold_best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = Clock::now();
    ct::TransientSolver fresh;
    fresh.prepare(prep.graph.chain);
    (void)fresh.reward_curve(prep.initial, prep.rewards, grid, values);
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if (rep == 0 || elapsed < cold_best) cold_best = elapsed;
  }

  ct::TransientSolver warm;
  warm.prepare(prep.graph.chain);
  double warm_best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = Clock::now();
    (void)warm.reward_curve(prep.initial, prep.rewards, grid, values);
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if (rep == 0 || elapsed < warm_best) warm_best = elapsed;
  }

  std::printf("=== workspace reuse (k=6 network, %zu states, 2-point curve) ===\n",
              prep.graph.tangible_count());
  std::printf("  cold (prepare + curve) best of %d: %10.4f ms\n", kReps, cold_best * 1e3);
  std::printf("  warm (curve only)      best of %d: %10.4f ms   speedup %.2fx\n", kReps,
              warm_best * 1e3, cold_best / warm_best);

  if (warm.structure_builds() != 1) {
    std::fprintf(stderr,
                 "FAIL: prepared TransientSolver rebuilt its structure %zu times across warm "
                 "curves (expected 1)\n",
                 warm.structure_builds());
    std::exit(1);
  }
  if (warm_best >= cold_best) {
    std::fprintf(stderr,
                 "FAIL: warm curve (%.6f ms) not faster than cold prepare+curve (%.6f ms); "
                 "the uniformization workspace is not being reused\n",
                 warm_best * 1e3, cold_best * 1e3);
    std::exit(1);
  }
  std::printf("  asserted: warm < cold and exactly one structure build.\n\n");
}

// ---- Google Benchmark loops -------------------------------------------------

void BM_CurveColdWorkspace(benchmark::State& state) {
  const PreparedNetwork prep = prepared_network(4);
  const std::vector<double> grid = uniform_grid(8, 24.0);
  std::vector<double> values;
  for (auto _ : state) {
    ct::TransientSolver solver;
    solver.prepare(prep.graph.chain);
    benchmark::DoNotOptimize(solver.reward_curve(prep.initial, prep.rewards, grid, values));
  }
}
BENCHMARK(BM_CurveColdWorkspace);

void BM_CurveWarmWorkspace(benchmark::State& state) {
  const PreparedNetwork prep = prepared_network(4);
  const std::vector<double> grid = uniform_grid(8, 24.0);
  ct::TransientSolver solver;
  solver.prepare(prep.graph.chain);
  std::vector<double> values;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.reward_curve(prep.initial, prep.rewards, grid, values));
  }
}
BENCHMARK(BM_CurveWarmWorkspace);

void BM_CurveByGridSize(benchmark::State& state) {
  const PreparedNetwork prep = prepared_network(4);
  const std::vector<double> grid = uniform_grid(static_cast<std::size_t>(state.range(0)), 24.0);
  ct::TransientSolver solver;
  solver.prepare(prep.graph.chain);
  std::vector<double> values;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.reward_curve(prep.initial, prep.rewards, grid, values));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CurveByGridSize)->Arg(4)->Arg(16)->Arg(64);

void BM_SessionEvaluateTransient(benchmark::State& state) {
  core::EngineOptions engine;
  engine.horizon_hours = 24.0;
  engine.transient_points = 16;
  engine.initial_down = {{ent::ServerRole::kApp, 1}};
  const core::Session session(core::Scenario::paper_case_study().with_engine(engine));
  (void)session.aggregated_rates();  // pre-warm the lower layer
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.evaluate_transient(ent::example_network_design()));
  }
}
BENCHMARK(BM_SessionEvaluateTransient);

}  // namespace

int main(int argc, char** argv) {
  print_grid_scaling();
  assert_workspace_reuse();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
