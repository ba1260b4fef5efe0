// The transient evaluation path of the facade (Session::evaluate_transient):
// grid resolution, curve shape against the avail-layer engine and against
// steady state, cache sharing with the steady-state path, the Monte-Carlo
// oracle's CI band around the Session curve, and the JSON curve payload.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <vector>

#include "patchsec/avail/transient_coa.hpp"
#include "patchsec/core/report.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/sim/srn_simulator.hpp"
#include "patchsec/testgen/differential_runner.hpp"

namespace av = patchsec::avail;
namespace core = patchsec::core;
namespace ent = patchsec::enterprise;
namespace sim = patchsec::sim;
namespace tg = patchsec::testgen;

namespace {

core::Scenario transient_scenario(core::EngineOptions engine = {}) {
  return core::Scenario::paper_case_study().with_engine(engine);
}

}  // namespace

// ---------- grid resolution --------------------------------------------------

TEST(TransientGrid, DerivedGridSpansZeroToHorizon) {
  core::EngineOptions engine;
  engine.horizon_hours = 12.0;
  engine.transient_points = 5;
  const std::vector<double> grid = engine.transient_grid();
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.0);
  EXPECT_DOUBLE_EQ(grid.back(), 12.0);
  EXPECT_DOUBLE_EQ(grid[1], 3.0);
}

TEST(TransientGrid, ExplicitGridWinsAndIsValidated) {
  core::EngineOptions engine;
  engine.time_points = {0.0, 1.0, 4.0};
  engine.horizon_hours = -1.0;  // ignored when time_points is set
  EXPECT_EQ(engine.transient_grid(), engine.time_points);

  engine.time_points = {1.0, 0.5};
  EXPECT_THROW((void)engine.transient_grid(), std::invalid_argument);
  engine.time_points = {-1.0};
  EXPECT_THROW((void)engine.transient_grid(), std::invalid_argument);
  engine.time_points = {0.0};  // zero-length window: no interval COA
  EXPECT_THROW((void)engine.transient_grid(), std::invalid_argument);

  engine.time_points.clear();
  EXPECT_THROW((void)engine.transient_grid(), std::invalid_argument);  // horizon < 0
  engine.horizon_hours = 24.0;
  engine.transient_points = 1;
  EXPECT_THROW((void)engine.transient_grid(), std::invalid_argument);
}

// ---------- Session curve -----------------------------------------------------

TEST(TransientEngine, AnalyticCurveHealsFromThePatchWindowDip) {
  core::EngineOptions engine;
  engine.time_points = {0.0, 0.5, 1.0, 2.0, 6.0, 1000.0};
  engine.initial_down = {{ent::ServerRole::kApp, 1}};
  const core::Session session(transient_scenario(engine));
  const core::EvalReport report = session.evaluate_transient(ent::example_network_design());

  ASSERT_EQ(report.transient.time_points_hours.size(), 6u);
  ASSERT_EQ(report.transient.coa.size(), 6u);
  EXPECT_TRUE(report.converged());

  // t = 0: one of six servers down -> exactly 5/6.
  EXPECT_NEAR(report.transient.coa[0], 5.0 / 6.0, 1e-9);
  // Monotone healing toward steady state on the MTTR time scale.
  for (std::size_t j = 1; j + 1 < report.transient.coa.size(); ++j) {
    EXPECT_GT(report.transient.coa[j], report.transient.coa[j - 1]) << "j=" << j;
  }
  const core::EvalReport steady = session.evaluate(ent::example_network_design());
  EXPECT_NEAR(report.transient.coa.back(), steady.coa, 1e-4);

  // The report's scalar COA is the window average, between the dip and the
  // steady value.
  EXPECT_GT(report.coa, 5.0 / 6.0);
  EXPECT_LT(report.coa, 1.0);
  EXPECT_NEAR(report.coa, report.transient.interval_coa(), 1e-12);
  EXPECT_NEAR(report.transient.accumulated_coa_hours,
              report.transient.interval_coa() * 1000.0, 1e-9);

  // Uniformization diagnostics are populated, and the upper-layer model size
  // is reported like the steady path reports its solve.
  EXPECT_GT(report.transient_diagnostics.uniformization_rate, 0.0);
  EXPECT_GT(report.transient_diagnostics.matvec_count, 0u);
  EXPECT_EQ(report.availability_diagnostics.tangible_states, 36u);
  EXPECT_GT(report.total_solver_iterations(), 0u);
}

TEST(TransientEngine, MatchesTheAvailLayerEngine) {
  // The facade must be a plumbing layer over avail::transient_coa_detailed,
  // not a second implementation.
  core::EngineOptions engine;
  engine.time_points = {0.0, 1.0, 8.0};
  engine.initial_down = {{ent::ServerRole::kWeb, 1}};
  const core::Session session(transient_scenario(engine));
  const core::EvalReport report = session.evaluate_transient(ent::example_network_design());

  av::TransientCoaOptions options;
  options.initial_down = engine.initial_down;
  const av::CoaCurveEvaluation direct = av::transient_coa_detailed(
      ent::example_network_design(), session.aggregated_rates(), engine.time_points, options);
  ASSERT_EQ(direct.curve.size(), report.transient.coa.size());
  for (std::size_t j = 0; j < direct.curve.size(); ++j) {
    EXPECT_NEAR(report.transient.coa[j], direct.curve[j].coa, 1e-12) << "j=" << j;
  }
  EXPECT_NEAR(report.transient.accumulated_coa_hours, direct.accumulated_coa_hours, 1e-12);
}

TEST(TransientEngine, SharesTheAggregationCacheWithTheSteadyPath) {
  // evaluate() then evaluate_transient() at the same cadence must reuse the
  // memoized per-(role, interval) aggregation: identical Table V diagnostics
  // objects (wall times are recorded at first computation, so a recompute
  // would almost surely differ), and aggregated_rates() stays stable.
  const core::Session session(transient_scenario());
  const core::EvalReport steady = session.evaluate(ent::example_network_design());
  const auto rates_before = session.aggregated_rates();
  const core::EvalReport transient = session.evaluate_transient(ent::example_network_design());
  for (const auto& [role, diag] : steady.aggregation_diagnostics) {
    const auto it = transient.aggregation_diagnostics.find(role);
    ASSERT_NE(it, transient.aggregation_diagnostics.end());
    EXPECT_EQ(diag.wall_time_seconds, it->second.wall_time_seconds);
    EXPECT_EQ(diag.solver_iterations, it->second.solver_iterations);
  }
  const auto& rates_after = session.aggregated_rates();
  for (const auto& [role, rate] : rates_before) {
    EXPECT_EQ(rate.mu_eq, rates_after.at(role).mu_eq);
  }
}

TEST(TransientEngine, ExplicitCadenceChangesTheCurve) {
  core::EngineOptions engine;
  engine.time_points = {0.0, 24.0, 5000.0};
  const core::Session session(transient_scenario(engine));
  // All-up start: the curve decays from 1 toward the cadence's steady state,
  // so a faster cadence must sit lower at the far point.
  const core::EvalReport monthly =
      session.evaluate_transient(ent::example_network_design(), 720.0);
  const core::EvalReport weekly =
      session.evaluate_transient(ent::example_network_design(), 168.0);
  EXPECT_NEAR(monthly.transient.coa.front(), 1.0, 1e-12);
  EXPECT_NEAR(weekly.transient.coa.front(), 1.0, 1e-12);
  EXPECT_LT(weekly.transient.coa.back(), monthly.transient.coa.back());
  EXPECT_EQ(monthly.patch_interval_hours, 720.0);
}

// ---------- batched evaluation ----------------------------------------------

TEST(TransientEngine, BatchedWavesMatchSequentialEvaluations) {
  // evaluate_transient_batch must reproduce per-wave evaluate_transient
  // curves while doing the matrix work ONCE: each wave rides one column of a
  // single panel solve, so every report sees the same sweep count and a
  // rhs_count equal to the wave count.
  core::EngineOptions engine;
  engine.time_points = {0.0, 0.5, 2.0, 12.0, 200.0};
  const std::vector<std::map<ent::ServerRole, unsigned>> waves = {
      {},  // all-up start
      {{ent::ServerRole::kApp, 1}},
      {{ent::ServerRole::kWeb, 1}, {ent::ServerRole::kApp, 1}},
      {{ent::ServerRole::kDb, 2}},
  };
  const core::Session session(transient_scenario(engine));
  const std::vector<core::EvalReport> batch =
      session.evaluate_transient_batch(ent::example_network_design(), waves);
  ASSERT_EQ(batch.size(), waves.size());

  for (std::size_t b = 0; b < waves.size(); ++b) {
    core::EngineOptions sequential = engine;
    sequential.initial_down = waves[b];
    const core::Session reference(transient_scenario(sequential));
    const core::EvalReport expected =
        reference.evaluate_transient(ent::example_network_design());
    ASSERT_EQ(batch[b].transient.coa.size(), expected.transient.coa.size());
    for (std::size_t j = 0; j < expected.transient.coa.size(); ++j) {
      EXPECT_NEAR(batch[b].transient.coa[j], expected.transient.coa[j], 1e-11)
          << "wave " << b << " point " << j;
    }
    EXPECT_NEAR(batch[b].transient.accumulated_coa_hours,
                expected.transient.accumulated_coa_hours, 1e-9);
    EXPECT_NEAR(batch[b].coa, expected.coa, 1e-11);
    // Shared-solve diagnostics: one sweep advances every wave.
    EXPECT_EQ(batch[b].transient_diagnostics.matvec_count,
              expected.transient_diagnostics.matvec_count);
    EXPECT_EQ(batch[b].transient_diagnostics.rhs_count, waves.size());
    EXPECT_FALSE(batch[b].transient_diagnostics.kernel.empty());
    EXPECT_TRUE(batch[b].converged());
  }

  EXPECT_THROW((void)session.evaluate_transient_batch(ent::example_network_design(), {}),
               std::invalid_argument);
}

TEST(TransientEngine, SingleEvaluationIsTheOneWaveBatch) {
  // evaluate_transient solves the width-1 panel, so on the same Session it
  // must equal the one-wave batch bit for bit.
  core::EngineOptions engine;
  engine.time_points = {0.0, 0.5, 2.0, 12.0, 200.0};
  engine.initial_down = {{ent::ServerRole::kWeb, 1}, {ent::ServerRole::kDb, 1}};
  const core::Session session(transient_scenario(engine));
  for (const ent::RedundancyDesign& design :
       {ent::example_network_design(), ent::RedundancyDesign{{2, 2, 2, 2}}}) {
    const core::EvalReport single = session.evaluate_transient(design);
    const core::EvalReport batch =
        session.evaluate_transient_batch(design, {engine.initial_down}).front();
    EXPECT_EQ(single.transient.coa, batch.transient.coa);  // bitwise
    EXPECT_EQ(single.transient.accumulated_coa_hours, batch.transient.accumulated_coa_hours);
  }
}

TEST(TransientEngine, BatchFallsBackSequentiallyUnderLumping) {
  // The lumped engine is a closed form with no panel mode; the batch
  // contract degenerates to per-wave evaluation and must match it exactly
  // (same code path).
  core::EngineOptions engine;
  engine.time_points = {0.0, 1.0, 24.0};
  engine.lumping = true;
  const std::vector<std::map<ent::ServerRole, unsigned>> waves = {
      {{ent::ServerRole::kApp, 1}},
      {{ent::ServerRole::kWeb, 1}},
  };
  const core::Session session(transient_scenario(engine));
  const std::vector<core::EvalReport> batch =
      session.evaluate_transient_batch(ent::example_network_design(), waves);
  ASSERT_EQ(batch.size(), waves.size());
  for (std::size_t b = 0; b < waves.size(); ++b) {
    core::EngineOptions sequential = engine;
    sequential.initial_down = waves[b];
    const core::Session reference(transient_scenario(sequential));
    const core::EvalReport expected =
        reference.evaluate_transient(ent::example_network_design());
    ASSERT_EQ(batch[b].transient.coa.size(), expected.transient.coa.size());
    for (std::size_t j = 0; j < expected.transient.coa.size(); ++j) {
      EXPECT_DOUBLE_EQ(batch[b].transient.coa[j], expected.transient.coa[j]);
    }
    // Neither a panel nor a single-vector uniformization ran.
    EXPECT_EQ(batch[b].transient_diagnostics.rhs_count, 0u);
    EXPECT_EQ(batch[b].transient_diagnostics.matvec_count, 0u);
  }
}

// ---------- Monte-Carlo oracle ------------------------------------------------

TEST(TransientEngine, SimulatedCurveAgreesWithTheSessionCurve) {
  core::EngineOptions engine;
  engine.time_points = {0.0, 0.5, 1.0, 2.0, 6.0, 24.0};
  engine.initial_down = {{ent::ServerRole::kApp, 1}, {ent::ServerRole::kWeb, 1}};
  const core::Session session(transient_scenario(engine));
  const core::EvalReport analytic = session.evaluate_transient(ent::example_network_design());

  // The oracle runs the same network net from the same patch-window marking.
  const av::NetworkSrn net =
      av::build_network_srn(ent::example_network_design(), session.aggregated_rates());
  const patchsec::petri::Marking start = av::patch_window_marking(net, engine.initial_down);
  sim::SimulationOptions options;
  options.seed = 20170626;
  options.replications = 768;
  const sim::TransientCurveEstimate simulated = sim::SrnSimulator(net.model).transient_reward_curve(
      net.coa_reward(), engine.time_points, options, &start);
  ASSERT_EQ(simulated.mean.size(), 6u);
  ASSERT_EQ(simulated.half_width_95.size(), 6u);
  EXPECT_EQ(simulated.diagnostics.replications, 768u);
  EXPECT_GT(simulated.diagnostics.events_fired, 0u);

  // t = 0 is deterministic on both sides: two servers of six down (the
  // half width is round-off dust — every replication recorded 4/6).
  EXPECT_NEAR(simulated.mean[0], 4.0 / 6.0, 1e-12);
  EXPECT_LT(simulated.half_width_95[0], 1e-12);

  // The committed seed agrees curve-wide at the default band; the scalar
  // (interval) COA agrees through the steady-state check.
  EXPECT_TRUE(tg::transient_agrees_with(simulated, analytic.transient, 1.96));
  EXPECT_TRUE(tg::agrees_with({simulated.interval_mean, simulated.interval_half_width_95},
                              {analytic.coa}, 1.96));
  EXPECT_GT(simulated.interval_half_width_95, 0.0);
}

// ---------- report payload ---------------------------------------------------

TEST(TransientEngine, JsonCarriesTheCurvePayload) {
  core::EngineOptions engine;
  engine.time_points = {0.0, 2.0, 24.0};
  engine.initial_down = {{ent::ServerRole::kApp, 1}};
  const core::Session session(transient_scenario(engine));
  const core::EvalReport report = session.evaluate_transient(ent::example_network_design());

  std::ostringstream out;
  core::write_json(out, std::vector<core::EvalReport>{report});
  const std::string json = out.str();
  EXPECT_NE(json.find("\"transient\""), std::string::npos);
  EXPECT_NE(json.find("\"time_points_hours\":[0,2,24]"), std::string::npos);
  EXPECT_NE(json.find("\"accumulated_coa_hours\""), std::string::npos);
  EXPECT_NE(json.find("\"interval_coa\""), std::string::npos);
  EXPECT_NE(json.find("\"uniformization\""), std::string::npos);
  EXPECT_NE(json.find("\"rhs\":1"), std::string::npos);
  EXPECT_NE(json.find("\"kernel\":\""), std::string::npos);

  // Steady-state reports must NOT grow a transient block.
  std::ostringstream steady_out;
  core::write_json(steady_out,
                   std::vector<core::EvalReport>{session.evaluate(ent::example_network_design())});
  EXPECT_EQ(steady_out.str().find("\"transient\""), std::string::npos);
}
