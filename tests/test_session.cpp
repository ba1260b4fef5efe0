// Tests for the Scenario/Session evaluation API: builder defaults and
// validation, end-to-end EngineOptions plumbing (observable as
// iteration-count changes reported from linalg::solve_steady_state), solver
// diagnostics in EvalReport, schedule sweeps and parallel batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "patchsec/core/campaign.hpp"
#include "patchsec/core/report.hpp"
#include "patchsec/core/sensitivity.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/enterprise/network.hpp"

namespace core = patchsec::core;
namespace ent = patchsec::enterprise;
namespace linalg = patchsec::linalg;
namespace avail = patchsec::avail;
namespace petri = patchsec::petri;

// ---------- Scenario builder ----------------------------------------------------

TEST(Scenario, DefaultsMatchThePaperConventions) {
  const core::Scenario s;
  EXPECT_TRUE(s.specs().empty());
  EXPECT_TRUE(s.designs().empty());
  ASSERT_EQ(s.patch_intervals().size(), 1u);
  EXPECT_DOUBLE_EQ(s.patch_interval_hours(), 720.0);  // monthly
  EXPECT_FALSE(s.engine().parallel);
  EXPECT_FALSE(s.engine().throw_on_divergence);
  EXPECT_EQ(s.engine().steady_state.method, linalg::SteadyStateMethod::kAuto);
}

TEST(Scenario, PaperCaseStudyCarriesTheFullCaseStudy) {
  const core::Scenario s = core::Scenario::paper_case_study();
  EXPECT_EQ(s.specs().size(), 4u);
  EXPECT_EQ(s.designs().size(), 5u);  // the five Sec. IV candidates
  EXPECT_DOUBLE_EQ(s.patch_interval_hours(), 720.0);
  EXPECT_NO_THROW(s.validate());
}

TEST(Scenario, BuilderIsFluentAndValueLike) {
  core::Scenario a = core::Scenario::paper_case_study().with_patch_interval(168.0);
  const core::Scenario b = a;  // plain value: copies are independent
  a.with_patch_interval(24.0);
  EXPECT_DOUBLE_EQ(a.patch_interval_hours(), 24.0);
  EXPECT_DOUBLE_EQ(b.patch_interval_hours(), 168.0);
}

TEST(Scenario, ValidationRejectsEmptySpecs) {
  EXPECT_THROW(core::Scenario().validate(), std::invalid_argument);
  EXPECT_THROW(core::Session{core::Scenario()}, std::invalid_argument);
}

TEST(Scenario, EmptyScheduleAccessorThrowsInsteadOfUb) {
  const core::Scenario s = core::Scenario::paper_case_study().with_patch_schedule({});
  EXPECT_THROW((void)s.patch_interval_hours(), std::logic_error);
}

TEST(Scenario, ValidationRejectsBadSchedules) {
  EXPECT_THROW(core::Scenario::paper_case_study().with_patch_schedule({}).validate(),
               std::invalid_argument);
  EXPECT_THROW(core::Scenario::paper_case_study().with_patch_interval(0.0).validate(),
               std::invalid_argument);
  EXPECT_THROW(core::Scenario::paper_case_study().with_patch_schedule({720.0, -1.0}).validate(),
               std::invalid_argument);
}

TEST(Scenario, ValidationRejectsDesignsWithoutSpecs) {
  // A design deploying a WEB tier while only a DB spec exists.
  core::Scenario s = core::Scenario()
                         .with_spec(ent::ServerRole::kDb,
                                    ent::paper_server_specs().at(ent::ServerRole::kDb))
                         .with_design(ent::RedundancyDesign{{0, 1, 0, 1}});
  EXPECT_THROW(s.validate(), std::invalid_argument);

  EXPECT_THROW(
      core::Scenario::paper_case_study().with_design(ent::RedundancyDesign{{0, 0, 0, 0}}).validate(),
      std::invalid_argument);
}

// ---------- EngineOptions plumbing ----------------------------------------------

TEST(EngineOptions, ToleranceReachesTheSteadyStateSolver) {
  // A looser tolerance must stop the (identical) Gauss-Seidel iteration
  // earlier: the reported iteration counts prove the options reach
  // linalg::solve_steady_state through core -> avail -> petri -> ctmc.
  core::EngineOptions tight;
  tight.steady_state.method = linalg::SteadyStateMethod::kGaussSeidel;
  tight.steady_state.tolerance = 1e-12;
  core::EngineOptions loose = tight;
  loose.steady_state.tolerance = 1e-6;

  const core::Session tight_session(core::Scenario::paper_case_study().with_engine(tight));
  const core::Session loose_session(core::Scenario::paper_case_study().with_engine(loose));

  const core::EvalReport a = tight_session.evaluate(ent::example_network_design());
  const core::EvalReport b = loose_session.evaluate(ent::example_network_design());
  EXPECT_TRUE(a.converged());
  EXPECT_TRUE(b.converged());
  EXPECT_LT(b.availability_diagnostics.solver_iterations,
            a.availability_diagnostics.solver_iterations);
  // The lower layer sees the options too.
  for (const auto& [role, diag] : b.aggregation_diagnostics) {
    EXPECT_LT(diag.solver_iterations,
              a.aggregation_diagnostics.at(role).solver_iterations)
        << ent::to_string(role);
  }
  // Both tolerances still reproduce the paper's COA.
  EXPECT_NEAR(a.coa, 0.99707, 5e-6);
  EXPECT_NEAR(b.coa, 0.99707, 1e-3);
}

TEST(EngineOptions, MethodSelectionReachesTheSteadyStateSolver) {
  // Power iteration on these stiff generators needs far more iterations than
  // Gauss-Seidel; observing that difference proves method selection lands.
  core::EngineOptions gauss;
  gauss.steady_state.method = linalg::SteadyStateMethod::kGaussSeidel;
  core::EngineOptions power;
  power.steady_state.method = linalg::SteadyStateMethod::kPower;
  power.steady_state.tolerance = 1e-8;  // keep the power run bounded

  const core::Session gauss_session(core::Scenario::paper_case_study().with_engine(gauss));
  const core::Session power_session(core::Scenario::paper_case_study().with_engine(power));

  const auto g = gauss_session.evaluate(ent::example_network_design());
  const auto p = power_session.evaluate(ent::example_network_design());
  EXPECT_GT(p.total_solver_iterations(), g.total_solver_iterations());
}

TEST(EngineOptions, ReachabilityLimitsReachTheExplorer) {
  core::EngineOptions engine;
  engine.reachability.max_tangible_markings = 2;  // absurdly small
  const core::Session session(core::Scenario::paper_case_study().with_engine(engine));
  EXPECT_THROW((void)session.evaluate(ent::example_network_design()), std::runtime_error);
}

TEST(EngineOptions, DivergenceIsSurfacedNotThrownByDefault) {
  // Starve the solver: one iteration cannot converge, yet evaluation
  // succeeds and the report says so (the SrnAnalyzer bugfix surfaced).
  core::EngineOptions starved;
  starved.steady_state.max_iterations = 1;
  const core::Session session(core::Scenario::paper_case_study().with_engine(starved));
  const core::EvalReport report = session.evaluate(ent::example_network_design());
  EXPECT_FALSE(report.converged());
  EXPECT_FALSE(report.availability_diagnostics.converged);
  EXPECT_GT(report.availability_diagnostics.residual, 0.0);
}

TEST(EngineOptions, DivergenceThrowsWhenAskedTo) {
  core::EngineOptions strict;
  strict.steady_state.max_iterations = 1;
  strict.throw_on_divergence = true;
  const core::Session session(core::Scenario::paper_case_study().with_engine(strict));
  EXPECT_THROW((void)session.evaluate(ent::example_network_design()), std::runtime_error);
}

TEST(EngineOptions, NonFiniteTransientWindowIsRejected) {
  // NaN slips past every ordered comparison and +inf past `> 0`.  Unchecked,
  // either one reaches the solver and comes back as coa(t) = 0.
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    SCOPED_TRACE(bad);
    for (const std::vector<double>& grid : {std::vector<double>{0.0, bad, 2.0},
                                            std::vector<double>{0.0, 1.0, bad}}) {
      core::EngineOptions engine;
      engine.time_points = grid;
      EXPECT_THROW((void)engine.transient_grid(), std::invalid_argument);
      const core::Session session(core::Scenario::paper_case_study().with_engine(engine));
      EXPECT_THROW((void)session.evaluate_transient(ent::example_network_design()),
                   std::invalid_argument);
      EXPECT_THROW((void)session.evaluate_transient_batch(
                       ent::example_network_design(), {{{ent::ServerRole::kApp, 1u}}}),
                   std::invalid_argument);
    }
    core::EngineOptions engine;
    engine.horizon_hours = bad;
    EXPECT_THROW((void)engine.transient_grid(), std::invalid_argument);
    const core::Session session(core::Scenario::paper_case_study().with_engine(engine));
    EXPECT_THROW((void)session.evaluate_transient(ent::example_network_design()),
                 std::invalid_argument);
  }
}

// ---------- EvalReport diagnostics ----------------------------------------------

TEST(EvalReport, CarriesNonTrivialDiagnostics) {
  const core::Session session(core::Scenario::paper_case_study());
  const core::EvalReport r = session.evaluate(ent::example_network_design());

  EXPECT_TRUE(r.converged());
  // Upper layer: (1+1)(2+1)(2+1)(1+1) = 36 tangible states for 1/2/2/1.
  EXPECT_EQ(r.availability_diagnostics.tangible_states, 36u);
  EXPECT_GT(r.availability_diagnostics.transitions, 0u);
  EXPECT_GT(r.availability_diagnostics.solver_iterations, 0u);
  EXPECT_LT(r.availability_diagnostics.residual, 1e-6);
  EXPECT_GE(r.wall_time_seconds, 0.0);

  // Lower layer: one diagnostics entry per spec'd role, each a real solve.
  ASSERT_EQ(r.aggregation_diagnostics.size(), 4u);
  for (const auto& [role, diag] : r.aggregation_diagnostics) {
    EXPECT_GT(diag.tangible_states, 1u) << ent::to_string(role);
    EXPECT_GT(diag.solver_iterations, 0u) << ent::to_string(role);
    EXPECT_TRUE(diag.converged) << ent::to_string(role);
  }
  EXPECT_GT(r.total_solver_iterations(), r.availability_diagnostics.solver_iterations);

  // Uniform k-per-tier designs up to the 2,401-state k = 6 upper layer
  // converge and solve the full (k+1)^4 product space.
  for (const unsigned k : {2u, 4u, 6u}) {
    const core::EvalReport uniform = session.evaluate(ent::RedundancyDesign{{k, k, k, k}});
    const std::size_t side = k + 1;
    EXPECT_TRUE(uniform.converged()) << "k=" << k;
    EXPECT_EQ(uniform.availability_diagnostics.tangible_states, side * side * side * side)
        << "k=" << k;
  }
}

TEST(Session, ExplicitCadenceMustBePositive) {
  // The memoization cache is keyed by double: NaN or non-positive keys must
  // be rejected up front (NaN would silently alias an arbitrary cache entry).
  const core::Session session(core::Scenario::paper_case_study());
  EXPECT_THROW((void)session.aggregated_rates(0.0), std::invalid_argument);
  EXPECT_THROW((void)session.aggregated_rates(-720.0), std::invalid_argument);
  EXPECT_THROW((void)session.evaluate(ent::example_network_design(), std::nan("")),
               std::invalid_argument);
}

TEST(Session, MemoizesAggregationsPerRoleAndInterval) {
  const core::Session session(core::Scenario::paper_case_study());
  const auto& first = session.aggregated_rates(720.0);
  const auto& second = session.aggregated_rates(720.0);
  EXPECT_EQ(&first, &second);  // same cached object
  const auto& weekly = session.aggregated_rates(168.0);
  EXPECT_NE(&first, &weekly);
  // Faster cadence -> higher equivalent patch rate.
  EXPECT_GT(weekly.at(ent::ServerRole::kApp).lambda_eq,
            first.at(ent::ServerRole::kApp).lambda_eq);
}

TEST(Session, ScheduleSweepOrdersScheduleMajor) {
  const core::Scenario scenario = core::Scenario::paper_case_study()
                                      .with_designs({ent::RedundancyDesign{{1, 1, 1, 1}},
                                                     ent::RedundancyDesign{{1, 1, 2, 1}}})
                                      .with_patch_schedule({720.0, 168.0});
  const core::Session session(scenario);
  const auto reports = session.evaluate_all();
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_DOUBLE_EQ(reports[0].patch_interval_hours, 720.0);
  EXPECT_DOUBLE_EQ(reports[1].patch_interval_hours, 720.0);
  EXPECT_DOUBLE_EQ(reports[2].patch_interval_hours, 168.0);
  EXPECT_DOUBLE_EQ(reports[3].patch_interval_hours, 168.0);
  // Monthly beats weekly on COA for the same design.
  EXPECT_GT(reports[0].coa, reports[2].coa);
  EXPECT_GT(reports[1].coa, reports[3].coa);
}

TEST(Session, ParallelBatchMatchesSerialBatch) {
  core::EngineOptions parallel;
  parallel.parallel = true;
  parallel.threads = 4;
  const core::Session serial(core::Scenario::paper_case_study());
  const core::Session threaded(core::Scenario::paper_case_study().with_engine(parallel));

  const auto a = serial.evaluate_all();
  const auto b = threaded.evaluate_all();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].design, b[i].design);
    EXPECT_DOUBLE_EQ(a[i].coa, b[i].coa);
    EXPECT_DOUBLE_EQ(a[i].after_patch.attack_success_probability,
                     b[i].after_patch.attack_success_probability);
  }
}

TEST(Session, ParallelScheduleSweepMatchesSerial) {
  // Multi-cadence + parallel exercises the per-design tasks (every design
  // appears in six jobs, which one worker runs in a row).
  core::EngineOptions parallel;
  parallel.parallel = true;
  parallel.threads = 4;
  const core::Scenario base = core::Scenario::paper_case_study().with_patch_schedule(
      {720.0, 168.0, 336.0, 504.0, 1440.0, 2160.0});
  const core::Session serial(base);
  const core::Session threaded(core::Scenario(base).with_engine(parallel));

  const auto a = serial.evaluate_all();
  const auto b = threaded.evaluate_all();
  ASSERT_EQ(a.size(), 30u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].design, b[i].design);
    EXPECT_DOUBLE_EQ(a[i].patch_interval_hours, b[i].patch_interval_hours);
    EXPECT_DOUBLE_EQ(a[i].coa, b[i].coa);
    EXPECT_TRUE(a[i].converged()) << i;
    EXPECT_TRUE(b[i].converged()) << i;
  }
}

// ---------- exploration reuse ---------------------------------------------------

namespace {

bool rerate_same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// The sweep of the paper's Fig. 6 / Table VI planning question: the five
/// paper designs plus three placements of the tiers {3, 4, 5, 6}, at six
/// cadences.
core::Scenario six_cadence_sweep() {
  std::vector<ent::RedundancyDesign> designs = ent::paper_designs();
  designs.push_back(ent::RedundancyDesign{{3, 4, 5, 6}});
  designs.push_back(ent::RedundancyDesign{{6, 3, 4, 5}});
  designs.push_back(ent::RedundancyDesign{{5, 6, 3, 4}});
  return core::Scenario::paper_case_study().with_designs(designs).with_patch_schedule(
      {168.0, 336.0, 504.0, 720.0, 1080.0, 1440.0});
}

/// COA, cadence and every solve diagnostic but wall time, bit for bit.
bool same_cell(const core::EvalReport& a, const core::EvalReport& b) {
  const petri::SolveDiagnostics& da = a.availability_diagnostics;
  const petri::SolveDiagnostics& db = b.availability_diagnostics;
  if (!(a.design == b.design) || !rerate_same_bits(a.coa, b.coa) ||
      !rerate_same_bits(a.patch_interval_hours, b.patch_interval_hours) ||
      da.tangible_states != db.tangible_states || da.transitions != db.transitions ||
      da.solver_iterations != db.solver_iterations || !rerate_same_bits(da.residual, db.residual) ||
      a.aggregation_diagnostics.size() != b.aggregation_diagnostics.size()) {
    return false;
  }
  for (const auto& [role, d] : a.aggregation_diagnostics) {
    const petri::SolveDiagnostics& other = b.aggregation_diagnostics.at(role);
    if (d.tangible_states != other.tangible_states || d.transitions != other.transitions ||
        d.solver_iterations != other.solver_iterations ||
        !rerate_same_bits(d.residual, other.residual)) {
      return false;
    }
  }
  return true;
}

}  // namespace

TEST(SessionRerate, ASixCadenceSweepExploresEachRoleAndEachDesignOnce) {
  const core::Scenario scenario = six_cadence_sweep();
  const core::Session session(scenario);
  const std::vector<core::EvalReport> reports = session.evaluate_all();
  ASSERT_EQ(reports.size(), 48u);
  const core::Session::WorkspaceCounters counters = session.workspace_counters();
  EXPECT_EQ(counters.server_explorations, scenario.specs().size());
  EXPECT_EQ(counters.server_rerates, scenario.specs().size() * 5);
  EXPECT_EQ(counters.network_explorations, 8u);
  EXPECT_EQ(counters.network_rerates, 40u);
  // The eight designs have eight network structures: one transpose build
  // each, and every re-rated cell shares its exploration's structure, so
  // none needs a content compare.
  EXPECT_EQ(counters.availability_solves, 48u);
  EXPECT_EQ(counters.availability_transpose_rebuilds, 8u);
  EXPECT_EQ(counters.availability_identity_reuses, 40u);
  EXPECT_EQ(counters.availability_content_reuses, 0u);
  // The four roles' server nets share one structure but are explored apart,
  // and each server solve follows another role's: one build, then content
  // compares.
  EXPECT_EQ(counters.aggregation_solves, 24u);
  EXPECT_EQ(counters.aggregation_transpose_rebuilds, 1u);
  EXPECT_EQ(counters.aggregation_identity_reuses, 0u);
  EXPECT_EQ(counters.aggregation_content_reuses, 23u);
  // Rates change no verification finding: each role's server net and each
  // design's network net is verified once (4 + 8), not once per cell
  // (24 + 48).  The four server nets share one structure certificate.
  EXPECT_EQ(counters.verify_structure_builds + counters.verify_structure_reuses,
            scenario.specs().size() + 8u);
  EXPECT_EQ(counters.verify_structure_builds, 1u + 8u);

  // Every re-rated cell is what a fresh Session, which explores both layers
  // at that cadence, reports.
  for (const core::EvalReport& report : reports) {
    const core::Session fresh(scenario);
    EXPECT_TRUE(same_cell(report, fresh.evaluate(report.design, report.patch_interval_hours)))
        << report.design.name() << " at " << report.patch_interval_hours << " h";
    EXPECT_EQ(fresh.workspace_counters().server_rerates, 0u);
    EXPECT_EQ(fresh.workspace_counters().network_rerates, 0u);
  }

  // A batch explores each distinct design once, however often it repeats.
  const core::Session repeated(scenario);
  const ent::RedundancyDesign a{{1, 1, 1, 1}};
  const ent::RedundancyDesign b{{3, 4, 5, 6}};
  const std::vector<core::EvalReport> cells = repeated.evaluate_all({a, b, a, b, a}, 720.0);
  EXPECT_EQ(repeated.workspace_counters().network_explorations, 2u);
  EXPECT_EQ(repeated.workspace_counters().network_rerates, 3u);
  EXPECT_TRUE(same_cell(cells[0], cells[4]));
  EXPECT_TRUE(same_cell(cells[1], cells[3]));
}

TEST(SessionRerate, ParallelSweepIsBitIdenticalToTheSerialSweep) {
  // Runs under TSan: the server explorations are shared by every worker,
  // and each design's network exploration crosses its task's cells.
  core::EngineOptions parallel;
  parallel.parallel = true;
  parallel.threads = 4;
  const core::Scenario scenario = six_cadence_sweep();
  const core::Session serial(scenario);
  const core::Session threaded(core::Scenario(scenario).with_engine(parallel));
  const std::vector<core::EvalReport> a = serial.evaluate_all();
  const std::vector<core::EvalReport> b = threaded.evaluate_all();
  ASSERT_EQ(a.size(), 48u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(same_cell(a[i], b[i])) << i;
  for (const double cadence : scenario.patch_intervals()) {
    for (const auto& [role, rates] : serial.aggregated_rates(cadence)) {
      const avail::AggregatedRates& other = threaded.aggregated_rates(cadence).at(role);
      EXPECT_TRUE(rerate_same_bits(rates.mu_eq, other.mu_eq)) << cadence;
      EXPECT_TRUE(rerate_same_bits(rates.p_patch_down, other.p_patch_down)) << cadence;
    }
  }
  const core::Session::WorkspaceCounters counters = threaded.workspace_counters();
  EXPECT_EQ(counters.server_explorations, scenario.specs().size());
  EXPECT_EQ(counters.network_explorations, 8u);
  EXPECT_EQ(counters.network_rerates, 40u);
}

// ---------- shared verification stages ------------------------------------------

TEST(SessionSharing, EveryReportSharesOneServerStagePerRole) {
  // Parallel over two cadences: the stage objects cross worker threads.
  // Rates change no finding, so each role's server net is verified once
  // for both cadences, and each design's network net once for its batch.
  core::EngineOptions parallel;
  parallel.parallel = true;
  parallel.threads = 4;
  const core::Session session(core::Scenario::paper_case_study()
                                  .with_patch_schedule({720.0, 168.0})
                                  .with_engine(parallel));
  const std::size_t servers = session.scenario().specs().size();
  const auto reports = session.evaluate_all();
  ASSERT_EQ(reports.size(), 2 * session.scenario().designs().size());

  std::map<std::array<unsigned, ent::kRoleCount>, const patchsec::petri::VerifyReport*>
      network_stages;
  std::set<const patchsec::petri::VerifyReport*> distinct_networks;
  std::set<double> cadences;
  for (const core::EvalReport& report : reports) {
    ASSERT_EQ(report.verification.size(), servers + 1);
    for (const core::StageVerification& stage : report.verification) {
      ASSERT_NE(stage.report, nullptr) << stage.stage;
    }
    cadences.insert(report.patch_interval_hours);
    for (std::size_t s = 0; s < servers; ++s) {
      EXPECT_EQ(report.verification[s].report.get(), reports[0].verification[s].report.get())
          << report.verification[s].stage;
    }
    // The network stage is one object per design.
    const patchsec::petri::VerifyReport* network = report.verification.back().report.get();
    EXPECT_EQ(network_stages.try_emplace(report.design.counts, network).first->second, network)
        << report.design.name();
    distinct_networks.insert(network);
  }
  EXPECT_EQ(cadences.size(), 2u);
  EXPECT_EQ(distinct_networks.size(), session.scenario().designs().size());
}

TEST(SessionSharing, ParallelLumpedGridIsBitIdenticalToTheSerialGrid) {
  // The game's grid: lumped uniform designs k = 2..12 under 4 cadences.
  // Runs under ASan and TSan: every worker thread shares the role nets and
  // the per-design counting-net stages.
  std::vector<ent::RedundancyDesign> designs;
  for (unsigned k = 2; k <= 12; k += 2) designs.push_back(ent::RedundancyDesign{{k, k, k, k}});
  core::EngineOptions engine;
  engine.lumping = true;
  engine.parallel = false;
  const core::Scenario scenario = core::Scenario::paper_case_study()
                                      .with_designs(designs)
                                      .with_patch_schedule({168.0, 336.0, 720.0, 1440.0})
                                      .with_engine(engine);
  core::EngineOptions threads = engine;
  threads.parallel = true;
  threads.threads = 4;
  const core::Session serial(scenario);
  const core::Session threaded(core::Scenario(scenario).with_engine(threads));
  const std::vector<core::EvalReport> a = serial.evaluate_all();
  const std::vector<core::EvalReport> b = threaded.evaluate_all();
  ASSERT_EQ(a.size(), 24u);
  ASSERT_EQ(b.size(), a.size());
  std::map<std::array<unsigned, ent::kRoleCount>, const patchsec::petri::VerifyReport*> stages;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_cell(a[i], b[i])) << i;
    ASSERT_EQ(b[i].verification.size(), a[i].verification.size());
    for (std::size_t s = 0; s + 1 < b[i].verification.size(); ++s) {
      EXPECT_EQ(b[i].verification[s].report.get(), b[0].verification[s].report.get()) << i;
    }
    const patchsec::petri::VerifyReport* network = b[i].verification.back().report.get();
    EXPECT_EQ(stages.try_emplace(b[i].design.counts, network).first->second, network) << i;
  }
  for (const core::Session* session : {&serial, &threaded}) {
    const core::Session::WorkspaceCounters counters = session->workspace_counters();
    EXPECT_EQ(counters.verify_structure_builds + counters.verify_structure_reuses,
              scenario.specs().size() + designs.size());
  }
}

TEST(SessionSharing, TransientBatchShellsShareOneStageSet) {
  const std::vector<std::map<ent::ServerRole, unsigned>> waves = {
      {}, {{ent::ServerRole::kWeb, 1u}}, {{ent::ServerRole::kDb, 1u}}};
  for (const bool lumping : {false, true}) {
    core::EngineOptions engine;
    engine.lumping = lumping;
    const core::Session session(core::Scenario::paper_case_study().with_engine(engine));
    const ent::RedundancyDesign design = ent::example_network_design();
    const auto reports = session.evaluate_transient_batch(design, waves);
    ASSERT_EQ(reports.size(), waves.size());
    const core::EvalReport steady = session.evaluate(design);
    const std::size_t servers = session.scenario().specs().size();
    ASSERT_EQ(steady.verification.size(), servers + 1);
    for (const core::EvalReport& report : reports) {
      ASSERT_EQ(report.verification.size(), servers + 1) << lumping;
      for (std::size_t s = 0; s <= servers; ++s) {
        EXPECT_EQ(report.verification[s].report.get(), reports[0].verification[s].report.get())
            << lumping << " " << report.verification[s].stage;
      }
      // Same cadence as the steady report: the same server-stage objects.
      for (std::size_t s = 0; s < servers; ++s) {
        EXPECT_EQ(report.verification[s].report.get(), steady.verification[s].report.get())
            << lumping;
      }
    }
  }
}

// ---------- satellite APIs on top of the Session --------------------------------

TEST(Report, EvalReportJsonCarriesDiagnostics) {
  const core::Session session(core::Scenario::paper_case_study());
  const auto reports = session.evaluate_all();
  std::ostringstream out;
  core::write_json(out, reports);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"patch_interval_hours\":720"), std::string::npos);
  EXPECT_NE(json.find("\"diagnostics\":{\"converged\":true"), std::string::npos);
  EXPECT_NE(json.find("\"availability\":"), std::string::npos);
  EXPECT_NE(json.find("\"aggregation\":{\"DNS\":"), std::string::npos);
  EXPECT_NE(json.find("\"iterations\":"), std::string::npos);
  EXPECT_NE(json.find("\"residual\":"), std::string::npos);
  // Structurally balanced.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['), std::count(json.begin(), json.end(), ']'));
}

TEST(SessionOverloads, SensitivityMatchesLegacyForm) {
  const core::Session session(core::Scenario::paper_case_study());
  const auto via_session = core::coa_sensitivity(session, ent::example_network_design());
  const auto legacy =
      core::coa_sensitivity(ent::example_network_design(), session.aggregated_rates());
  ASSERT_EQ(via_session.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(via_session[i].parameter, legacy[i].parameter);
    EXPECT_DOUBLE_EQ(via_session[i].base_value, legacy[i].base_value);
    EXPECT_DOUBLE_EQ(via_session[i].elasticity, legacy[i].elasticity);
  }
}

TEST(SessionOverloads, CampaignMatchesLegacyForm) {
  const core::Session session(core::Scenario::paper_case_study());
  const auto stages = core::severity_banded_campaign();
  const auto via_session = core::evaluate_campaign(session, ent::example_network_design(), stages);
  const auto legacy =
      core::evaluate_campaign(ent::example_network_design(), ent::paper_server_specs(),
                              ent::ReachabilityPolicy::three_tier(), stages);
  ASSERT_EQ(via_session.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(via_session[i].stage, legacy[i].stage);
    EXPECT_EQ(via_session[i].vulnerabilities_patched, legacy[i].vulnerabilities_patched);
    EXPECT_DOUBLE_EQ(via_session[i].coa, legacy[i].coa);
    EXPECT_DOUBLE_EQ(via_session[i].security.attack_success_probability,
                     legacy[i].security.attack_success_probability);
  }
}

TEST(SessionOverloads, EscalateStarvedSolvesInsteadOfUsingThem) {
  // Campaign stages and elasticities carry no diagnostics, so under a
  // starved solver their Session overloads must throw even though the
  // session itself is configured to surface divergence quietly.
  core::EngineOptions starved;
  starved.steady_state.max_iterations = 1;
  const core::Session session(core::Scenario::paper_case_study().with_engine(starved));
  EXPECT_THROW((void)core::coa_sensitivity(session, ent::example_network_design()),
               std::runtime_error);
  EXPECT_THROW((void)core::evaluate_campaign(session, ent::example_network_design(),
                                             core::severity_banded_campaign()),
               std::runtime_error);
}

// ---------- memoization audit (what a Session caches) -----------------------

// The Session caches are keyed per (role, patch-interval) for Table V
// aggregations and per design-counts for HARM metrics — deliberately WITHOUT
// the engine options in the key.  That is sound because a Session's
// EngineOptions are immutable after construction (the Scenario is copied
// in), and nothing COA-valued is cached at all: every evaluation solves its
// upper layer again from the cached inputs.  This suite is the regression
// guard on that audit: if someone starts caching per-evaluation results, or
// lets a Session's engine mutate, the assertions below catch the aliasing.
TEST(SessionMemoizationAudit, RepeatedEvaluationsSolveAgainFromCachedInputs) {
  const core::Session analytic(core::Scenario::paper_case_study());
  const core::EvalReport a1 = analytic.evaluate(ent::example_network_design());
  const core::EvalReport a2 = analytic.evaluate(ent::example_network_design());

  // Deterministic COA from a real upper-layer solve, each time.
  EXPECT_DOUBLE_EQ(a1.coa, a2.coa);
  EXPECT_GT(a1.availability_diagnostics.tangible_states, 0u);
  EXPECT_GT(a2.availability_diagnostics.tangible_states, 0u);
}

TEST(SessionMemoizationAudit, TransientAndSteadyShareOnlyTheAggregationCache) {
  // Same invariant on the evaluate_transient path: the transient curve is
  // computed fresh per call (only aggregations are memoized), so a steady
  // evaluation on the same Session carries no curve and no uniformization.
  core::EngineOptions transient_analytic;
  transient_analytic.time_points = {0.0, 2.0, 12.0};

  const core::Session analytic(core::Scenario::paper_case_study().with_engine(transient_analytic));
  const core::EvalReport a = analytic.evaluate_transient(ent::example_network_design());
  const core::EvalReport s = analytic.evaluate(ent::example_network_design());

  EXPECT_EQ(a.transient.coa.size(), 3u);
  EXPECT_GT(a.transient_diagnostics.matvec_count, 0u);
  EXPECT_TRUE(s.transient.empty());
  EXPECT_EQ(s.transient_diagnostics.matvec_count, 0u);
}

TEST(SessionMemoizationAudit, LumpedAndFlatSessionsStayEngineTrue) {
  // EngineOptions::lumping participates in per-session state: interleaved
  // lumped and flat sessions must each report their own engine's
  // diagnostics (the closed form's tangible/flat_states split vs the
  // ordinary flat solve) while sharing only the engine-independent
  // lower-layer aggregation — and their COAs must agree
  // to solver tolerance, because the lumping is exact.
  core::EngineOptions lumped_engine;
  lumped_engine.lumping = true;

  const core::Session flat(core::Scenario::paper_case_study());
  const core::Session lumped(core::Scenario::paper_case_study().with_engine(lumped_engine));

  const core::EvalReport l1 = lumped.evaluate(ent::example_network_design());
  const core::EvalReport f1 = flat.evaluate(ent::example_network_design());
  const core::EvalReport l2 = lumped.evaluate(ent::example_network_design());
  const core::EvalReport f2 = flat.evaluate(ent::example_network_design());

  // Flat reports: the joint 36-state chain, no avoided-space annotation.
  EXPECT_EQ(f1.availability_diagnostics.tangible_states, 36u);
  EXPECT_EQ(f1.availability_diagnostics.flat_states, 0u);
  EXPECT_DOUBLE_EQ(f1.coa, f2.coa);

  // Lumped reports: per-tier up-count supports (2+3+3+2 = 10 states) with
  // the avoided joint space recorded — the signature a shared cache would
  // destroy.
  EXPECT_EQ(l1.availability_diagnostics.tangible_states, 10u);
  EXPECT_EQ(l1.availability_diagnostics.flat_states, 36u);
  EXPECT_DOUBLE_EQ(l1.coa, l2.coa);
  EXPECT_TRUE(l1.converged());

  // Exactness: same COA to solver tolerance, through genuinely different
  // solves (different state counts prove no result sharing happened).
  EXPECT_NEAR(l1.coa, f1.coa, 1e-9);

  // The lower layer IS shared: identical Table V rates from both caches.
  const auto& flat_rates = flat.aggregated_rates();
  for (const auto& [role, agg] : lumped.aggregated_rates()) {
    EXPECT_DOUBLE_EQ(agg.lambda_eq, flat_rates.at(role).lambda_eq);
    EXPECT_DOUBLE_EQ(agg.mu_eq, flat_rates.at(role).mu_eq);
  }
}

TEST(SessionMemoizationAudit, LumpedTransientMatchesFlatTransient) {
  core::EngineOptions flat_engine;
  flat_engine.time_points = {0.5, 2.0, 12.0, 24.0};
  flat_engine.initial_down = {{ent::ServerRole::kWeb, 1}, {ent::ServerRole::kApp, 1}};
  core::EngineOptions lumped_engine = flat_engine;
  lumped_engine.lumping = true;

  const core::Session flat(core::Scenario::paper_case_study().with_engine(flat_engine));
  const core::Session lumped(core::Scenario::paper_case_study().with_engine(lumped_engine));
  const core::EvalReport f = flat.evaluate_transient(ent::example_network_design());
  const core::EvalReport l = lumped.evaluate_transient(ent::example_network_design());

  ASSERT_EQ(f.transient.coa.size(), l.transient.coa.size());
  for (std::size_t j = 0; j < f.transient.coa.size(); ++j) {
    EXPECT_NEAR(f.transient.coa[j], l.transient.coa[j], 1e-9) << "point " << j;
  }
  EXPECT_NEAR(f.transient.accumulated_coa_hours, l.transient.accumulated_coa_hours, 1e-8);
  EXPECT_EQ(l.availability_diagnostics.flat_states, 36u);
  EXPECT_EQ(f.availability_diagnostics.flat_states, 0u);
  // The flat engine uniformized; the closed form evaluated each point
  // directly, so its report shows no uniformization work.
  EXPECT_GT(f.transient_diagnostics.matvec_count, 0u);
  EXPECT_EQ(l.transient_diagnostics.matvec_count, 0u);
}

// ---------- memoization-key audits (service-layer cache contracts) ------------
//
// The evaluation service (src/service) fronts Session with a content-hashed
// result cache, so the Session-level memoization keys below are load-bearing
// for cache correctness, not just for performance.  Each audit pins one key
// contract cited in session.hpp.

namespace {

bool audit_same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

TEST(SessionMemoizationAudit, CadenceKeyCanonicalizesAndUsesExactBits) {
  // The aggregation cache key is the canonical_interval() double: NaN and
  // non-positive cadences (including -0.0, whose bit pattern would alias
  // +0.0 under operator<) are rejected before they can reach the std::map.
  EXPECT_THROW((void)core::Session::canonical_interval(std::nan("")), std::invalid_argument);
  EXPECT_THROW((void)core::Session::canonical_interval(0.0), std::invalid_argument);
  EXPECT_THROW((void)core::Session::canonical_interval(-0.0), std::invalid_argument);
  EXPECT_THROW((void)core::Session::canonical_interval(-720.0), std::invalid_argument);
  // Positive cadences pass through with their exact bits.
  EXPECT_TRUE(audit_same_bits(core::Session::canonical_interval(720.0), 720.0));

  // Exact-bits contract on the live cache: the same bit pattern shares one
  // memoized entry, while a one-ulp-different cadence is a distinct key
  // (no epsilon collapsing — two "almost equal" schedules are two results).
  const core::Session session(core::Scenario::paper_case_study());
  const double month = 720.0;
  const double month_plus_ulp = std::nextafter(month, 1000.0);
  const auto* first = &session.aggregated_rates(month);
  EXPECT_EQ(first, &session.aggregated_rates(month));
  EXPECT_NE(first, &session.aggregated_rates(month_plus_ulp));
}

TEST(SessionMemoizationAudit, HarmMetricsDependOnDesignCountsAlone) {
  // Pinned by the harm_cache_ comment in session.hpp: the HARM key is the
  // design's counts array ALONE.  Sound because the patch cadence never
  // reaches the HARM layer and the one EngineOptions field that does (the
  // harm_paths enumeration cap) is Session-immutable — so the same design
  // evaluated at different cadences must produce bit-identical security
  // metrics.
  const core::Session session(core::Scenario::paper_case_study());
  const core::EvalReport monthly = session.evaluate(ent::example_network_design(), 720.0);
  const core::EvalReport weekly = session.evaluate(ent::example_network_design(), 168.0);
  EXPECT_TRUE(audit_same_bits(monthly.before_patch.attack_impact,
                              weekly.before_patch.attack_impact));
  EXPECT_TRUE(audit_same_bits(monthly.before_patch.attack_success_probability,
                              weekly.before_patch.attack_success_probability));
  EXPECT_TRUE(audit_same_bits(monthly.after_patch.attack_impact,
                              weekly.after_patch.attack_impact));
  EXPECT_TRUE(audit_same_bits(monthly.after_patch.attack_success_probability,
                              weekly.after_patch.attack_success_probability));
  EXPECT_EQ(monthly.before_patch.attack_paths, weekly.before_patch.attack_paths);
  EXPECT_EQ(monthly.before_patch.entry_points, weekly.before_patch.entry_points);
  // The key DOES discriminate on counts: a different design changes the
  // attack surface (more replicas, more paths/entry points into the HARM).
  ent::RedundancyDesign thinner = ent::example_network_design();
  thinner.counts[0] = thinner.counts[0] > 1 ? 1u : 2u;
  const core::EvalReport other = session.evaluate(thinner, 720.0);
  EXPECT_TRUE(monthly.before_patch.attack_paths != other.before_patch.attack_paths ||
              monthly.before_patch.entry_points != other.before_patch.entry_points ||
              !audit_same_bits(monthly.before_patch.attack_impact,
                               other.before_patch.attack_impact));
}

namespace {

bool same_security(const patchsec::harm::SecurityMetrics& a,
                   const patchsec::harm::SecurityMetrics& b) {
  return audit_same_bits(a.attack_impact, b.attack_impact) &&
         audit_same_bits(a.attack_success_probability, b.attack_success_probability) &&
         a.exploitable_vulnerabilities == b.exploitable_vulnerabilities &&
         a.attack_paths == b.attack_paths && a.entry_points == b.entry_points &&
         a.truncated_paths == b.truncated_paths;
}

bool same_classes(const std::vector<patchsec::harm::PathClass>& a,
                  const std::vector<patchsec::harm::PathClass>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t c = 0; c < a.size(); ++c) {
    if (a[c].signature != b[c].signature || a[c].instance_paths != b[c].instance_paths ||
        !audit_same_bits(a[c].max_impact, b[c].max_impact) ||
        !audit_same_bits(a[c].success_probability, b[c].success_probability) ||
        !audit_same_bits(a[c].total_risk, b[c].total_risk)) {
      return false;
    }
  }
  return true;
}

}  // namespace

TEST(SessionMemoizationAudit, PathClassesComeFromTheSecurityMemo) {
  // path_classes(d) is the role-labelled aggregate_path_classes of a fresh
  // build_harm(), bit for bit, and it shares the design's one HARM build
  // with the report's security metrics: asking for the classes first leaves
  // every report bit-identical to a Session that never asked.  Designs: the
  // five paper designs, uniform k = 2..12, and an empty DNS tier (which
  // drops the dns-led role sequence).
  std::vector<ent::RedundancyDesign> designs = ent::paper_designs();
  for (unsigned k = 2; k <= 12; ++k) designs.push_back(ent::RedundancyDesign{{k, k, k, k}});
  designs.push_back(ent::RedundancyDesign{{0, 1, 1, 1}});
  core::EngineOptions engine;
  engine.lumping = true;  // the HARM side is engine-independent; keep k = 12 cheap.
  const core::Scenario scenario = core::Scenario::paper_case_study().with_engine(engine);
  const core::Session asked(scenario);
  const core::Session plain(scenario);

  std::set<std::array<unsigned, ent::kRoleCount>> distinct;
  for (const ent::RedundancyDesign& design : designs) {
    SCOPED_TRACE(design.name());
    distinct.insert(design.counts);
    const patchsec::harm::Harm model =
        ent::NetworkModel(design, scenario.specs(), scenario.policy()).build_harm();
    const std::vector<patchsec::harm::PathClass> fresh = patchsec::harm::aggregate_path_classes(
        model,
        [&model](patchsec::harm::GraphNodeId id) { return ent::role_label(model.graph().name(id)); },
        scenario.engine().harm_paths);
    ASSERT_FALSE(fresh.empty());
    const std::vector<patchsec::harm::PathClass>& memo = asked.path_classes(design);
    EXPECT_TRUE(same_classes(memo, fresh));
    EXPECT_EQ(&memo, &asked.path_classes(design));  // served from the memo.
    EXPECT_EQ(asked.workspace_counters().harm_builds, distinct.size());

    const core::EvalReport a = asked.evaluate(design);
    const core::EvalReport b = plain.evaluate(design);
    EXPECT_EQ(asked.workspace_counters().harm_builds, distinct.size());
    EXPECT_EQ(plain.workspace_counters().harm_builds, distinct.size());
    EXPECT_TRUE(same_security(a.before_patch, b.before_patch));
    EXPECT_TRUE(same_security(a.after_patch, b.after_patch));
    EXPECT_TRUE(audit_same_bits(a.coa, b.coa));
    EXPECT_TRUE(same_classes(plain.path_classes(design), fresh));
  }
  // The empty tier removes the dns-led class.
  EXPECT_LT(asked.path_classes(designs.back()).size(),
            asked.path_classes(designs.front()).size());
}

TEST(SessionMemoizationAudit, InterleavedSessionsKeepTheirWarmStructures) {
  // Regression for the per-Session workspace refactor: solver workspaces
  // used to be function-static thread_locals SHARED by every Session, so
  // two Sessions interleaving transient solves on one thread thrashed each
  // other's cached CSR structure (zero reuses, a rebuild per call).  Each
  // (Session, thread) pair now owns its slot, so the A/B/A/B interleave
  // below must still hit each Session's value-refresh fast path.
  core::EngineOptions engine;
  engine.time_points = {0.5, 2.0, 24.0};
  const core::Session first(core::Scenario::paper_case_study().with_engine(engine));
  const core::Session second(core::Scenario::paper_case_study().with_engine(engine));
  for (int round = 0; round < 2; ++round) {
    (void)first.evaluate_transient(ent::example_network_design());
    (void)second.evaluate_transient(ent::example_network_design());
  }
  const core::Session::WorkspaceCounters a = first.workspace_counters();
  const core::Session::WorkspaceCounters b = second.workspace_counters();
  EXPECT_EQ(a.thread_slots, 1u);
  EXPECT_EQ(b.thread_slots, 1u);
  EXPECT_EQ(a.transient_structure_builds, 1u);
  EXPECT_EQ(b.transient_structure_builds, 1u);
  EXPECT_GE(a.transient_structure_reuses, 1u);
  EXPECT_GE(b.transient_structure_reuses, 1u);
}
