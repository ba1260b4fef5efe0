// Scenario generator + differential runner units: determinism and
// reproduction-from-seed contracts, scenario validity, degenerate-shape
// coverage, the JSON report shape, and the CI-agreement checks behind every
// verdict.  The full 50-scenario differential sweep lives in
// test_differential.cpp (ctest label `differential`).

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "patchsec/core/session.hpp"
#include "patchsec/testgen/differential_runner.hpp"
#include "patchsec/testgen/scenario_generator.hpp"

namespace core = patchsec::core;
namespace tg = patchsec::testgen;

TEST(ScenarioGenerator, FixedSeedReproducesIdenticalScenarios) {
  tg::GeneratorOptions options;
  options.seed = 555;
  tg::ScenarioGenerator a(options);
  tg::ScenarioGenerator b(options);
  for (int i = 0; i < 20; ++i) {
    const tg::GeneratedScenario sa = a.next();
    const tg::GeneratedScenario sb = b.next();
    EXPECT_EQ(sa.scenario_seed, sb.scenario_seed);
    EXPECT_EQ(sa.label, sb.label);
    EXPECT_EQ(sa.design, sb.design);
    EXPECT_EQ(sa.shape, sb.shape);
    ASSERT_EQ(sa.scenario.patch_intervals().size(), sb.scenario.patch_intervals().size());
    EXPECT_DOUBLE_EQ(sa.scenario.patch_interval_hours(), sb.scenario.patch_interval_hours());
    // Spec perturbations must reproduce bit-exactly too.
    for (const auto& [role, spec] : sa.scenario.specs()) {
      const auto& other = sb.scenario.specs().at(role);
      EXPECT_DOUBLE_EQ(spec.times.svc_mtbf, other.times.svc_mtbf);
      EXPECT_DOUBLE_EQ(spec.times.os_reboot, other.times.os_reboot);
      EXPECT_DOUBLE_EQ(spec.times.hw_mttr, other.times.hw_mttr);
    }
  }
}

TEST(ScenarioGenerator, FromSeedRebuildsTheLoggedScenario) {
  tg::GeneratorOptions options;
  options.seed = 9001;
  tg::ScenarioGenerator generator(options);
  for (int i = 0; i < 10; ++i) {
    const tg::GeneratedScenario original = generator.next();
    const tg::GeneratedScenario replayed =
        tg::ScenarioGenerator::from_seed(original.scenario_seed, options);
    EXPECT_EQ(replayed.scenario_seed, original.scenario_seed);
    EXPECT_EQ(replayed.label, original.label);
    EXPECT_EQ(replayed.design, original.design);
    EXPECT_DOUBLE_EQ(replayed.scenario.patch_interval_hours(),
                     original.scenario.patch_interval_hours());
  }
}

TEST(ScenarioGenerator, EveryScenarioIsValidAndEvaluable) {
  tg::ScenarioGenerator generator;
  for (int i = 0; i < 30; ++i) {
    const tg::GeneratedScenario generated = generator.next();
    EXPECT_NO_THROW(generated.scenario.validate()) << generated.label;
    ASSERT_EQ(generated.scenario.designs().size(), 1u);
    EXPECT_EQ(generated.scenario.designs().front(), generated.design);
    EXPECT_GE(generated.design.total_servers(), 4u);
    EXPECT_GT(generated.scenario.patch_interval_hours(), 0.0);
  }
}

TEST(ScenarioGenerator, DegenerateShapesAppear) {
  tg::GeneratorOptions options;
  options.degenerate_fraction = 0.5;  // make coverage fast
  tg::ScenarioGenerator generator(options);
  std::set<tg::DegenerateShape> seen;
  for (int i = 0; i < 200; ++i) seen.insert(generator.next().shape);
  EXPECT_TRUE(seen.count(tg::DegenerateShape::kNone));
  EXPECT_TRUE(seen.count(tg::DegenerateShape::kSingleHost));
  EXPECT_TRUE(seen.count(tg::DegenerateShape::kGlacialRepair));
  EXPECT_TRUE(seen.count(tg::DegenerateShape::kSaturatedCapacity));
  EXPECT_TRUE(seen.count(tg::DegenerateShape::kRapidCadence));
}

TEST(ScenarioGenerator, OptionValidation) {
  tg::GeneratorOptions options;
  options.max_servers_per_role = 0;
  EXPECT_THROW(tg::ScenarioGenerator{options}, std::invalid_argument);
  options = {};
  options.min_patch_interval_hours = -1.0;
  EXPECT_THROW(tg::ScenarioGenerator{options}, std::invalid_argument);
  options = {};
  options.rate_perturbation_factor = 0.5;
  EXPECT_THROW(tg::ScenarioGenerator{options}, std::invalid_argument);
  options = {};
  options.degenerate_fraction = 1.5;
  EXPECT_THROW(tg::ScenarioGenerator{options}, std::invalid_argument);
}

namespace {

// Small-but-real budget: fast enough for the unit label, big enough that the
// CI check is meaningful.
tg::DifferentialOptions small_budget() {
  tg::DifferentialOptions options;
  options.scenarios = 6;
  options.simulation.replications = 12;
  options.simulation.warmup_hours = 1000.0;
  options.simulation.horizon_hours = 6000.0;
  options.simulation.threads = 1;
  return options;
}

}  // namespace

TEST(DifferentialRunner, RunIsDeterministicAcrossThreadCounts) {
  tg::DifferentialOptions options = small_budget();
  const tg::DifferentialReport serial = tg::DifferentialRunner(options).run();
  options.simulation.threads = 5;
  const tg::DifferentialReport threaded = tg::DifferentialRunner(options).run();
  ASSERT_EQ(serial.cases.size(), threaded.cases.size());
  for (std::size_t i = 0; i < serial.cases.size(); ++i) {
    EXPECT_EQ(serial.cases[i].scenario_seed, threaded.cases[i].scenario_seed);
    EXPECT_DOUBLE_EQ(serial.cases[i].analytic_coa, threaded.cases[i].analytic_coa);
    EXPECT_DOUBLE_EQ(serial.cases[i].simulated_coa, threaded.cases[i].simulated_coa);
    EXPECT_DOUBLE_EQ(serial.cases[i].half_width_95, threaded.cases[i].half_width_95);
    EXPECT_EQ(serial.cases[i].inside_ci, threaded.cases[i].inside_ci);
  }
  EXPECT_EQ(serial.misses, threaded.misses);
}

TEST(DifferentialRunner, RunOneReplaysALoggedCase) {
  const tg::DifferentialOptions options = small_budget();
  const tg::DifferentialReport report = tg::DifferentialRunner(options).run();
  ASSERT_FALSE(report.cases.empty());
  for (const auto& c : {report.cases.front(), report.cases.back()}) {
    const tg::DifferentialCase replay = tg::DifferentialRunner::run_one(c.scenario_seed, options);
    EXPECT_EQ(replay.label, c.label);
    EXPECT_DOUBLE_EQ(replay.analytic_coa, c.analytic_coa);
    EXPECT_DOUBLE_EQ(replay.simulated_coa, c.simulated_coa);
    EXPECT_DOUBLE_EQ(replay.half_width_95, c.half_width_95);
    EXPECT_EQ(replay.inside_ci, c.inside_ci);
  }
}

TEST(DifferentialRunner, ReportShapeAndJson) {
  const tg::DifferentialOptions options = small_budget();
  const tg::DifferentialReport report = tg::DifferentialRunner(options).run();
  ASSERT_EQ(report.cases.size(), options.scenarios);
  std::size_t misses = 0;
  for (const auto& c : report.cases) {
    EXPECT_GT(c.half_width_95, 0.0) << c.label;
    EXPECT_GT(c.simulated_coa, 0.0) << c.label;
    EXPECT_TRUE(c.analytic_converged) << c.label;
    if (!c.inside_ci) ++misses;
  }
  EXPECT_EQ(report.misses, misses);
  EXPECT_TRUE(report.passed(report.misses));
  EXPECT_FALSE(report.misses > 0 && report.passed(report.misses - 1));

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(json.find("\"misses\": " + std::to_string(report.misses)), std::string::npos);
  EXPECT_NE(json.find("\"cases\""), std::string::npos);
  EXPECT_NE(json.find("\"analytic_coa\""), std::string::npos);
}

TEST(DifferentialRunner, OptionValidation) {
  tg::DifferentialOptions options;
  options.scenarios = 0;
  EXPECT_THROW(tg::DifferentialRunner{options}, std::invalid_argument);
  options = {};
  options.z = 0.0;
  EXPECT_THROW(tg::DifferentialRunner{options}, std::invalid_argument);
  options = {};
  options.simulation.replications = 0;
  EXPECT_THROW(tg::DifferentialRunner{options}, std::invalid_argument);
}

// ---------- CI-agreement checks ----------------------------------------------

TEST(DifferentialChecks, AgreesWithSemantics) {
  tg::CoaEstimate a{0.995};
  tg::CoaEstimate b{0.995 + 1e-12};
  // Two exact values: round-off tolerance only.
  EXPECT_TRUE(tg::agrees_with(a, b));
  b.coa = 0.996;
  EXPECT_FALSE(tg::agrees_with(a, b));

  // One estimate: its CI decides, rescaled by z.
  b.half_width_95 = 0.0015;
  EXPECT_TRUE(tg::agrees_with(a, b));
  EXPECT_TRUE(tg::agrees_with(b, a));
  EXPECT_FALSE(tg::agrees_with(a, b, 1.0));  // 1-sigma: 0.00077 < 0.001
  EXPECT_TRUE(tg::agrees_with(a, b, 1.31));  // just above the 0.001 gap
  // Two estimates combine in quadrature.
  a.half_width_95 = 0.0015;
  EXPECT_TRUE(tg::agrees_with(a, b, 1.0));  // sqrt(2)*0.00077 > 0.001
}

TEST(DifferentialChecks, TransientBandRejectsMismatchedOrMissingCurves) {
  patchsec::sim::TransientCurveEstimate simulated;
  simulated.time_points = {0.0, 1.0, 4.0};
  simulated.mean = {0.5, 0.9, 0.99};
  simulated.half_width_95 = {0.0, 0.02, 0.01};
  simulated.diagnostics.replications = 300;  // band floor 3/300 = 0.01

  core::TransientCurve analytic;
  analytic.time_points_hours = {0.0, 1.0, 4.0};
  analytic.coa = {0.505, 0.915, 0.995};
  EXPECT_TRUE(tg::transient_agrees_with(simulated, analytic));

  // The band at j = 0 is the rule-of-three floor; at j = 1 the half width
  // rescaled by z.
  EXPECT_TRUE(tg::transient_point_agrees(simulated, analytic, 0));
  analytic.coa[0] = 0.52;
  EXPECT_FALSE(tg::transient_point_agrees(simulated, analytic, 0));
  EXPECT_FALSE(tg::transient_agrees_with(simulated, analytic));
  analytic.coa[0] = 0.505;
  EXPECT_FALSE(tg::transient_point_agrees(simulated, analytic, 1, 1.0));  // 0.0102 < 0.015
  EXPECT_FALSE(tg::transient_point_agrees(simulated, analytic, 3));       // no such point

  const core::TransientCurve steady;  // no curve on the other side
  EXPECT_FALSE(tg::transient_agrees_with(simulated, steady));

  core::TransientCurve other_grid = analytic;  // different grids never compare
  other_grid.time_points_hours = {0.0, 2.0, 4.0};
  EXPECT_FALSE(tg::transient_agrees_with(simulated, other_grid));
}
