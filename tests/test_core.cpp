// Tests for the core evaluation pipeline: joint metrics per design, the
// decision functions Eq. (3)/(4) against the paper's published regions, and
// the report emitters.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "patchsec/core/decision.hpp"
#include "patchsec/core/report.hpp"
#include "patchsec/core/session.hpp"

namespace core = patchsec::core;
namespace ent = patchsec::enterprise;

namespace {

const core::Session& session() {
  static const core::Session s(core::Scenario::paper_case_study());
  return s;
}

const std::vector<core::EvalReport>& five_designs() {
  static const auto reports = session().evaluate_all();
  return reports;
}

}  // namespace

TEST(Session, AggregatesAllFourRoles) {
  EXPECT_EQ(session().aggregated_rates().size(), 4u);
  EXPECT_DOUBLE_EQ(session().scenario().patch_interval_hours(), 720.0);
}

TEST(Session, EvaluatesDesignJointly) {
  const core::EvalReport e = session().evaluate(ent::example_network_design());
  EXPECT_DOUBLE_EQ(e.before_patch.attack_impact, 52.2);
  EXPECT_DOUBLE_EQ(e.after_patch.attack_impact, 42.2);
  EXPECT_NEAR(e.coa, 0.99707, 5e-6);
}

TEST(Session, EvaluateAllPreservesOrder) {
  const auto& evals = five_designs();
  ASSERT_EQ(evals.size(), 5u);
  const auto designs = ent::paper_designs();
  for (std::size_t i = 0; i < evals.size(); ++i) {
    EXPECT_EQ(evals[i].design, designs[i]);
  }
}

TEST(Session, BeforePatchAspIsMaximalEverywhere) {
  // Fig. 6(a): every design sits at ASP = 1.0 before the patch.
  for (const auto& e : five_designs()) {
    EXPECT_DOUBLE_EQ(e.before_patch.attack_success_probability, 1.0) << e.design.name();
  }
}

TEST(Session, AimIdenticalAcrossDesigns) {
  // Fig. 7 observation: AIM does not change across design choices (identical
  // longest path), before or after patch.
  for (const auto& e : five_designs()) {
    EXPECT_DOUBLE_EQ(e.before_patch.attack_impact, 52.2) << e.design.name();
    EXPECT_DOUBLE_EQ(e.after_patch.attack_impact, 42.2) << e.design.name();
  }
}

TEST(Session, DnsRedundancyIsSecurityFree) {
  // Paper: designs 1 and 2 share ASP/NoAP/NoEV after patch because the DNS
  // server has no exploitable vulnerability once patched.
  const auto& base = five_designs()[0].after_patch;
  const auto& dns2 = five_designs()[1].after_patch;
  EXPECT_DOUBLE_EQ(base.attack_success_probability, dns2.attack_success_probability);
  EXPECT_EQ(base.attack_paths, dns2.attack_paths);
  EXPECT_EQ(base.exploitable_vulnerabilities, dns2.exploitable_vulnerabilities);
  EXPECT_EQ(base.entry_points, dns2.entry_points);
}

TEST(Session, OtherRedundancyHurtsSecurity) {
  const auto& base = five_designs()[0].after_patch;
  for (std::size_t i = 2; i < 5; ++i) {
    const auto& m = five_designs()[i].after_patch;
    EXPECT_GT(m.attack_success_probability, base.attack_success_probability)
        << five_designs()[i].design.name();
    EXPECT_GT(m.attack_paths, base.attack_paths);
    EXPECT_GT(m.exploitable_vulnerabilities, base.exploitable_vulnerabilities);
  }
  // Only the 2-WEB design adds an entry point after patch (Fig. 7(b)).
  EXPECT_GT(five_designs()[2].after_patch.entry_points, base.entry_points);
  EXPECT_EQ(five_designs()[3].after_patch.entry_points, base.entry_points);
  EXPECT_EQ(five_designs()[4].after_patch.entry_points, base.entry_points);
}

// ---------- decision regions: Sec. IV-A (Eq. 3) --------------------------------

TEST(DecisionTwoMetric, RegionOneSelectsAppAndDbRedundancy) {
  // phi = 0.2, psi = 0.9962 -> {1+1+2APP+1, 1+1+1+2DB} (paper Sec. IV-A).
  const core::TwoMetricBounds bounds{.asp_upper = 0.2, .coa_lower = 0.9962};
  const auto selected = core::filter_designs(five_designs(), bounds);
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0].design.name(), "1 DNS + 1 WEB + 2 APP + 1 DB");
  EXPECT_EQ(selected[1].design.name(), "1 DNS + 1 WEB + 1 APP + 2 DB");
}

TEST(DecisionTwoMetric, RegionTwoSelectsDnsRedundancy) {
  // phi = 0.1, psi = 0.9961 -> {2DNS+1+1+1} (paper Sec. IV-A).
  const core::TwoMetricBounds bounds{.asp_upper = 0.1, .coa_lower = 0.9961};
  const auto selected = core::filter_designs(five_designs(), bounds);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].design.name(), "2 DNS + 1 WEB + 1 APP + 1 DB");
}

TEST(DecisionTwoMetric, UnboundedAcceptsEverything) {
  EXPECT_EQ(core::filter_designs(five_designs(), core::TwoMetricBounds{}).size(), 5u);
}

TEST(DecisionTwoMetric, ImpossibleBoundsRejectEverything) {
  const core::TwoMetricBounds bounds{.asp_upper = 0.0, .coa_lower = 1.0};
  EXPECT_TRUE(core::filter_designs(five_designs(), bounds).empty());
}

// ---------- decision regions: Sec. IV-B (Eq. 4) --------------------------------

TEST(DecisionMultiMetric, RegionOneSelectsOnlyAppRedundancy) {
  // phi=0.2, xi=9, omega=2, kappa=1, psi=0.9962 -> {1+1+2APP+1} only: the
  // 2-DB design is now excluded by NoEV (10 > 9).
  const core::MultiMetricBounds bounds{.asp_upper = 0.2,
                                       .noev_upper = 9,
                                       .noap_upper = 2,
                                       .noep_upper = 1,
                                       .coa_lower = 0.9962};
  const auto selected = core::filter_designs(five_designs(), bounds);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].design.name(), "1 DNS + 1 WEB + 2 APP + 1 DB");
}

TEST(DecisionMultiMetric, RegionTwoSelectsDnsRedundancy) {
  // phi=0.1, xi=7, omega=1, kappa=1, psi=0.9961 -> {2DNS+1+1+1}.
  const core::MultiMetricBounds bounds{.asp_upper = 0.1,
                                       .noev_upper = 7,
                                       .noap_upper = 1,
                                       .noep_upper = 1,
                                       .coa_lower = 0.9961};
  const auto selected = core::filter_designs(five_designs(), bounds);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].design.name(), "2 DNS + 1 WEB + 1 APP + 1 DB");
}

TEST(DecisionMultiMetric, EachBoundBitesIndividually) {
  // Start from bounds every design meets, then tighten one dimension at a
  // time and observe the candidate set shrink.
  core::MultiMetricBounds loose;
  loose.coa_lower = 0.0;
  EXPECT_EQ(core::filter_designs(five_designs(), loose).size(), 5u);

  auto b1 = loose;
  b1.asp_upper = 0.06;  // only the two dns-equivalent designs (asp ~0.059)
  EXPECT_EQ(core::filter_designs(five_designs(), b1).size(), 2u);

  auto b2 = loose;
  b2.noev_upper = 9;  // drops the 2-DB design (10)
  EXPECT_EQ(core::filter_designs(five_designs(), b2).size(), 4u);

  auto b3 = loose;
  b3.noap_upper = 1;  // drops all designs with 2 after-patch paths
  EXPECT_EQ(core::filter_designs(five_designs(), b3).size(), 2u);

  auto b4 = loose;
  b4.noep_upper = 1;  // drops the 2-WEB design
  EXPECT_EQ(core::filter_designs(five_designs(), b4).size(), 4u);

  auto b5 = loose;
  b5.coa_lower = 0.9964;  // only the 2-APP design
  EXPECT_EQ(core::filter_designs(five_designs(), b5).size(), 1u);
}

TEST(DecisionFunctions, SatisfiesMatchesFilter) {
  const core::TwoMetricBounds bounds{.asp_upper = 0.2, .coa_lower = 0.9962};
  std::size_t count = 0;
  for (const auto& e : five_designs()) {
    if (core::satisfies(e, bounds)) ++count;
  }
  EXPECT_EQ(count, core::filter_designs(five_designs(), bounds).size());
}

// ---------- report emitters -----------------------------------------------------

TEST(Report, ScatterCsvShape) {
  std::ostringstream out;
  core::write_scatter_csv(out, five_designs());
  const std::string csv = out.str();
  EXPECT_NE(csv.find("design,asp_before,asp_after,coa"), std::string::npos);
  // Header + 5 rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 6);
  EXPECT_NE(csv.find("1 DNS + 1 WEB + 2 APP + 1 DB"), std::string::npos);
}

TEST(Report, RadarCsvHasBeforeAndAfterRows) {
  std::ostringstream out;
  core::write_radar_csv(out, five_designs());
  const std::string csv = out.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 11);  // header + 10 rows
  EXPECT_NE(csv.find(",before,"), std::string::npos);
  EXPECT_NE(csv.find(",after,"), std::string::npos);
}

TEST(Report, TableContainsAllDesigns) {
  std::ostringstream out;
  core::write_table(out, five_designs());
  const std::string table = out.str();
  for (const auto& e : five_designs()) {
    EXPECT_NE(table.find(e.design.name()), std::string::npos);
  }
}

namespace {

using Emitter = void (*)(std::ostream&, const std::vector<core::EvalReport>&);

const std::pair<const char*, Emitter> kEmitters[] = {{"scatter", core::write_scatter_csv},
                                                     {"radar", core::write_radar_csv},
                                                     {"table", core::write_table},
                                                     {"json", core::write_json}};

/// A report whose metrics carry more significant digits than a stream's
/// default precision (6), so any precision an emitter leaks shows in them.
core::EvalReport many_digit_report() {
  core::EvalReport r = five_designs()[0];
  r.before_patch.attack_impact = 52.123456789;
  r.before_patch.attack_success_probability = 0.123456789;
  r.after_patch.attack_impact = 42.123456789;
  r.after_patch.attack_success_probability = 0.2653316695;
  r.coa = 0.9970654321;
  return r;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

}  // namespace

TEST(Report, EmittersRestoreTheCallersPrecision) {
  for (const auto& [name, emit] : kEmitters) {
    std::ostringstream out;
    out.precision(3);
    emit(out, {many_digit_report()});
    EXPECT_EQ(out.precision(), 3) << name;
  }
}

TEST(Report, EmittingTheSameReportTwiceGivesIdenticalRows) {
  const core::EvalReport r = many_digit_report();
  for (const auto& [name, emit] : kEmitters) {
    // Two calls on one stream write the same text twice.
    std::ostringstream out;
    emit(out, {r});
    const std::string once = out.str();
    emit(out, {r});
    EXPECT_EQ(out.str(), once + once) << name;
  }
  // One call over two copies: the second copy's rows equal the first's.
  for (const auto& [name, emit] : kEmitters) {
    if (std::string(name) == "json") continue;  // one array, not rows
    std::ostringstream out;
    emit(out, {r, r});
    const std::vector<std::string> lines = lines_of(out.str());
    const std::size_t rows = (lines.size() - 1) / 2;  // per copy, after the header
    ASSERT_EQ(lines.size(), 1 + 2 * rows) << name;
    for (std::size_t i = 1; i <= rows; ++i) EXPECT_EQ(lines[i], lines[i + rows]) << name;
  }
}

TEST(Report, SummaryLineMentionsAspAndCoa) {
  const std::string line = core::summary_line(five_designs()[0]);
  EXPECT_NE(line.find("ASP"), std::string::npos);
  EXPECT_NE(line.find("COA"), std::string::npos);
  EXPECT_NE(line.find("1 DNS + 1 WEB + 1 APP + 1 DB"), std::string::npos);
}
