// Golden-value regression suite: pins the reproduced paper case-study
// outputs (per-design capacity-oriented availability, Table V aggregated
// rates, and the before/after HARM security metrics of Sec. IV) to committed
// constants with explicit tolerances, so solver or reachability refactors
// cannot silently drift the numbers the repository exists to reproduce.
//
// If a deliberate modeling change moves these values, update the constants
// in the same commit and say why in the commit message.  Tolerances are a
// few orders of magnitude above the solver's convergence tolerance, so a
// legitimate solver swap (Gauss-Seidel <-> power) stays green while
// a modeling drift trips the suite.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <vector>

#include "patchsec/core/session.hpp"

namespace core = patchsec::core;
namespace ent = patchsec::enterprise;

namespace {

constexpr double kCoaTol = 1e-8;    // COA is a probability ~0.995; solver tol 1e-10
constexpr double kRateTol = 1e-9;   // Table V rates (1/h)
constexpr double kMetricTol = 1e-9; // HARM metrics are exact rational arithmetic

struct GoldenDesign {
  std::array<unsigned, ent::kRoleCount> counts;
  double coa;
  // Before the critical patch (all exploitable vulnerabilities present).
  double aim_before;
  double asp_before;
  std::size_t noev_before, noap_before, noep_before;
  // After the critical patch.
  double aim_after;
  double asp_after;
  std::size_t noev_after, noap_after, noep_after;
};

// The five Sec. IV designs at the paper's monthly (720 h) cadence.
const std::vector<GoldenDesign> kGolden = {
    {{1, 1, 1, 1}, 0.995614028250, 52.2, 1.0, 16, 2, 2, 42.2, 0.059319, 7, 1, 1},
    {{2, 1, 1, 1}, 0.996166635482, 52.2, 1.0, 17, 3, 3, 42.2, 0.059319, 7, 1, 1},
    {{1, 2, 1, 1}, 0.996097615497, 52.2, 1.0, 21, 4, 3, 42.2, 0.11511926, 9, 2, 2},
    {{1, 1, 2, 1}, 0.996442555875, 52.2, 1.0, 21, 4, 2, 42.2, 0.11511926, 9, 2, 1},
    {{1, 1, 1, 2}, 0.996373599697, 52.2, 1.0, 21, 4, 2, 42.2, 0.11511926, 10, 2, 1},
};

}  // namespace

TEST(PaperGolden, DesignCoaAndSecurityMetricsPinned) {
  const core::Session session(core::Scenario::paper_case_study());
  const std::vector<core::EvalReport> reports = session.evaluate_all();
  ASSERT_EQ(reports.size(), kGolden.size());

  for (std::size_t i = 0; i < kGolden.size(); ++i) {
    const GoldenDesign& golden = kGolden[i];
    const core::EvalReport& report = reports[i];
    SCOPED_TRACE(report.design.name());
    EXPECT_EQ(report.design.counts, golden.counts);
    EXPECT_TRUE(report.converged());
    EXPECT_NEAR(report.coa, golden.coa, kCoaTol);

    EXPECT_NEAR(report.before_patch.attack_impact, golden.aim_before, kMetricTol);
    EXPECT_NEAR(report.before_patch.attack_success_probability, golden.asp_before, 1e-8);
    EXPECT_EQ(report.before_patch.exploitable_vulnerabilities, golden.noev_before);
    EXPECT_EQ(report.before_patch.attack_paths, golden.noap_before);
    EXPECT_EQ(report.before_patch.entry_points, golden.noep_before);

    EXPECT_NEAR(report.after_patch.attack_impact, golden.aim_after, kMetricTol);
    EXPECT_NEAR(report.after_patch.attack_success_probability, golden.asp_after, 1e-8);
    EXPECT_EQ(report.after_patch.exploitable_vulnerabilities, golden.noev_after);
    EXPECT_EQ(report.after_patch.attack_paths, golden.noap_after);
    EXPECT_EQ(report.after_patch.entry_points, golden.noep_after);
  }
}

TEST(PaperGolden, TableVAggregatedRatesPinned) {
  const core::Session session(core::Scenario::paper_case_study());
  const auto& rates = session.aggregated_rates();
  ASSERT_EQ(rates.size(), 4u);

  const auto expect_role = [&rates](ent::ServerRole role, double mu_eq, double p_pd,
                                    double p_prrb) {
    SCOPED_TRACE(ent::to_string(role));
    const auto it = rates.find(role);
    ASSERT_NE(it, rates.end());
    // lambda_eq = tau_p = 1/720 h for every role (Eq. 1).
    EXPECT_NEAR(it->second.lambda_eq, 1.0 / 720.0, kRateTol);
    EXPECT_NEAR(it->second.mu_eq, mu_eq, kRateTol);
    EXPECT_NEAR(it->second.p_patch_down, p_pd, kRateTol);
    EXPECT_NEAR(it->second.p_reboot_enabled, p_prrb, kRateTol);
  };
  expect_role(ent::ServerRole::kDns, 1.5, 0.000925067438, 0.000115633430);
  expect_role(ent::ServerRole::kWeb, 12.0 / 7.0, 0.000809527617, 0.000115646802);
  expect_role(ent::ServerRole::kApp, 1.0, 0.001386959641, 0.000115579970);
  expect_role(ent::ServerRole::kDb, 12.0 / 11.0, 0.001271526634, 0.000115593330);
}
