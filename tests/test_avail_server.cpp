// Tests for the lower-layer server SRN (Fig. 5) and the aggregation
// equations (Eqs. 1-2): structural sanity, behavioural invariants on the
// reachable state space, and the Table IV/V reproductions.

#include <gtest/gtest.h>

#include "patchsec/avail/aggregation.hpp"
#include "patchsec/avail/server_srn.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/petri/reachability.hpp"
#include "structural_oracle.hpp"

namespace av = patchsec::avail;
namespace ent = patchsec::enterprise;
namespace pt = patchsec::petri;

namespace {

const std::map<ent::ServerRole, ent::ServerSpec>& specs() {
  static const auto s = ent::paper_server_specs();
  return s;
}

}  // namespace

TEST(ServerSrnParameters, DnsMatchesTableFour) {
  const av::ServerSrnParameters p =
      av::server_srn_parameters(specs().at(ent::ServerRole::kDns));
  EXPECT_DOUBLE_EQ(p.hw_mtbf, 87600.0);
  EXPECT_DOUBLE_EQ(p.hw_mttr, 1.0);
  EXPECT_DOUBLE_EQ(p.os_mtbf, 1440.0);
  EXPECT_DOUBLE_EQ(p.os_mttr, 1.0);
  EXPECT_NEAR(p.os_patch * 60.0, 20.0, 1e-12);            // 2 critical OS vulns
  EXPECT_NEAR(p.os_reboot_after_patch * 60.0, 10.0, 1e-12);
  EXPECT_NEAR(p.os_reboot_after_failure * 60.0, 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(p.svc_mtbf, 336.0);
  EXPECT_DOUBLE_EQ(p.svc_mttr, 0.5);
  EXPECT_NEAR(p.svc_patch * 60.0, 5.0, 1e-12);             // 1 critical app vuln
  EXPECT_NEAR(p.svc_reboot_after_patch * 60.0, 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(p.patch_interval, 720.0);
}

TEST(ServerSrn, StructuralShape) {
  const av::ServerSrn srn = av::build_server_srn(specs().at(ent::ServerRole::kDns));
  EXPECT_EQ(srn.model.place_count(), 16u);
  // 2 hw + 9 os + 10 svc + 3 clock transitions.
  EXPECT_EQ(srn.model.transition_count(), 24u);
  // Spot-check Table III-named transitions exist with the right kind.
  EXPECT_EQ(srn.model.transition_kind(srn.model.transition("Thwd")), pt::TransitionKind::kTimed);
  EXPECT_EQ(srn.model.transition_kind(srn.model.transition("Tosd")),
            pt::TransitionKind::kImmediate);
  EXPECT_EQ(srn.model.transition_kind(srn.model.transition("Tsvcrrb")),
            pt::TransitionKind::kImmediate);
  EXPECT_EQ(srn.model.transition_kind(srn.model.transition("Tinterval")),
            pt::TransitionKind::kTimed);
  EXPECT_EQ(srn.model.transition_kind(srn.model.transition("Tpolicy")),
            pt::TransitionKind::kImmediate);
}

TEST(ServerSrn, InitialMarkingIsAllUp) {
  const av::ServerSrn srn = av::build_server_srn(specs().at(ent::ServerRole::kWeb));
  const pt::Marking m0 = srn.model.initial_marking();
  EXPECT_EQ(m0[srn.hw_up], 1u);
  EXPECT_EQ(m0[srn.os_up], 1u);
  EXPECT_EQ(m0[srn.svc_up], 1u);
  EXPECT_EQ(m0[srn.clock_idle], 1u);
  EXPECT_TRUE(srn.service_up(m0));
  EXPECT_FALSE(srn.in_patch_window(m0));
}

class ServerSrnInvariants : public ::testing::TestWithParam<ent::ServerRole> {};

TEST_P(ServerSrnInvariants, ReachableMarkingsAreOneSafeAndConsistent) {
  const av::ServerSrn srn = av::build_server_srn(specs().at(GetParam()));
  const pt::ReachabilityGraph graph = pt::build_reachability_graph(srn.model);
  ASSERT_GT(graph.tangible_count(), 4u);
  ASSERT_LT(graph.tangible_count(), 200u);

  for (const pt::Marking& m : graph.tangible_markings) {
    // Component token conservation: exactly one token per sub-model.
    EXPECT_EQ(m[srn.hw_up] + m[srn.hw_down], 1u);
    EXPECT_EQ(m[srn.os_up] + m[srn.os_down] + m[srn.os_failed] + m[srn.os_ready_to_patch] +
                  m[srn.os_patched],
              1u);
    EXPECT_EQ(m[srn.svc_up] + m[srn.svc_down] + m[srn.svc_failed] + m[srn.svc_ready_to_patch] +
                  m[srn.svc_patched] + m[srn.svc_ready_to_reboot],
              1u);
    EXPECT_EQ(m[srn.clock_idle] + m[srn.clock_armed] + m[srn.clock_triggered], 1u);

    // Paper assumption: no hardware failure during the patch window.
    if (srn.in_patch_window(m)) {
      EXPECT_EQ(m[srn.hw_down], 0u) << pt::to_string(m);
    }
    // OS patches strictly after the service patch: while the OS is being
    // patched the service sits in its patched state (or later reboot state).
    if (m[srn.os_ready_to_patch] == 1 || m[srn.os_patched] == 1) {
      EXPECT_EQ(m[srn.svc_patched] + m[srn.svc_ready_to_reboot], 1u) << pt::to_string(m);
    }
    // The clock trigger is only pending while a patch round is in flight.
    if (m[srn.clock_triggered] == 1) {
      EXPECT_TRUE(srn.service_patch_down(m) || m[srn.svc_up] == 1) << pt::to_string(m);
    }
  }
}

TEST_P(ServerSrnInvariants, ChainIsIrreducible) {
  const av::ServerSrn srn = av::build_server_srn(specs().at(GetParam()));
  const pt::ReachabilityGraph graph = pt::build_reachability_graph(srn.model);
  EXPECT_TRUE(structural_oracle::is_irreducible(graph.chain));
}

INSTANTIATE_TEST_SUITE_P(AllRoles, ServerSrnInvariants,
                         ::testing::Values(ent::ServerRole::kDns, ent::ServerRole::kWeb,
                                           ent::ServerRole::kApp, ent::ServerRole::kDb));

// ---------- aggregation: Table V -----------------------------------------------

struct TableFiveRow {
  ent::ServerRole role;
  double mttr_hours;   // paper value
  double recovery_rate;  // paper value
};

class TableFive : public ::testing::TestWithParam<TableFiveRow> {};

TEST_P(TableFive, AggregatedRatesMatchPaper) {
  const TableFiveRow& row = GetParam();
  const av::AggregatedRates r = av::aggregate_server(specs().at(row.role));
  // All services share the monthly patch rate (Eq. 1).
  EXPECT_NEAR(r.lambda_eq, 1.0 / 720.0, 1e-15);
  EXPECT_NEAR(r.mttp_hours(), 720.0, 1e-9);
  // Paper values carry small failure-interaction corrections (e.g. 1.49992
  // instead of 1.5); we assert agreement to 0.1%.
  EXPECT_NEAR(r.mu_eq, row.recovery_rate, row.recovery_rate * 1e-3);
  EXPECT_NEAR(r.mttr_hours(), row.mttr_hours, row.mttr_hours * 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, TableFive,
    ::testing::Values(TableFiveRow{ent::ServerRole::kDns, 0.6667, 1.49992},
                      TableFiveRow{ent::ServerRole::kWeb, 0.5834, 1.71420},
                      TableFiveRow{ent::ServerRole::kApp, 1.0001, 0.99995},
                      TableFiveRow{ent::ServerRole::kDb, 0.9167, 1.09085}));

TEST(Aggregation, ClosedFormAgreesWithSrn) {
  for (const auto& [role, spec] : specs()) {
    const double closed = av::mu_eq_closed_form(spec);
    const double srn = av::aggregate_server(spec).mu_eq;
    EXPECT_NEAR(srn, closed, closed * 1e-3) << ent::to_string(role);
  }
}

TEST(Aggregation, ProbabilitiesArePlausible) {
  // p_pd ~ downtime/(interval + downtime): about 9e-4 for the DNS server
  // (the paper reports 0.00092506).
  const av::AggregatedRates r = av::aggregate_server(specs().at(ent::ServerRole::kDns));
  EXPECT_NEAR(r.p_patch_down, 0.00092506, 2e-5);
  EXPECT_NEAR(r.p_reboot_enabled, 0.00011563, 5e-6);
  EXPECT_GT(r.p_patch_down, r.p_reboot_enabled);
}

TEST(Aggregation, ShorterIntervalIncreasesDownProbability) {
  const auto& spec = specs().at(ent::ServerRole::kApp);
  const av::AggregatedRates monthly = av::aggregate_server(spec, {.patch_interval_hours = 720.0});
  const av::AggregatedRates weekly = av::aggregate_server(spec, {.patch_interval_hours = 168.0});
  EXPECT_GT(weekly.p_patch_down, monthly.p_patch_down);
  EXPECT_NEAR(weekly.lambda_eq, 1.0 / 168.0, 1e-15);
  // Recovery is a property of patch durations, not of the schedule.
  EXPECT_NEAR(weekly.mu_eq, monthly.mu_eq, monthly.mu_eq * 5e-3);
}

TEST(Aggregation, MttrOrderingMatchesCriticality) {
  // App server has the most critical vulnerabilities -> longest MTTR
  // (Sec. III-D2 observation), then DB, DNS, Web.
  const double app = av::aggregate_server(specs().at(ent::ServerRole::kApp)).mttr_hours();
  const double db = av::aggregate_server(specs().at(ent::ServerRole::kDb)).mttr_hours();
  const double dns = av::aggregate_server(specs().at(ent::ServerRole::kDns)).mttr_hours();
  const double web = av::aggregate_server(specs().at(ent::ServerRole::kWeb)).mttr_hours();
  EXPECT_GT(app, db);
  EXPECT_GT(db, dns);
  EXPECT_GT(dns, web);
}

TEST(Aggregation, InvalidIntervalThrows) {
  const ent::ServerSpec& dns = specs().at(ent::ServerRole::kDns);
  EXPECT_THROW((void)av::aggregate_server(dns, {.patch_interval_hours = 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)av::aggregate_server(dns, {.patch_interval_hours = -5.0}),
               std::invalid_argument);
}

TEST(ServerSrn, NoCriticalVulnerabilityRejected) {
  ent::ServerSpec bare;
  bare.role = ent::ServerRole::kWeb;
  EXPECT_THROW((void)av::build_server_srn(bare), std::invalid_argument);
}
