// Tests for the patch-policy variants (reboot-free patching), the COA
// sensitivity analysis and the JSON report output.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "patchsec/avail/aggregation.hpp"
#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/server_srn.hpp"
#include "patchsec/core/report.hpp"
#include "patchsec/core/sensitivity.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/petri/reachability.hpp"
#include "structural_oracle.hpp"

namespace av = patchsec::avail;
namespace core = patchsec::core;
namespace ent = patchsec::enterprise;
namespace pt = patchsec::petri;

namespace {

const std::map<ent::ServerRole, ent::ServerSpec>& specs() {
  static const auto s = ent::paper_server_specs();
  return s;
}

const std::map<ent::ServerRole, av::AggregatedRates>& rates() {
  static const auto r = [] {
    std::map<ent::ServerRole, av::AggregatedRates> out;
    for (const auto& [role, spec] : specs()) out.emplace(role, av::aggregate_server(spec));
    return out;
  }();
  return r;
}

double service_up_probability(const av::ServerSrn& srn) {
  const pt::SrnAnalyzer analyzer(srn.model);
  return analyzer.probability([&srn](const pt::Marking& m) { return srn.service_up(m); });
}

}  // namespace

// ---------- reboot-free patch policy ----------------------------------------------

TEST(PatchPolicy, RebootFreePatchingShortensDowntime) {
  // DNS: with reboots the patch takes 40 min; without, only 25 min of patch
  // work remain.  Availability must improve accordingly.
  av::ServerSrnOptions with_reboot;
  av::ServerSrnOptions without_reboot;
  without_reboot.reboot_required = false;

  const av::ServerSrn srn_with =
      av::build_server_srn(specs().at(ent::ServerRole::kDns), with_reboot);
  const av::ServerSrn srn_without =
      av::build_server_srn(specs().at(ent::ServerRole::kDns), without_reboot);
  EXPECT_GT(service_up_probability(srn_without), service_up_probability(srn_with));

  // Patch-downtime ratio check (failure downtime is policy-independent):
  // 25 min of patch work vs 40 min including reboots.
  const auto patch_down = [](const av::ServerSrn& srn) {
    const pt::SrnAnalyzer analyzer(srn.model);
    return analyzer.probability(
        [&srn](const pt::Marking& m) { return srn.service_patch_down(m); });
  };
  EXPECT_NEAR(patch_down(srn_without) / patch_down(srn_with), 25.0 / 40.0, 0.03);
}

TEST(PatchPolicy, RebootFreeNetStaysConsistent) {
  av::ServerSrnOptions opt;
  opt.reboot_required = false;
  const av::ServerSrn srn = av::build_server_srn(specs().at(ent::ServerRole::kApp), opt);
  const pt::ReachabilityGraph graph = pt::build_reachability_graph(srn.model);
  EXPECT_TRUE(structural_oracle::is_irreducible(graph.chain));
  for (const pt::Marking& m : graph.tangible_markings) {
    // The post-patch states vanish under the reboot-free policy: Posp and
    // Psvcprrb are resolved immediately.
    EXPECT_EQ(m[srn.os_patched], 0u) << pt::to_string(m);
    EXPECT_EQ(m[srn.svc_ready_to_reboot], 0u) << pt::to_string(m);
  }
}

// ---------- sensitivity -------------------------------------------------------------

TEST(Sensitivity, AppTierDominatesExampleNetwork) {
  const auto entries = core::coa_sensitivity(ent::example_network_design(), rates());
  ASSERT_EQ(entries.size(), 8u);  // 4 tiers x {mu, lambda}
  // The most influential parameters belong to the patch process; signs are
  // physical: mu raises COA, lambda lowers it.
  for (const auto& e : entries) {
    if (e.parameter.rfind("mu_eq", 0) == 0) {
      EXPECT_GT(e.derivative, 0.0) << e.parameter;
    } else {
      EXPECT_LT(e.derivative, 0.0) << e.parameter;
    }
  }
  // Sorted by |elasticity| descending.
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(std::abs(entries[i - 1].elasticity), std::abs(entries[i].elasticity));
  }
}

TEST(Sensitivity, SingleServerTiersOutweighRedundantOnes) {
  // In the example network the db/dns tiers are single-server: their rate
  // perturbations hit COA via the outage term, so their elasticities beat
  // the doubled web/app tiers'.
  const auto entries = core::coa_sensitivity(ent::example_network_design(), rates());
  double best_single = 0.0, best_redundant = 0.0;
  for (const auto& e : entries) {
    const bool redundant = e.parameter.find("WEB") != std::string::npos ||
                           e.parameter.find("APP") != std::string::npos;
    (redundant ? best_redundant : best_single) =
        std::max(redundant ? best_redundant : best_single, std::abs(e.elasticity));
  }
  EXPECT_GT(best_single, best_redundant);
}

TEST(Sensitivity, ReratedElasticitiesMatchFreshExplorations) {
  // coa_sensitivity explores the base net once and re-rates it for every
  // perturbed net; exploring and solving each afresh gives the same bits.
  const ent::RedundancyDesign design = ent::example_network_design();
  const double step = 0.01;
  const auto coa = [&design](const std::map<ent::ServerRole, av::AggregatedRates>& at) {
    return av::capacity_oriented_availability_detailed(design, at, pt::AnalyzerOptions{}).coa;
  };
  const double base_coa = coa(rates());
  std::map<std::string, core::SensitivityEntry> fresh;
  for (const auto& [role, r] : rates()) {
    if (design.count(role) == 0) continue;
    for (const bool perturb_mu : {true, false}) {
      const auto at = [&, role = role](double factor) {
        std::map<ent::ServerRole, av::AggregatedRates> perturbed = rates();
        (perturb_mu ? perturbed.at(role).mu_eq : perturbed.at(role).lambda_eq) *= factor;
        return coa(perturbed);
      };
      core::SensitivityEntry e;
      e.parameter = std::string(perturb_mu ? "mu_eq(" : "lambda_eq(") + ent::to_string(role) + ")";
      e.base_value = perturb_mu ? r.mu_eq : r.lambda_eq;
      e.derivative = (at(1.0 + step) - at(1.0 - step)) / (2.0 * step * e.base_value);
      e.elasticity = e.derivative * e.base_value / base_coa;
      fresh.emplace(e.parameter, e);
    }
  }
  const auto entries = core::coa_sensitivity(design, rates(), step);
  ASSERT_EQ(entries.size(), fresh.size());
  for (const core::SensitivityEntry& e : entries) {
    const core::SensitivityEntry& expected = fresh.at(e.parameter);
    EXPECT_EQ(e.derivative, expected.derivative) << e.parameter;
    EXPECT_EQ(e.elasticity, expected.elasticity) << e.parameter;
  }
}

TEST(Sensitivity, StepValidation) {
  EXPECT_THROW((void)core::coa_sensitivity(ent::example_network_design(), rates(), 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)core::coa_sensitivity(ent::example_network_design(), rates(), 1.0),
               std::invalid_argument);
}

// ---------- JSON report --------------------------------------------------------------

TEST(JsonReport, WellFormedAndComplete) {
  const core::Session session(core::Scenario::paper_case_study());
  std::ostringstream out;
  core::write_json(out, session.evaluate_all());
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '[');
  // Per design: design + before + after, the diagnostics block (itself,
  // availability, aggregation and its 4 roles) and the verify block (itself
  // and its 5 clean stages: 4 server nets + the network net).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), 5 * (3 + 7 + 6));
  EXPECT_NE(json.find("\"design\":\"1 DNS + 1 WEB + 2 APP + 1 DB\""), std::string::npos);
  EXPECT_NE(json.find("\"coa\":0.99"), std::string::npos);
  EXPECT_NE(json.find("\"noev\":"), std::string::npos);
  // Balanced braces/brackets.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['), std::count(json.begin(), json.end(), ']'));
}
