// Tests for transient COA analysis (the capacity dip after a patch event)
// and for the synchronized-patching ablation model.

#include <gtest/gtest.h>

#include "patchsec/avail/transient_coa.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/petri/reachability.hpp"

namespace av = patchsec::avail;
namespace ent = patchsec::enterprise;

namespace {

const std::map<ent::ServerRole, av::AggregatedRates>& rates() {
  static const auto r = [] {
    std::map<ent::ServerRole, av::AggregatedRates> out;
    for (const auto& [role, spec] : ent::paper_server_specs()) {
      out.emplace(role, av::aggregate_server(spec));
    }
    return out;
  }();
  return r;
}

}  // namespace

TEST(TransientCoa, DipAtZeroHealsTowardSteadyState) {
  const ent::RedundancyDesign design = ent::example_network_design();
  const std::map<ent::ServerRole, unsigned> one_web_down{{ent::ServerRole::kWeb, 1}};
  const auto curve =
      av::transient_coa_curve(design, rates(), one_web_down, {0.0, 0.2, 0.5, 1.5, 1000.0});
  ASSERT_EQ(curve.size(), 5u);
  // t=0: one of six servers down, the rest up: COA exactly 5/6.
  EXPECT_NEAR(curve[0].coa, 5.0 / 6.0, 1e-9);
  // Recovery within the MTTR time scale is strictly monotone; past that the
  // curve has flattened onto the steady state.
  for (std::size_t i = 1; i + 1 < curve.size(); ++i) {
    EXPECT_GT(curve[i].coa, curve[i - 1].coa) << "i=" << i;
  }
  EXPECT_GE(curve.back().coa, curve[curve.size() - 2].coa - 1e-9);
  const double steady = av::capacity_oriented_availability(design, rates());
  EXPECT_NEAR(curve.back().coa, steady, 1e-4);
}

TEST(TransientCoa, WholeTierDownStartsAtZero) {
  const ent::RedundancyDesign design = ent::example_network_design();
  const std::map<ent::ServerRole, unsigned> db_down{{ent::ServerRole::kDb, 1}};
  const auto curve = av::transient_coa_curve(design, rates(), db_down, {0.0, 0.25});
  EXPECT_DOUBLE_EQ(curve[0].coa, 0.0);  // db tier fully down: no service
  EXPECT_GT(curve[1].coa, 0.0);
}

TEST(TransientCoa, InitialDownClampedToTierSize) {
  const ent::RedundancyDesign design{{1, 1, 1, 1}};
  const std::map<ent::ServerRole, unsigned> excessive{{ent::ServerRole::kWeb, 5}};
  const auto curve = av::transient_coa_curve(design, rates(), excessive, {0.0});
  EXPECT_DOUBLE_EQ(curve[0].coa, 0.0);  // the single web server is down
}

TEST(TransientCoa, RedundantTierHealsFasterInitialLoss) {
  // One web down: the 2-web design still serves (5/6 capacity) while the
  // 1-web design is fully out at t=0.
  const std::map<ent::ServerRole, unsigned> one_web{{ent::ServerRole::kWeb, 1}};
  const auto redundant = av::transient_coa_curve(ent::example_network_design(), rates(),
                                                 one_web, {0.0});
  const auto bare =
      av::transient_coa_curve(ent::RedundancyDesign{{1, 1, 1, 1}}, rates(), one_web, {0.0});
  EXPECT_NEAR(redundant[0].coa, 5.0 / 6.0, 1e-9);
  EXPECT_DOUBLE_EQ(bare[0].coa, 0.0);
}

TEST(TransientCoa, ShortfallPositiveAndBoundedByDipDepth) {
  const ent::RedundancyDesign design = ent::example_network_design();
  const std::map<ent::ServerRole, unsigned> one_app{{ent::ServerRole::kApp, 1}};
  const double shortfall = av::patch_dip_shortfall(design, rates(), one_app, 24.0);
  EXPECT_GT(shortfall, 0.0);
  // The dip starts at depth (steady - 5/6) and shrinks: the integral over
  // 24 h is far below depth * horizon.
  const double steady = av::capacity_oriented_availability(design, rates());
  EXPECT_LT(shortfall, (steady - 5.0 / 6.0) * 24.0);
  // MTTR of the app tier is ~1 h, so the shortfall is on the order of
  // depth * MTTR; allow generous slack.
  EXPECT_NEAR(shortfall, (steady - 5.0 / 6.0) * 1.0, 0.1);
}

TEST(TransientCoa, Validation) {
  EXPECT_THROW((void)av::transient_coa_curve(ent::example_network_design(), rates(), {}, {}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)av::transient_coa_curve(ent::example_network_design(), rates(), {}, {-1.0}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)av::patch_dip_shortfall(ent::example_network_design(), rates(), {}, 0.0),
      std::invalid_argument);
}

// ---------- synchronized patching ablation ----------------------------------------

TEST(SynchronizedPatch, RedundancyBuysNothing) {
  // Under whole-tier maintenance windows, doubling a tier does not improve
  // COA the way independent clocks do.
  const double independent =
      av::capacity_oriented_availability(ent::RedundancyDesign{{1, 1, 2, 1}}, rates());
  const double synchronized = av::capacity_oriented_availability_synchronized(
      ent::RedundancyDesign{{1, 1, 2, 1}}, rates());
  EXPECT_GT(independent, synchronized);
}

TEST(SynchronizedPatch, NoRedundancyModelsCoincide) {
  // With one server per tier the two policies describe the same chain.
  const ent::RedundancyDesign bare{{1, 1, 1, 1}};
  const double independent = av::capacity_oriented_availability(bare, rates());
  const double synchronized = av::capacity_oriented_availability_synchronized(bare, rates());
  EXPECT_NEAR(independent, synchronized, 1e-9);
}

TEST(SynchronizedPatch, TierStatesAreAllOrNothing) {
  const av::NetworkSrn net =
      av::build_network_srn_synchronized(ent::example_network_design(), rates());
  const auto graph = patchsec::petri::build_reachability_graph(net.model);
  for (const auto& m : graph.tangible_markings) {
    for (const auto& [role, up] : net.up_places) {
      const unsigned n = net.design.count(role);
      EXPECT_TRUE(m[up] == 0 || m[up] == n) << "tier " << ent::to_string(role);
    }
  }
  // 2^4 = 16 tier configurations.
  EXPECT_EQ(graph.tangible_count(), 16u);
}
