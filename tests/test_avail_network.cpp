// Tests for the upper-layer network SRN and the capacity-oriented
// availability measure: the Table VI reward and COA = 0.99707 for the
// example network, the five-design COA values of Fig. 6/7, and agreement
// between the SRN solution and the birth-death oracle of
// tests/closed_form_oracle.hpp.

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <stdexcept>

#include "closed_form_oracle.hpp"
#include "patchsec/avail/lumped_coa.hpp"
#include "patchsec/avail/network_srn.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/petri/reachability.hpp"

namespace av = patchsec::avail;
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

}  // namespace

TEST(NetworkSrn, StructureFollowsDesign) {
  const av::NetworkSrn net = av::build_network_srn(ent::example_network_design(), rates());
  EXPECT_EQ(net.model.place_count(), 8u);       // 4 roles x (up, down)
  EXPECT_EQ(net.model.transition_count(), 8u);  // 4 roles x (down, up)
  const pt::Marking m0 = net.model.initial_marking();
  EXPECT_EQ(m0[net.up_places.at(ent::ServerRole::kWeb)], 2u);
  EXPECT_EQ(m0[net.up_places.at(ent::ServerRole::kDb)], 1u);
}

TEST(NetworkSrn, MarkingDependentPatchRate) {
  const av::NetworkSrn net = av::build_network_srn(ent::example_network_design(), rates());
  const pt::TransitionId twebd = net.model.transition("TWEBd");
  const pt::Marking m0 = net.model.initial_marking();
  // Two web servers up: rate 2 * lambda_eq (paper: "the firing rates ... are
  // marking-dependent", 2*lambda for the example network).
  EXPECT_NEAR(net.model.rate(twebd, m0), 2.0 / 720.0, 1e-12);
}

TEST(NetworkSrn, RewardMatchesTableSix) {
  const av::NetworkSrn net = av::build_network_srn(ent::example_network_design(), rates());
  const auto reward = net.coa_reward();
  pt::Marking m = net.model.initial_marking();
  const auto up = [&](ent::ServerRole r) { return net.up_places.at(r); };
  const auto down = [&](ent::ServerRole r) { return net.down_places.at(r); };

  EXPECT_DOUBLE_EQ(reward(m), 1.0);  // all six up

  m[up(ent::ServerRole::kWeb)] = 1;  // one web down
  m[down(ent::ServerRole::kWeb)] = 1;
  EXPECT_NEAR(reward(m), 5.0 / 6.0, 1e-12);  // Table VI: 0.83333

  m[up(ent::ServerRole::kApp)] = 1;  // one web + one app down
  m[down(ent::ServerRole::kApp)] = 1;
  EXPECT_NEAR(reward(m), 4.0 / 6.0, 1e-12);  // Table VI: 0.66667

  m[up(ent::ServerRole::kWeb)] = 2;  // back to one app down only
  m[down(ent::ServerRole::kWeb)] = 0;
  m[up(ent::ServerRole::kApp)] = 2;
  m[down(ent::ServerRole::kApp)] = 0;
  m[up(ent::ServerRole::kDb)] = 0;  // whole db tier down: no service
  m[down(ent::ServerRole::kDb)] = 1;
  EXPECT_DOUBLE_EQ(reward(m), 0.0);  // Table VI: else 0
}

TEST(NetworkSrn, ExampleNetworkCoaMatchesPaper) {
  const double coa = av::capacity_oriented_availability(ent::example_network_design(), rates());
  // Paper Sec. III-D2: "COA which approximately equals to 0.99707".
  EXPECT_NEAR(coa, 0.99707, 5e-6);
}

TEST(NetworkSrn, CoaFromSpecsEndToEnd) {
  const double coa =
      av::capacity_oriented_availability(ent::example_network_design(), specs(), 720.0);
  EXPECT_NEAR(coa, 0.99707, 5e-6);
}

struct DesignCoa {
  std::array<unsigned, 4> counts;
  double coa;  // validated analytic value (Fig. 6/7 y-axis range)
};

class FiveDesignCoa : public ::testing::TestWithParam<DesignCoa> {};

TEST_P(FiveDesignCoa, MatchesValidatedValue) {
  const DesignCoa& d = GetParam();
  const double coa =
      av::capacity_oriented_availability(ent::RedundancyDesign{d.counts}, rates());
  EXPECT_NEAR(coa, d.coa, 2e-5);
  // All values sit inside the paper's Fig. 6/7 axis range.
  EXPECT_GT(coa, 0.9955);
  EXPECT_LT(coa, 0.9965);
}

INSTANTIATE_TEST_SUITE_P(PaperDesigns, FiveDesignCoa,
                         ::testing::Values(DesignCoa{{1, 1, 1, 1}, 0.99561},
                                           DesignCoa{{2, 1, 1, 1}, 0.99617},
                                           DesignCoa{{1, 2, 1, 1}, 0.99610},
                                           DesignCoa{{1, 1, 2, 1}, 0.99644},
                                           DesignCoa{{1, 1, 1, 2}, 0.99637}));

TEST(NetworkSrn, RedundancyOrderingFollowsMttr) {
  // Paper observation: redundancy on the tier with the lowest recovery rate
  // (APP) buys the most COA; and every redundant design beats no redundancy.
  const auto coa = [&](std::array<unsigned, 4> c) {
    return av::capacity_oriented_availability(ent::RedundancyDesign{c}, rates());
  };
  const double none = coa({1, 1, 1, 1});
  const double dns2 = coa({2, 1, 1, 1});
  const double web2 = coa({1, 2, 1, 1});
  const double app2 = coa({1, 1, 2, 1});
  const double db2 = coa({1, 1, 1, 2});
  EXPECT_GT(dns2, none);
  EXPECT_GT(web2, none);
  EXPECT_GT(app2, none);
  EXPECT_GT(db2, none);
  // APP has the longest MTTR (1.0 h) -> largest gain; WEB the shortest
  // (0.58 h) -> smallest gain.
  EXPECT_GT(app2, db2);
  EXPECT_GT(db2, dns2);
  EXPECT_GT(dns2, web2);
}

TEST(NetworkSrn, ClosedFormMatchesSrnSolution) {
  for (const auto& design : ent::paper_designs()) {
    const double srn = av::capacity_oriented_availability(design, rates());
    const double closed = closed_form_oracle::coa_closed_form(design, rates());
    EXPECT_NEAR(srn, closed, 1e-9) << design.name();
  }
  const double srn = av::capacity_oriented_availability(ent::example_network_design(), rates());
  const double closed = closed_form_oracle::coa_closed_form(ent::example_network_design(), rates());
  EXPECT_NEAR(srn, closed, 1e-9);
}

TEST(NetworkSrn, TripleRedundancyDoesNotPayOff) {
  // Capacity-oriented availability is NOT monotone in redundancy: the second
  // app server buys a lot (it removes the tier-death term), but a third one
  // *lowers* COA because the capacity average shifts toward the tier with
  // the worst per-server uptime (app has the longest patch MTTR).  This is a
  // property of the paper's COA reward, worth pinning down.
  const auto coa = [&](unsigned apps) {
    return av::capacity_oriented_availability(ent::RedundancyDesign{{1, 1, apps, 1}}, rates());
  };
  const double one = coa(1), two = coa(2), three = coa(3);
  EXPECT_GT(two, one);
  EXPECT_LT(three, two);
  EXPECT_GT(three, one);
}

TEST(NetworkSrn, MissingRatesRejected) {
  std::map<ent::ServerRole, av::AggregatedRates> partial;
  partial.emplace(ent::ServerRole::kDns, rates().at(ent::ServerRole::kDns));
  EXPECT_THROW((void)av::build_network_srn(ent::RedundancyDesign{{1, 1, 1, 1}}, partial),
               std::invalid_argument);
}

TEST(NetworkSrn, InvalidTierRatesRejected) {
  // lambda_eq and mu_eq are the per-token rates lambda * #Pup and mu * #Ppd:
  // zero, negative, non-finite, or too large to stay finite at every token
  // count.  The builder, an in-place re-rate and the closed form (which
  // shares tier_rates) all refuse them.
  const ent::RedundancyDesign design = ent::example_network_design();
  const double huge = std::numeric_limits<double>::max() / 2.0;
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), huge}) {
    for (const bool recovery : {false, true}) {
      std::map<ent::ServerRole, av::AggregatedRates> broken = rates();
      av::AggregatedRates& web = broken.at(ent::ServerRole::kWeb);
      (recovery ? web.mu_eq : web.lambda_eq) = bad;
      EXPECT_THROW((void)av::build_network_srn(design, broken), std::invalid_argument) << bad;
      av::NetworkSrn net = av::build_network_srn(design, rates());
      EXPECT_THROW(av::set_tier_rates(net, broken), std::invalid_argument) << bad;
      EXPECT_THROW((void)av::capacity_oriented_availability_lumped_detailed(design, broken),
                   std::invalid_argument)
          << bad;
    }
  }
}

TEST(NetworkSrn, EmptyDesignRejected) {
  EXPECT_THROW((void)av::build_network_srn(ent::RedundancyDesign{{0, 0, 0, 0}}, rates()),
               std::invalid_argument);
}

TEST(NetworkSrn, ZeroCountTierIsSkipped) {
  // A design without a DNS tier still works: the reward simply ranges over
  // the remaining tiers.
  const av::NetworkSrn net = av::build_network_srn(ent::RedundancyDesign{{0, 1, 1, 1}}, rates());
  EXPECT_EQ(net.up_places.count(ent::ServerRole::kDns), 0u);
  const double coa =
      av::capacity_oriented_availability(ent::RedundancyDesign{{0, 1, 1, 1}}, rates());
  EXPECT_GT(coa, 0.99);
  EXPECT_LT(coa, 1.0);
}

TEST(NetworkSrn, PatchIntervalSweepMonotone) {
  // More frequent patching lowers COA (more downtime).  Sec. V "patch
  // schedule" extension.
  const auto coa_at = [&](double interval) {
    return av::capacity_oriented_availability(ent::example_network_design(), specs(), interval);
  };
  const double weekly = coa_at(168.0);
  const double monthly = coa_at(720.0);
  const double quarterly = coa_at(2160.0);
  EXPECT_LT(weekly, monthly);
  EXPECT_LT(monthly, quarterly);
}
