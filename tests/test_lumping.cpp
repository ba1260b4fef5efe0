// Oracle-driven test layer for the exact lumping of the upper-layer network
// model (ctest label `lumping`).  Every claim is pinned against an
// independent unlumped oracle:
//
//  * the counting-form NetworkSrn against a per-server net (one up/down pair
//    and constant-rate patch/recovery transitions per server): steady COA,
//    orbit sums (per-server stationary probability summed over each per-tier
//    up-count class) and transient curves, to 1e-10;
//  * the closed form of avail/lumped_coa.hpp against the flat joint chain on
//    the paper designs (1e-12), and through a 50-servers-per-tier design the
//    flat engine could never touch (6,765,201 joint states);
//  * the closed form across a stiffness and size envelope (rates 1e-6..1e6
//    per hour, k up to 1,000 per tier, t -> 0, s t -> inf, pi -> 0, pi -> 1):
//    steady COA against the birth-death oracle of closed_form_oracle.hpp,
//    curves against the flat oracle where it finishes, bounds everywhere.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "closed_form_oracle.hpp"
#include "patchsec/avail/heterogeneous_coa.hpp"
#include "patchsec/avail/lumped_coa.hpp"
#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/transient_coa.hpp"
#include "patchsec/ctmc/ctmc.hpp"
#include "patchsec/ctmc/transient_solver.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/petri/reachability.hpp"

namespace av = patchsec::avail;
namespace cm = patchsec::ctmc;
namespace ent = patchsec::enterprise;
namespace la = patchsec::linalg;
namespace pt = patchsec::petri;

namespace {

constexpr double kSteadyTol = 1e-10;
constexpr double kCurveTol = 1e-10;
constexpr double kAccumulatedTol = 1e-9;
// The closed form against the flat solve and the birth-death oracle.
constexpr double kClosedFormTol = 1e-12;

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

pt::AnalyzerOptions tight_options() {
  pt::AnalyzerOptions options;
  options.steady_state.tolerance = 1e-13;
  return options;
}

ent::RedundancyDesign uniform_design(unsigned k) {
  ent::RedundancyDesign design;
  design.counts = {k, k, k, k};
  return design;
}

// ---------------------------------------------------------------------------
// Per-server oracle for the counting-form network net
// ---------------------------------------------------------------------------

// The upper layer written per server (avail::build_heterogeneous_srn with
// every server of a tier at that tier's rates): one up/down place pair and
// one constant-rate lambda/mu transition pair per server, so no rate
// depends on a token count.  Its chain has 2^N states; summed over per-tier
// up-counts it must reproduce the counting net, whose rates are
// lambda * #Pup and mu * #Pdown.
av::HeterogeneousNetworkSrn per_server_net(const ent::RedundancyDesign& design) {
  std::vector<av::InstanceRates> instances;
  for (unsigned r = 0; r < ent::kRoleCount; ++r) {
    const auto role = static_cast<ent::ServerRole>(r);
    for (unsigned i = 0; i < design.count(role); ++i) {
      instances.push_back({role, rates().at(role)});
    }
  }
  return av::build_heterogeneous_srn(instances);
}

// The counting-net marking of a per-server marking: per tier, the number of
// servers up and down.
pt::Marking count_marking(const av::HeterogeneousNetworkSrn& flat,
                          const av::NetworkSrn& counting, const pt::Marking& m) {
  pt::Marking out(counting.model.place_count(), 0);
  for (std::size_t i = 0; i < flat.up_places.size(); ++i) {
    const pt::TokenCount up = m[flat.up_places[i]];
    out[counting.up_places.at(flat.roles[i])] += up;
    out[counting.down_places.at(flat.roles[i])] += 1 - up;
  }
  return out;
}

}  // namespace

TEST(CountingNet, SteadyStateAndOrbitSumsMatchPerServerNet) {
  const auto design = ent::example_network_design();  // {1, 2, 2, 1}: 6 servers
  const av::HeterogeneousNetworkSrn flat = per_server_net(design);
  const av::NetworkSrn counting = av::build_network_srn(design, rates());
  const pt::SrnAnalyzer flat_analyzer(flat.model, tight_options());
  const pt::SrnAnalyzer counting_analyzer(counting.model, tight_options());
  const pt::ReachabilityGraph& fg = flat_analyzer.graph();
  const pt::ReachabilityGraph& cg = counting_analyzer.graph();
  ASSERT_EQ(fg.tangible_count(), 64u);  // 2^6
  ASSERT_EQ(cg.tangible_count(), 36u);  // 2*3*3*2

  // The COA reward reads only per-tier up-counts, so the per-server reward
  // is the counting reward of the aggregated marking.
  const pt::RewardFunction coa = counting.coa_reward();
  EXPECT_NEAR(flat_analyzer.expected_reward([&](const pt::Marking& m) {
                return coa(count_marking(flat, counting, m));
              }),
              counting_analyzer.expected_reward(coa), kSteadyTol);

  // Orbit sums: the per-server probability of each up-count class is the
  // counting net's probability of that marking.
  std::vector<double> orbit_sums(cg.tangible_count(), 0.0);
  for (std::size_t i = 0; i < fg.tangible_count(); ++i) {
    orbit_sums[cg.index_of(count_marking(flat, counting, fg.tangible_markings[i]))] +=
        flat_analyzer.steady_state()[i];
  }
  for (std::size_t c = 0; c < cg.tangible_count(); ++c) {
    EXPECT_NEAR(orbit_sums[c], counting_analyzer.steady_state()[c], kSteadyTol) << "class " << c;
  }
}

TEST(CountingNet, TransientCurvesMatchPerServerNet) {
  const auto design = ent::example_network_design();
  const av::NetworkSrn counting = av::build_network_srn(design, rates());
  const pt::ReachabilityGraph cg = pt::build_reachability_graph(counting.model);
  const pt::RewardFunction coa = counting.coa_reward();
  std::vector<double> counting_rewards;
  for (const pt::Marking& m : cg.tangible_markings) counting_rewards.push_back(coa(m));
  cm::TransientSolver counting_solver;
  counting_solver.prepare(cg.chain);
  const std::vector<double> grid{0.5, 2.0, 6.0, 12.0, 24.0};

  const av::HeterogeneousNetworkSrn flat = per_server_net(design);
  const pt::ReachabilityGraph fg = pt::build_reachability_graph(flat.model);
  ASSERT_EQ(fg.tangible_count(), 64u);
  std::vector<double> flat_rewards;
  for (const pt::Marking& m : fg.tangible_markings) {
    flat_rewards.push_back(coa(count_marking(flat, counting, m)));
  }
  cm::TransientSolver flat_solver;
  flat_solver.prepare(fg.chain);

  // The patch wave: the first server of each tier is down.  Every marking of
  // the per-server net is reachable from all-up, so it is a state of fg.
  const auto is_patch_wave = [&flat](const pt::Marking& m) {
    for (std::size_t i = 0; i < flat.up_places.size(); ++i) {
      const bool first_of_tier = i == 0 || flat.roles[i] != flat.roles[i - 1];
      if ((m[flat.up_places[i]] == 0) != first_of_tier) return false;
    }
    return true;
  };
  const auto wave = std::find_if(fg.tangible_markings.begin(), fg.tangible_markings.end(),
                                 is_patch_wave);
  ASSERT_NE(wave, fg.tangible_markings.end());
  const pt::Marking& patch_wave = *wave;
  for (const pt::Marking& start : {flat.model.initial_marking(), patch_wave}) {
    SCOPED_TRACE(start == patch_wave ? "patch wave" : "all up");
    std::vector<double> flat_initial(fg.tangible_count(), 0.0);
    flat_initial[fg.index_of(start)] = 1.0;
    std::vector<double> counting_initial(cg.tangible_count(), 0.0);
    counting_initial[cg.index_of(count_marking(flat, counting, start))] = 1.0;

    std::vector<double> flat_curve, counting_curve;
    const double flat_acc = flat_solver.reward_curve(flat_initial, flat_rewards, grid, flat_curve);
    const double counting_acc =
        counting_solver.reward_curve(counting_initial, counting_rewards, grid, counting_curve);
    for (std::size_t j = 0; j < grid.size(); ++j) {
      EXPECT_NEAR(flat_curve[j], counting_curve[j], kCurveTol) << "t=" << grid[j];
    }
    EXPECT_NEAR(flat_acc, counting_acc, kAccumulatedTol);
  }
}

// ---------------------------------------------------------------------------
// Closed form vs the joint chain
// ---------------------------------------------------------------------------

TEST(Factored, PaperDesignsSteadyStateMatchesFlatOracle) {
  std::vector<ent::RedundancyDesign> designs = ent::paper_designs();
  designs.push_back(uniform_design(2));
  designs.push_back(uniform_design(4));
  designs.push_back(uniform_design(6));
  for (const auto& design : designs) {
    SCOPED_TRACE(design.name());
    const av::CoaEvaluation flat =
        av::capacity_oriented_availability_detailed(design, rates(), tight_options());
    const av::CoaEvaluation lumped =
        av::capacity_oriented_availability_lumped_detailed(design, rates(), tight_options());
    EXPECT_NEAR(flat.coa, lumped.coa, kClosedFormTol);
    EXPECT_NEAR(closed_form_oracle::coa_closed_form(design, rates()), lumped.coa, kClosedFormTol);

    std::size_t sum = 0, product = 1;
    for (unsigned n : design.counts) {
      if (n == 0) continue;
      sum += n + 1;
      product *= n + 1;
    }
    EXPECT_EQ(lumped.diagnostics.tangible_states, sum);
    EXPECT_EQ(lumped.diagnostics.flat_states, product);
    EXPECT_EQ(flat.diagnostics.tangible_states, product);
    EXPECT_TRUE(lumped.diagnostics.converged);
  }
}

TEST(Factored, PaperDesignsTransientMatchesFlatOracle) {
  std::vector<ent::RedundancyDesign> designs{ent::example_network_design(), uniform_design(3)};
  const std::vector<double> grid{0.5, 2.0, 6.0, 12.0, 24.0};
  for (const auto& design : designs) {
    SCOPED_TRACE(design.name());
    av::TransientCoaOptions options;
    for (unsigned role = 0; role < ent::kRoleCount; ++role) {
      options.initial_down.emplace(static_cast<ent::ServerRole>(role), 1u);
    }
    const av::CoaCurveEvaluation flat =
        av::transient_coa_detailed(design, rates(), grid, options);
    const av::CoaCurveEvaluation lumped =
        av::transient_coa_lumped_detailed(design, rates(), grid, options);
    ASSERT_EQ(flat.curve.size(), lumped.curve.size());
    for (std::size_t j = 0; j < grid.size(); ++j) {
      EXPECT_NEAR(flat.curve[j].coa, lumped.curve[j].coa, kClosedFormTol) << "t=" << grid[j];
    }
    // Within the flat oracle's own truncation budget, epsilon * t_max.
    EXPECT_NEAR(flat.accumulated_coa_hours, lumped.accumulated_coa_hours,
                options.uniformization.epsilon * grid.back());
    EXPECT_EQ(lumped.transient.matvec_count, 0u);  // nothing was uniformized
  }
}

TEST(Factored, FiftyServersPerTierEvaluatesExactly) {
  const ent::RedundancyDesign design = uniform_design(50);
  const av::CoaEvaluation lumped =
      av::capacity_oriented_availability_lumped_detailed(design, rates(), tight_options());
  EXPECT_EQ(lumped.diagnostics.tangible_states, 4u * 51u);
  EXPECT_EQ(lumped.diagnostics.flat_states, 51u * 51u * 51u * 51u);
  EXPECT_GE(lumped.diagnostics.flat_states / lumped.diagnostics.tangible_states, 100u);
  EXPECT_TRUE(lumped.diagnostics.converged);
  EXPECT_NEAR(closed_form_oracle::coa_closed_form(design, rates()), lumped.coa, kClosedFormTol);
  EXPECT_GT(lumped.coa, 0.9);
  EXPECT_LE(lumped.coa, 1.0);

  // Transient: a deep patch wave heals toward the steady state.
  av::TransientCoaOptions options;
  for (unsigned role = 0; role < ent::kRoleCount; ++role) {
    options.initial_down.emplace(static_cast<ent::ServerRole>(role), 5u);
  }
  const std::vector<double> grid{0.5, 2.0, 6.0, 12.0, 24.0, 2000.0};
  const av::CoaCurveEvaluation curve =
      av::transient_coa_lumped_detailed(design, rates(), grid, options);
  EXPECT_TRUE(curve.diagnostics.converged);
  for (const av::CoaPoint& point : curve.curve) {
    EXPECT_GE(point.coa, 0.0);
    EXPECT_LE(point.coa, 1.0);
  }
  EXPECT_LT(curve.curve.front().coa, curve.curve.back().coa);  // the dip heals
  EXPECT_NEAR(curve.curve.back().coa, lumped.coa, 1e-6);       // t = 2000 h is steady
}


TEST(Factored, ExtremeGridPoints) {
  // +inf and NaN are not times.  1e300 is: the closed form has no expansion
  // whose length grows with t, so the curve there is the steady state and
  // the graded quadrature mesh stays O(log t) panels.
  const auto design = ent::example_network_design();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)av::transient_coa_lumped_detailed(design, rates(), {0.0, kInf}),
               std::invalid_argument);
  EXPECT_THROW((void)av::transient_coa_lumped_detailed(design, rates(), {0.0, std::nan("")}),
               std::invalid_argument);
  EXPECT_THROW((void)av::transient_coa_lumped_detailed(design, rates(), {1.0, 0.5}),
               std::invalid_argument);
  EXPECT_THROW((void)av::transient_coa_lumped_detailed(design, rates(), {-1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)av::transient_coa_lumped_detailed(design, rates(), {}),
               std::invalid_argument);

  const double steady = av::capacity_oriented_availability_lumped_detailed(design, rates()).coa;
  const av::CoaCurveEvaluation huge =
      av::transient_coa_lumped_detailed(design, rates(), {0.0, 1e300});
  EXPECT_NEAR(huge.curve[1].coa, steady, kClosedFormTol);
  EXPECT_NEAR(huge.accumulated_coa_hours / 1e300, steady, kClosedFormTol);
}

TEST(Factored, NonFiniteOrNonPositiveRatesAreRefused) {
  // One rate check guards the flat net and the closed form: a bad rate is
  // refused before anything is built, instead of surfacing as NaN.
  const auto design = ent::example_network_design();
  const std::vector<double> grid{0.0, 1.0};
  for (const double bad : {std::numeric_limits<double>::infinity(), std::nan(""), 0.0, -1.0}) {
    for (const bool patch_rate : {true, false}) {
      SCOPED_TRACE(std::string(patch_rate ? "lambda_eq = " : "mu_eq = ") + std::to_string(bad));
      auto broken = rates();
      av::AggregatedRates& app = broken.at(ent::ServerRole::kApp);
      (patch_rate ? app.lambda_eq : app.mu_eq) = bad;
      EXPECT_THROW((void)av::capacity_oriented_availability_lumped_detailed(design, broken),
                   std::invalid_argument);
      EXPECT_THROW((void)av::transient_coa_lumped_detailed(design, broken, grid),
                   std::invalid_argument);
      EXPECT_THROW((void)av::build_network_srn(design, broken), std::invalid_argument);
    }
  }
  // A rate of a role the design does not deploy is never read.
  auto unused = rates();
  unused.at(ent::ServerRole::kDns).lambda_eq = std::nan("");
  ent::RedundancyDesign no_dns;
  no_dns.counts = {0, 1, 1, 1};
  EXPECT_NO_THROW((void)av::capacity_oriented_availability_lumped_detailed(no_dns, unused));
}

// ---------------------------------------------------------------------------
// The closed form across the stiffness and size envelope
// ---------------------------------------------------------------------------

namespace {

/// Patch and recovery rates per hour at the envelope's corners and between.
const std::vector<double> kEnvelopeRates{1e-6, 1e-3, 1.0, 1e3, 1e6};

/// Rate assignment (i, j) of the envelope: tier r patches at rate
/// kEnvelopeRates[(i + r) % 5] and recovers at kEnvelopeRates[(j + 2r) % 5],
/// so every assignment mixes stiff and slow tiers, pi -> 0 and pi -> 1.
std::map<ent::ServerRole, av::AggregatedRates> envelope_rates(std::size_t i, std::size_t j) {
  std::map<ent::ServerRole, av::AggregatedRates> out;
  const std::size_t n = kEnvelopeRates.size();
  for (unsigned r = 0; r < ent::kRoleCount; ++r) {
    av::AggregatedRates tier;
    tier.lambda_eq = kEnvelopeRates[(i + r) % n];
    tier.mu_eq = kEnvelopeRates[(j + 2 * r) % n];
    out.emplace(static_cast<ent::ServerRole>(r), tier);
  }
  return out;
}

/// Waves of the envelope's transient cases.  Both take one DNS server and
/// all but one DB server down and leave APP up; the second also takes the
/// whole WEB tier down through a count the clamp must cut to the tier size.
std::vector<std::map<ent::ServerRole, unsigned>> envelope_waves(
    const ent::RedundancyDesign& design) {
  std::map<ent::ServerRole, unsigned> partial{
      {ent::ServerRole::kDns, 1}, {ent::ServerRole::kDb, design.count(ent::ServerRole::kDb) - 1}};
  std::map<ent::ServerRole, unsigned> outage = partial;
  outage.emplace(ent::ServerRole::kWeb, 1'000'000);
  return {partial, outage};
}

/// The COA reward of a wave's marking, read off the counts.
double wave_reward(const ent::RedundancyDesign& design,
                   const std::map<ent::ServerRole, unsigned>& wave) {
  unsigned total = 0, up = 0;
  for (unsigned r = 0; r < ent::kRoleCount; ++r) {
    const auto role = static_cast<ent::ServerRole>(r);
    const unsigned n = design.count(role);
    const auto it = wave.find(role);
    const unsigned down = it == wave.end() ? 0 : std::min(it->second, n);
    if (n > 0 && down == n) return 0.0;
    total += n;
    up += n - down;
  }
  return static_cast<double>(up) / static_cast<double>(total);
}

/// Sum over tiers of n_r (lambda_r + mu_r): the fastest rate in COA(t).
double rate_scale(const ent::RedundancyDesign& design,
                  const std::map<ent::ServerRole, av::AggregatedRates>& r) {
  double total = 0.0;
  for (const auto& [role, tier] : r) total += design.count(role) * (tier.lambda_eq + tier.mu_eq);
  return total;
}

}  // namespace

TEST(ClosedFormEnvelope, SteadyStateMatchesBirthDeathOracle) {
  std::vector<ent::RedundancyDesign> designs;
  for (const unsigned k : {1u, 2u, 6u, 50u, 1000u}) designs.push_back(uniform_design(k));
  designs.push_back(ent::RedundancyDesign{{1, 1000, 6, 50}});
  for (const auto& design : designs) {
    for (std::size_t i = 0; i < kEnvelopeRates.size(); ++i) {
      for (std::size_t j = 0; j < kEnvelopeRates.size(); ++j) {
        SCOPED_TRACE(design.name() + " rates (" + std::to_string(i) + ", " + std::to_string(j) +
                     ")");
        const auto r = envelope_rates(i, j);
        const double coa = av::capacity_oriented_availability_lumped_detailed(design, r).coa;
        EXPECT_NEAR(coa, closed_form_oracle::coa_closed_form(design, r), kClosedFormTol);
        EXPECT_GE(coa, 0.0);
        EXPECT_LE(coa, 1.0);
      }
    }
  }
}

TEST(ClosedFormEnvelope, CurvesMatchFlatOracleWhereItFinishes) {
  // Times scale with 1 / Lambda so the flat uniformization stays short at
  // every rate: the slow tiers sit in the t -> 0 corner, the fast ones run
  // tens of e-folds.  The flat oracle runs at epsilon 1e-14, so the 1e-12
  // budget is the closed form's.
  const std::vector<ent::RedundancyDesign> designs{uniform_design(1),
                                                   ent::RedundancyDesign{{2, 1, 3, 2}},
                                                   uniform_design(6)};
  for (const auto& design : designs) {
    for (std::size_t i = 0; i < kEnvelopeRates.size(); ++i) {
      for (std::size_t j = 0; j < kEnvelopeRates.size(); ++j) {
        SCOPED_TRACE(design.name() + " rates (" + std::to_string(i) + ", " + std::to_string(j) +
                     ")");
        const auto r = envelope_rates(i, j);
        const double scale = rate_scale(design, r);
        std::vector<double> grid;
        for (const double c : {0.0, 1e-9, 1e-3, 0.3, 3.0, 40.0}) grid.push_back(c / scale);
        for (const auto& wave : envelope_waves(design)) {
          SCOPED_TRACE(wave.count(ent::ServerRole::kWeb) ? "web outage" : "partial wave");
          av::TransientCoaOptions options;
          options.initial_down = wave;
          options.uniformization.epsilon = 1e-14;
          const av::CoaCurveEvaluation flat =
              av::transient_coa_detailed(design, r, grid, options);
          const av::CoaCurveEvaluation lumped =
              av::transient_coa_lumped_detailed(design, r, grid, options);
          ASSERT_EQ(lumped.curve.size(), grid.size());
          for (std::size_t p = 0; p < grid.size(); ++p) {
            EXPECT_NEAR(lumped.curve[p].coa, flat.curve[p].coa, kClosedFormTol) << "point " << p;
            EXPECT_GE(lumped.curve[p].coa, 0.0);
            EXPECT_LE(lumped.curve[p].coa, 1.0);
          }
          EXPECT_NEAR(lumped.accumulated_coa_hours, flat.accumulated_coa_hours,
                      1e-12 * grid.back());
        }
      }
    }
  }
}

TEST(ClosedFormEnvelope, CurvesStayBoundedAndReachSteadyStateAtAnySize) {
  // Beyond the flat oracle: k up to 1,000 per tier.  The curve starts at the
  // wave's reward exactly, is continuous at t -> 0, stays in [0, 1], and
  // reaches the steady state once s t -> inf for every tier; the accumulated
  // COA is a capacity in [0, t_back] and averages to the steady state over
  // a horizon of 1e300 h.
  const std::vector<ent::RedundancyDesign> designs{uniform_design(50), uniform_design(1000),
                                                   ent::RedundancyDesign{{1, 1000, 6, 50}}};
  for (const auto& design : designs) {
    for (std::size_t i = 0; i < kEnvelopeRates.size(); ++i) {
      for (std::size_t j = 0; j < kEnvelopeRates.size(); ++j) {
        SCOPED_TRACE(design.name() + " rates (" + std::to_string(i) + ", " + std::to_string(j) +
                     ")");
        const auto r = envelope_rates(i, j);
        const double scale = rate_scale(design, r);
        const double steady = av::capacity_oriented_availability_lumped_detailed(design, r).coa;
        std::vector<double> grid{0.0, 1e-300, 1e-9 / scale, 1.0 / scale, 1e3, 1e9, 1e300};
        std::sort(grid.begin(), grid.end());
        for (const auto& wave : envelope_waves(design)) {
          SCOPED_TRACE(wave.count(ent::ServerRole::kWeb) ? "web outage" : "partial wave");
          av::TransientCoaOptions options;
          options.initial_down = wave;
          const av::CoaCurveEvaluation eval =
              av::transient_coa_lumped_detailed(design, r, grid, options);
          ASSERT_EQ(eval.curve.size(), grid.size());
          EXPECT_DOUBLE_EQ(eval.curve[0].coa, wave_reward(design, wave));
          EXPECT_NEAR(eval.curve[1].coa, eval.curve[0].coa, kClosedFormTol);
          for (const av::CoaPoint& point : eval.curve) {
            EXPECT_GE(point.coa, 0.0) << "t=" << point.hours;
            EXPECT_LE(point.coa, 1.0) << "t=" << point.hours;
          }
          EXPECT_NEAR(eval.curve.back().coa, steady, kClosedFormTol);
          EXPECT_GE(eval.accumulated_coa_hours, 0.0);
          EXPECT_LE(eval.accumulated_coa_hours, grid.back());
          EXPECT_NEAR(eval.accumulated_coa_hours / grid.back(), steady, kClosedFormTol);
          EXPECT_EQ(eval.transient.matvec_count, 0u);
        }
      }
    }
  }
}
