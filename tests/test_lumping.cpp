// Oracle-driven test layer for the exact lumping of the upper-layer network
// model (ctest label `lumping`).  Every claim is pinned against an
// independent unlumped oracle:
//
//  * the counting-form NetworkSrn against a per-server net (one up/down pair
//    and constant-rate patch/recovery transitions per server): steady COA,
//    orbit sums (per-server stationary probability summed over each per-tier
//    up-count class) and transient curves, to 1e-10;
//  * the product-form (component-factorized) analyzer against the joint
//    chain on the paper designs and on randomized component nets, through a
//    50-servers-per-tier design the flat engine could never touch
//    (6,765,201 joint states vs 204 lumped).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "patchsec/avail/heterogeneous_coa.hpp"
#include "patchsec/avail/lumped_coa.hpp"
#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/transient_coa.hpp"
#include "patchsec/ctmc/ctmc.hpp"
#include "patchsec/ctmc/transient_solver.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/petri/lumping.hpp"
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
// Product form vs the joint chain
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
    EXPECT_NEAR(flat.coa, lumped.coa, kSteadyTol);
    EXPECT_NEAR(av::coa_closed_form(design, rates()), lumped.coa, kSteadyTol);

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
      EXPECT_NEAR(flat.curve[j].coa, lumped.curve[j].coa, kCurveTol) << "t=" << grid[j];
    }
    EXPECT_NEAR(flat.accumulated_coa_hours, lumped.accumulated_coa_hours, kAccumulatedTol);
  }
}

TEST(Factored, RandomComponentNetsMatchJointOracle) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(0xfeedface00c0ffeeull ^ (seed * 0x9e3779b97f4a7c15ull));
    std::uniform_int_distribution<int> component_count(2, 3);
    std::uniform_int_distribution<int> ring_size(2, 3);
    std::uniform_int_distribution<pt::TokenCount> tokens(1, 2);
    std::uniform_real_distribution<double> rate_dist(0.3, 2.5);
    std::uniform_real_distribution<double> coeff_dist(0.5, 1.5);
    std::uniform_int_distribution<int> factor_kind(0, 2);

    pt::SrnModel model;
    pt::ComponentSplit split;
    const int components = component_count(rng);
    for (int c = 0; c < components; ++c) {
      const int ring = ring_size(rng);
      std::vector<pt::PlaceId> places;
      for (int s = 0; s < ring; ++s) {
        places.push_back(model.add_place("c" + std::to_string(c) + "p" + std::to_string(s),
                                         s == 0 ? tokens(rng) : 0));
      }
      for (int s = 0; s < ring; ++s) {
        const pt::TransitionId t = model.add_timed_transition(
            "c" + std::to_string(c) + "t" + std::to_string(s), rate_dist(rng));
        model.add_input_arc(t, places[s]);
        model.add_output_arc(t, places[(s + 1) % ring]);
      }
      split.components.push_back(places);
    }

    // Random separable reward: two sum-of-product terms with per-component
    // factors drawn from {1, affine in a random place}.
    pt::SeparableReward reward;
    for (int term_index = 0; term_index < 2; ++term_index) {
      pt::SeparableReward::Term term;
      term.coefficient = coeff_dist(rng);
      term.factors.resize(components);
      for (int c = 0; c < components; ++c) {
        if (factor_kind(rng) == 0) continue;  // constant-1 factor
        const auto& places = split.components[c];
        const pt::PlaceId p =
            places[std::uniform_int_distribution<std::size_t>(0, places.size() - 1)(rng)];
        const double offset = coeff_dist(rng);
        const double scale = coeff_dist(rng);
        term.factors[c] = [offset, scale, p](const pt::Marking& m) {
          return offset + scale * static_cast<double>(m[p]);
        };
      }
      reward.terms.push_back(std::move(term));
    }
    const pt::RewardFunction joint_reward = [&reward](const pt::Marking& m) {
      double total = 0.0;
      for (const auto& term : reward.terms) {
        double product = term.coefficient;
        for (const auto& factor : term.factors) {
          if (factor) product *= factor(m);
        }
        total += product;
      }
      return total;
    };

    const pt::FactoredAnalyzer factored(model, split, tight_options());
    const pt::SrnAnalyzer joint(model, tight_options());
    EXPECT_NEAR(joint.expected_reward(joint_reward), factored.expected_reward(reward),
                kSteadyTol);
    EXPECT_EQ(factored.diagnostics().flat_states, joint.graph().tangible_count());

    const std::vector<double> grid{0.7, 1.9, 4.2};
    std::vector<double> joint_rewards;
    for (const pt::Marking& m : joint.graph().tangible_markings) {
      joint_rewards.push_back(joint_reward(m));
    }
    std::vector<double> joint_initial(joint.graph().tangible_count(), 0.0);
    joint_initial[joint.graph().index_of(model.initial_marking())] = 1.0;
    cm::TransientSolver joint_solver;
    joint_solver.prepare(joint.graph().chain);
    std::vector<double> joint_curve, factored_curve;
    const double joint_acc =
        joint_solver.reward_curve(joint_initial, joint_rewards, grid, joint_curve);
    const double factored_acc = factored.reward_curve(reward, grid, factored_curve);
    for (std::size_t j = 0; j < grid.size(); ++j) {
      EXPECT_NEAR(joint_curve[j], factored_curve[j], kCurveTol) << "t=" << grid[j];
    }
    EXPECT_NEAR(joint_acc, factored_acc, kAccumulatedTol);
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
  // The closed form handles k = 50 independently of the lumping machinery.
  EXPECT_NEAR(av::coa_closed_form(design, rates()), lumped.coa, kAccumulatedTol);
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

TEST(Factored, ValidationErrors) {
  pt::SrnModel model;
  const auto a = model.add_place("a", 1);
  const auto b = model.add_place("b", 0);
  const auto t = model.add_timed_transition("t", 1.0);
  model.add_input_arc(t, a);
  model.add_output_arc(t, b);
  const auto back = model.add_timed_transition("back", 1.0);
  model.add_input_arc(back, b);
  model.add_output_arc(back, a);

  {  // spanning transition
    pt::ComponentSplit split;
    split.components = {{a}, {b}};
    EXPECT_THROW((void)pt::component_transitions(model, split), std::invalid_argument);
  }
  {  // not a partition: place missing
    pt::ComponentSplit split;
    split.components = {{a}};
    EXPECT_THROW((void)pt::component_transitions(model, split), std::invalid_argument);
  }
  {  // not a partition: duplicate place
    pt::ComponentSplit split;
    split.components = {{a, b}, {b}};
    EXPECT_THROW((void)pt::component_transitions(model, split), std::invalid_argument);
  }
  {  // immediates break the product form
    pt::SrnModel imm = model;
    const auto i = imm.add_immediate_transition("imm");
    imm.add_input_arc(i, a);
    imm.add_output_arc(i, b);
    pt::ComponentSplit split;
    split.components = {{a, b}};
    EXPECT_THROW((void)pt::component_transitions(imm, split), std::invalid_argument);
  }
  {  // well-formed split succeeds and assigns both transitions
    pt::ComponentSplit split;
    split.components = {{a, b}};
    const auto assignment = pt::component_transitions(model, split);
    ASSERT_EQ(assignment.size(), 1u);
    EXPECT_EQ(assignment[0].size(), 2u);
  }
}

TEST(Factored, ExtremeGridPointsAreRefused) {
  // +inf is not a time; 1e300 is, but its uniformization window is beyond
  // any expansion length.  Both must throw before a double too large for
  // size_t is converted to a panel count or a Poisson mode.
  const av::LumpedNetworkModel lumped =
      av::build_lumped_network(ent::example_network_design(), rates());
  const pt::FactoredAnalyzer analyzer(lumped.net.model, lumped.split, tight_options());
  std::vector<double> values;
  EXPECT_THROW(
      (void)analyzer.reward_curve(lumped.coa, {0.0, std::numeric_limits<double>::infinity()},
                                  values),
      std::invalid_argument);
  EXPECT_THROW((void)analyzer.reward_curve(lumped.coa, {0.0, 1e300}, values), std::runtime_error);
}
