// Oracle-driven test layer for the exact symmetry-lumping pass (ctest label
// `lumping`).  Every claim the lumping engine makes is pinned against an
// independent unlumped oracle:
//
//  * the counting quotient of the per-server replicated network model must
//    reproduce the hand-written counting-form NetworkSrn and the flat
//    replicated solve (steady + transient) to 1e-10;
//  * the orbit-sum probability identity: flat stationary probability summed
//    over each token-count class equals the quotient stationary probability
//    of that class, with ctmc::lump_states certifying strong lumpability of
//    the flat chain directly (no SRN-level knowledge);
//  * randomized symmetric nets, fuzzed against a naive map-based reference
//    explorer in the test_reachability_fuzz mold;
//  * the product-form (component-factorized) analyzer against the joint
//    chain on the paper designs and on randomized component nets, through a
//    50-servers-per-tier design the flat engine could never touch
//    (6,765,201 joint states vs 204 lumped).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

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
// Naive reference explorer (timed-only nets), in the test_reachability_fuzz
// mold: std::map-based BFS written against the slow SrnModel semantics API,
// sharing no code with the production explorers.
// ---------------------------------------------------------------------------

struct RefGraph {
  std::vector<pt::Marking> markings;  // discovery order
  std::map<pt::Marking, std::size_t> index;
  std::map<std::pair<std::size_t, std::size_t>, double> edges;  // (from,to) -> rate
  cm::Ctmc chain;
};

RefGraph ref_explore(const pt::SrnModel& model) {
  RefGraph graph;
  const auto intern = [&graph](const pt::Marking& m) -> std::size_t {
    const auto [it, inserted] = graph.index.try_emplace(m, graph.markings.size());
    if (inserted) graph.markings.push_back(m);
    return it->second;
  };
  intern(model.initial_marking());
  for (std::size_t from = 0; from < graph.markings.size(); ++from) {
    const pt::Marking current = graph.markings[from];
    for (pt::TransitionId t : model.enabled_timed(current)) {
      const double rate = model.rate(t, current);
      const std::size_t to = intern(model.fire(t, current));
      if (to == from) continue;  // net self loop: dropped, as in production
      graph.edges[{from, to}] += rate;
    }
  }
  graph.chain.add_states(graph.markings.size());
  for (const auto& [edge, rate] : graph.edges) {
    graph.chain.add_transition(edge.first, edge.second, rate);
  }
  return graph;
}

// ---------------------------------------------------------------------------
// Randomized symmetric nets: R exchangeable replicas of a random L-slot
// single-token state machine (a rate-randomized ring plus random chords),
// optionally coupled to a shared token pool through pool-gated chords and
// accompanied by passthrough transitions on the pool.
// ---------------------------------------------------------------------------

struct SymmetricFuzzNet {
  pt::SrnModel model;
  pt::SymmetrySpec spec;
  std::vector<std::vector<pt::PlaceId>> replicas;  // [replica][slot]
  pt::PlaceId pool = 0;
  bool has_pool = false;
};

SymmetricFuzzNet random_symmetric_net(std::mt19937_64& rng) {
  SymmetricFuzzNet net;
  std::uniform_int_distribution<int> slots_dist(2, 4);
  std::uniform_int_distribution<int> replicas_dist(2, 4);
  std::uniform_real_distribution<double> rate_dist(0.2, 3.0);
  std::uniform_int_distribution<int> coin(0, 1);

  const int slots = slots_dist(rng);
  const int replicas = replicas_dist(rng);

  net.has_pool = coin(rng) == 1;
  pt::PlaceId pad = 0;
  if (net.has_pool) {
    std::uniform_int_distribution<pt::TokenCount> pool_tokens(1, 2);
    net.pool = net.model.add_place("pool", pool_tokens(rng));
    pad = net.model.add_place("pad", 1);
  }

  // Transition templates shared by every replica: the full ring (keeps each
  // replica irreducible) plus up to two random chords, one of which may be
  // pool-gated (consumes and reproduces a pool token, coupling the replicas
  // to the shared place without breaking their exchangeability).
  struct Template {
    int from, to;
    double rate;
    bool pool_gated;
  };
  std::vector<Template> templates;
  for (int s = 0; s < slots; ++s) {
    templates.push_back({s, (s + 1) % slots, rate_dist(rng), false});
  }
  std::uniform_int_distribution<int> slot_pick(0, slots - 1);
  const int chords = std::uniform_int_distribution<int>(0, 2)(rng);
  for (int c = 0; c < chords; ++c) {
    const int from = slot_pick(rng);
    int to = slot_pick(rng);
    if (to == from) to = (to + 1) % slots;
    templates.push_back({from, to, rate_dist(rng), net.has_pool && coin(rng) == 1});
  }

  std::uniform_int_distribution<int> start_slot(0, slots - 1);
  for (int r = 0; r < replicas; ++r) {
    const int start = start_slot(rng);  // replicas may start in different slots
    std::vector<pt::PlaceId> places;
    for (int s = 0; s < slots; ++s) {
      places.push_back(net.model.add_place("r" + std::to_string(r) + "s" + std::to_string(s),
                                           s == start ? 1 : 0));
    }
    for (std::size_t i = 0; i < templates.size(); ++i) {
      const Template& tmpl = templates[i];
      const pt::TransitionId t = net.model.add_timed_transition(
          "t" + std::to_string(r) + "_" + std::to_string(i), tmpl.rate);
      net.model.add_input_arc(t, places[tmpl.from]);
      net.model.add_output_arc(t, places[tmpl.to]);
      if (tmpl.pool_gated) {
        net.model.add_input_arc(t, net.pool);
        net.model.add_output_arc(t, net.pool);
      }
    }
    net.replicas.push_back(places);
  }
  net.spec.groups.push_back({net.replicas});

  if (net.has_pool) {
    // Passthrough transitions: the pool exchanges a token with the pad at
    // random rates, exercising the non-grouped survival path of lump_model.
    const pt::TransitionId drain = net.model.add_timed_transition("drain", rate_dist(rng));
    net.model.add_input_arc(drain, net.pool);
    net.model.add_output_arc(drain, pad);
    const pt::TransitionId refill = net.model.add_timed_transition("refill", rate_dist(rng));
    net.model.add_input_arc(refill, pad);
    net.model.add_output_arc(refill, net.pool);
  }
  return net;
}

// A replica-permutation-symmetric reward on the flat net: tokens in slot 0
// across all replicas, scaled by (1 + pool occupancy) when a pool exists.
pt::RewardFunction symmetric_reward(const SymmetricFuzzNet& net) {
  std::vector<pt::PlaceId> slot0;
  for (const auto& replica : net.replicas) slot0.push_back(replica[0]);
  const bool has_pool = net.has_pool;
  const pt::PlaceId pool = net.pool;
  return [slot0, has_pool, pool](const pt::Marking& m) {
    double tokens = 0.0;
    for (const pt::PlaceId p : slot0) tokens += m[p];
    return tokens * (has_pool ? 1.0 + static_cast<double>(m[pool]) : 1.0);
  };
}

}  // namespace

// ---------------------------------------------------------------------------
// Counting quotient vs the hand-written counting net and the flat oracle
// ---------------------------------------------------------------------------

TEST(LumpModel, ReplicatedNetQuotientMatchesCountingNet) {
  const auto design = ent::example_network_design();
  const av::ReplicatedNetworkSrn flat = av::build_network_srn_replicated(design, rates());
  const pt::LumpedNet lumped = pt::lump_model(flat.model, flat.symmetry);
  const av::NetworkSrn counting = av::build_network_srn(design, rates());

  // Same shape: two count places and two transitions per deployed tier, with
  // the same initial token counts the counting form assigns.
  EXPECT_EQ(lumped.model().place_count(), counting.model.place_count());
  EXPECT_EQ(lumped.model().transition_count(), counting.model.transition_count());
  ASSERT_EQ(lumped.project(flat.model.initial_marking()),
            lumped.model().initial_marking());

  // Same analysis: identical tangible state count and identical COA.
  const pt::SrnAnalyzer quotient(lumped.model(), tight_options());
  const pt::SrnAnalyzer reference(counting.model, tight_options());
  EXPECT_EQ(quotient.graph().tangible_count(), reference.graph().tangible_count());
  EXPECT_NEAR(quotient.expected_reward(lumped.lift_reward(flat.coa_reward())),
              reference.expected_reward(counting.coa_reward()), 1e-12);
}

TEST(LumpModel, QuotientMatchesFlatReplicatedOracle) {
  const auto design = ent::example_network_design();  // 6 servers: 64 flat states
  const av::ReplicatedNetworkSrn flat = av::build_network_srn_replicated(design, rates());
  const pt::LumpedNet lumped = pt::lump_model(flat.model, flat.symmetry);

  const pt::SrnAnalyzer flat_analyzer(flat.model, tight_options());
  const pt::SrnAnalyzer quotient_analyzer(lumped.model(), tight_options());
  EXPECT_EQ(flat_analyzer.graph().tangible_count(), 64u);
  EXPECT_EQ(quotient_analyzer.graph().tangible_count(), 36u);  // 2*3*3*2

  EXPECT_NEAR(flat_analyzer.expected_reward(flat.coa_reward()),
              quotient_analyzer.expected_reward(lumped.lift_reward(flat.coa_reward())),
              kSteadyTol);
}

TEST(LumpModel, OrbitSumProbabilityIdentityOnPaperNet) {
  const auto design = ent::example_network_design();
  const av::ReplicatedNetworkSrn flat = av::build_network_srn_replicated(design, rates());
  const pt::LumpedNet lumped = pt::lump_model(flat.model, flat.symmetry);

  const pt::SrnAnalyzer flat_analyzer(flat.model, tight_options());
  const pt::SrnAnalyzer quotient_analyzer(lumped.model(), tight_options());
  const pt::ReachabilityGraph& fg = flat_analyzer.graph();
  const pt::ReachabilityGraph& qg = quotient_analyzer.graph();

  // Class of each flat state = quotient index of its projection.
  std::vector<std::size_t> partition(fg.tangible_count());
  for (std::size_t i = 0; i < fg.tangible_count(); ++i) {
    partition[i] = qg.index_of(lumped.project(fg.tangible_markings[i]));
  }

  // Independent certificate: the flat chain itself is strongly lumpable over
  // this partition, and its quotient chain reproduces the quotient net's
  // stationary distribution.
  const cm::LumpabilityResult cert = cm::lump_states(fg.chain, partition, qg.tangible_count());
  EXPECT_TRUE(cert.lumpable);
  EXPECT_LT(cert.max_deviation, 1e-9);

  std::vector<double> orbit_sums(qg.tangible_count(), 0.0);
  for (std::size_t i = 0; i < fg.tangible_count(); ++i) {
    orbit_sums[partition[i]] += flat_analyzer.steady_state()[i];
  }
  const la::SteadyStateResult cert_steady = cert.quotient.steady_state(
      la::SteadyStateOptions{.tolerance = 1e-13});
  ASSERT_TRUE(cert_steady.converged);
  for (std::size_t c = 0; c < qg.tangible_count(); ++c) {
    EXPECT_NEAR(orbit_sums[c], quotient_analyzer.steady_state()[c], kSteadyTol);
    EXPECT_NEAR(cert_steady.distribution[c], quotient_analyzer.steady_state()[c], kSteadyTol);
  }
}

TEST(LumpModel, TransientCurveMatchesFlatReplicated) {
  const auto design = ent::example_network_design();
  const av::ReplicatedNetworkSrn flat = av::build_network_srn_replicated(design, rates());
  const pt::LumpedNet lumped = pt::lump_model(flat.model, flat.symmetry);

  const pt::ReachabilityGraph fg = pt::build_reachability_graph(flat.model);
  const pt::ReachabilityGraph qg = pt::build_reachability_graph(lumped.model());
  const std::vector<double> grid{0.5, 2.0, 6.0, 12.0, 24.0};

  const pt::RewardFunction flat_reward = flat.coa_reward();
  const pt::RewardFunction lifted = lumped.lift_reward(flat.coa_reward());
  std::vector<double> flat_rewards, quotient_rewards;
  for (const pt::Marking& m : fg.tangible_markings) flat_rewards.push_back(flat_reward(m));
  for (const pt::Marking& m : qg.tangible_markings) quotient_rewards.push_back(lifted(m));

  std::vector<double> flat_initial(fg.tangible_count(), 0.0);
  flat_initial[fg.index_of(flat.model.initial_marking())] = 1.0;
  std::vector<double> quotient_initial(qg.tangible_count(), 0.0);
  quotient_initial[qg.index_of(lumped.project(flat.model.initial_marking()))] = 1.0;

  cm::TransientSolver flat_solver, quotient_solver;
  flat_solver.prepare(fg.chain);
  quotient_solver.prepare(qg.chain);
  std::vector<double> flat_curve, quotient_curve;
  const double flat_acc = flat_solver.reward_curve(flat_initial, flat_rewards, grid, flat_curve);
  const double quotient_acc =
      quotient_solver.reward_curve(quotient_initial, quotient_rewards, grid, quotient_curve);

  for (std::size_t j = 0; j < grid.size(); ++j) {
    EXPECT_NEAR(flat_curve[j], quotient_curve[j], kCurveTol) << "t=" << grid[j];
  }
  EXPECT_NEAR(flat_acc, quotient_acc, kAccumulatedTol);
}

// ---------------------------------------------------------------------------
// Exactness-violation rejection
// ---------------------------------------------------------------------------

namespace {

// Two replicas of an up/down toggle; `mutate` perturbs the construction.
struct ToggleNet {
  pt::SrnModel model;
  pt::SymmetrySpec spec;
  std::vector<pt::PlaceId> up, down;
  std::vector<pt::TransitionId> fail;
};

ToggleNet toggle_net() {
  ToggleNet net;
  for (int r = 0; r < 2; ++r) {
    const auto up = net.model.add_place("up" + std::to_string(r), 1);
    const auto down = net.model.add_place("down" + std::to_string(r), 0);
    const auto fail = net.model.add_timed_transition("fail" + std::to_string(r), 0.5);
    net.model.add_input_arc(fail, up);
    net.model.add_output_arc(fail, down);
    const auto fix = net.model.add_timed_transition("fix" + std::to_string(r), 2.0);
    net.model.add_input_arc(fix, down);
    net.model.add_output_arc(fix, up);
    net.up.push_back(up);
    net.down.push_back(down);
    net.fail.push_back(fail);
  }
  net.spec.groups.push_back({{{net.up[0], net.down[0]}, {net.up[1], net.down[1]}}});
  return net;
}

}  // namespace

TEST(LumpModel, RejectsExactnessViolations) {
  {  // marking-dependent rate on a replica transition
    ToggleNet net = toggle_net();
    const auto t = net.model.add_timed_transition(
        "dep", [](const pt::Marking& m) { return 1.0 + m[0]; });
    net.model.add_input_arc(t, net.up[0]);
    net.model.add_output_arc(t, net.down[0]);
    EXPECT_THROW((void)pt::lump_model(net.model, net.spec), std::invalid_argument);
  }
  {  // guard on a replica transition
    ToggleNet net = toggle_net();
    net.model.set_guard(net.fail[0], [](const pt::Marking&) { return true; });
    EXPECT_THROW((void)pt::lump_model(net.model, net.spec), std::invalid_argument);
  }
  {  // asymmetric orbit: replica 1's extra transition has no counterpart
    ToggleNet net = toggle_net();
    const auto t = net.model.add_timed_transition("extra", 0.7);
    net.model.add_input_arc(t, net.up[1]);
    net.model.add_output_arc(t, net.down[1]);
    EXPECT_THROW((void)pt::lump_model(net.model, net.spec), std::invalid_argument);
  }
  {  // asymmetric rates within an orbit are two incomplete orbits
    pt::SrnModel model;
    pt::SymmetrySpec spec;
    std::vector<std::vector<pt::PlaceId>> replicas;
    for (int r = 0; r < 2; ++r) {
      const auto up = model.add_place("up" + std::to_string(r), 1);
      const auto down = model.add_place("down" + std::to_string(r), 0);
      const auto fail =
          model.add_timed_transition("fail" + std::to_string(r), r == 0 ? 0.5 : 0.6);
      model.add_input_arc(fail, up);
      model.add_output_arc(fail, down);
      const auto fix = model.add_timed_transition("fix" + std::to_string(r), 2.0);
      model.add_input_arc(fix, down);
      model.add_output_arc(fix, up);
      replicas.push_back({up, down});
    }
    spec.groups.push_back({replicas});
    EXPECT_THROW((void)pt::lump_model(model, spec), std::invalid_argument);
  }
  {  // replica holding two tokens
    ToggleNet net = toggle_net();
    pt::SrnModel model;
    const auto up0 = model.add_place("up0", 2);
    const auto down0 = model.add_place("down0", 0);
    const auto up1 = model.add_place("up1", 2);
    const auto down1 = model.add_place("down1", 0);
    pt::SymmetrySpec spec;
    spec.groups.push_back({{{up0, down0}, {up1, down1}}});
    EXPECT_THROW((void)pt::lump_model(model, spec), std::invalid_argument);
  }
  {  // inhibitor arc on a grouped place
    ToggleNet net = toggle_net();
    const auto shared = net.model.add_place("shared", 1);
    const auto t = net.model.add_timed_transition("inh", 1.0);
    net.model.add_input_arc(t, shared);
    net.model.add_output_arc(t, shared);
    net.model.add_inhibitor_arc(t, net.down[0]);
    EXPECT_THROW((void)pt::lump_model(net.model, net.spec), std::invalid_argument);
  }
  {  // overlapping groups
    ToggleNet net = toggle_net();
    pt::SymmetrySpec spec = net.spec;
    spec.groups.push_back(spec.groups.front());
    EXPECT_THROW((void)pt::lump_model(net.model, spec), std::invalid_argument);
  }
  {  // immediate transition touching a grouped place
    ToggleNet net = toggle_net();
    const auto t = net.model.add_immediate_transition("imm");
    net.model.add_input_arc(t, net.down[0]);
    net.model.add_output_arc(t, net.up[0]);
    EXPECT_THROW((void)pt::lump_model(net.model, net.spec), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Randomized symmetric nets vs the naive reference explorer
// ---------------------------------------------------------------------------

TEST(LumpModel, RandomSymmetricNetsAgreeWithNaiveOracle) {
  const la::SteadyStateOptions solve{.tolerance = 1e-13};
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    std::mt19937_64 rng(0x1a2b3c4d5e6f7788ull ^ (seed * 0x9e3779b97f4a7c15ull));
    const SymmetricFuzzNet net = random_symmetric_net(rng);
    const pt::LumpedNet lumped = pt::lump_model(net.model, net.spec);

    // Oracle side: naive flat exploration and flat steady state.
    const RefGraph flat = ref_explore(net.model);
    const la::SteadyStateResult flat_steady = flat.chain.steady_state(solve);
    ASSERT_TRUE(flat_steady.converged);

    // Production side: the quotient net through the ordinary analyzer.
    pt::AnalyzerOptions options;
    options.steady_state = solve;
    const pt::SrnAnalyzer quotient(lumped.model(), options);
    const pt::ReachabilityGraph& qg = quotient.graph();
    ASSERT_LE(qg.tangible_count(), flat.markings.size());

    std::vector<std::size_t> partition(flat.markings.size());
    for (std::size_t i = 0; i < flat.markings.size(); ++i) {
      partition[i] = qg.index_of(lumped.project(flat.markings[i]));
    }

    // Certificate on the flat chain alone.
    const cm::LumpabilityResult cert =
        cm::lump_states(flat.chain, partition, qg.tangible_count());
    EXPECT_TRUE(cert.lumpable) << "max deviation " << cert.max_deviation;

    // Orbit-sum identity.
    std::vector<double> orbit_sums(qg.tangible_count(), 0.0);
    for (std::size_t i = 0; i < flat.markings.size(); ++i) {
      orbit_sums[partition[i]] += flat_steady.distribution[i];
    }
    for (std::size_t c = 0; c < qg.tangible_count(); ++c) {
      EXPECT_NEAR(orbit_sums[c], quotient.steady_state()[c], kSteadyTol);
    }

    // Lifted symmetric reward: steady expectation and two transient points.
    const pt::RewardFunction flat_reward = symmetric_reward(net);
    const pt::RewardFunction lifted = lumped.lift_reward(flat_reward);
    double flat_expect = 0.0;
    for (std::size_t i = 0; i < flat.markings.size(); ++i) {
      flat_expect += flat_steady.distribution[i] * flat_reward(flat.markings[i]);
    }
    EXPECT_NEAR(flat_expect, quotient.expected_reward(lifted), kSteadyTol);

    std::vector<double> flat_rewards, quotient_rewards;
    for (const pt::Marking& m : flat.markings) flat_rewards.push_back(flat_reward(m));
    for (const pt::Marking& m : qg.tangible_markings) quotient_rewards.push_back(lifted(m));
    std::vector<double> flat_initial(flat.markings.size(), 0.0);
    flat_initial[flat.index.at(net.model.initial_marking())] = 1.0;
    std::vector<double> quotient_initial(qg.tangible_count(), 0.0);
    quotient_initial[qg.index_of(lumped.project(net.model.initial_marking()))] = 1.0;

    cm::TransientSolver flat_solver, quotient_solver;
    flat_solver.prepare(flat.chain);
    quotient_solver.prepare(qg.chain);
    const std::vector<double> grid{0.4, 2.3};
    std::vector<double> flat_curve, quotient_curve;
    (void)flat_solver.reward_curve(flat_initial, flat_rewards, grid, flat_curve);
    (void)quotient_solver.reward_curve(quotient_initial, quotient_rewards, grid,
                                       quotient_curve);
    for (std::size_t j = 0; j < grid.size(); ++j) {
      EXPECT_NEAR(flat_curve[j], quotient_curve[j], kCurveTol) << "t=" << grid[j];
    }
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
