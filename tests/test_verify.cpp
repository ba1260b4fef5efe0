// Tests for the static model verifier (petri::verify): certificate math
// against the definitions AND against the reachability-based dynamic oracles
// (structural_oracle.hpp's analyze_structure and transient_states, and ctmc
// irreducibility), a seeded-defect corpus where every lint rule must fire on
// a deliberately broken net, clean passes over all paper nets plus a 50-seed
// generated sweep, the sparse structural pass against the dense oracle
// (verify_oracle.hpp) with its structure key, Farkas work counter and Session
// memo, and the end-to-end Session/JSON wiring.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>

#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/server_srn.hpp"
#include "patchsec/core/report.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/petri/reachability.hpp"
#include "patchsec/petri/verify.hpp"
#include "patchsec/testgen/scenario_generator.hpp"
#include "structural_oracle.hpp"
#include "verify_oracle.hpp"

namespace pt = patchsec::petri;
namespace so = structural_oracle;
namespace av = patchsec::avail;
namespace ent = patchsec::enterprise;
namespace core = patchsec::core;
namespace tg = patchsec::testgen;

namespace {

bool has_finding(const pt::VerifyReport& report, const std::string& rule) {
  for (const pt::VerifyFinding& f : report.findings) {
    if (f.rule == rule) return true;
  }
  return false;
}

pt::SrnModel paper_server_net(double patch_interval_hours = 720.0) {
  const auto specs = ent::paper_server_specs();
  av::ServerSrnOptions options;
  options.patch_interval_hours = patch_interval_hours;
  return av::build_server_srn(specs.begin()->second, options).model;
}

av::NetworkSrn paper_network_net(const ent::RedundancyDesign& design) {
  const core::Session session(core::Scenario::paper_case_study());
  return av::build_network_srn(design, session.aggregated_rates());
}

// A minimal clean cyclic net (two places exchanging one token) to host one
// seeded defect at a time without tripping unrelated rules.
pt::SrnModel token_ring() {
  pt::SrnModel net;
  const auto a = net.add_place("A", 1);
  const auto b = net.add_place("B", 0);
  const auto fwd = net.add_timed_transition("fwd", 1.0);
  net.add_input_arc(fwd, a);
  net.add_output_arc(fwd, b);
  const auto back = net.add_timed_transition("back", 2.0);
  net.add_input_arc(back, b);
  net.add_output_arc(back, a);
  return net;
}

}  // namespace

// ---------- certificates: the linear algebra against its definition ----------

TEST(Semiflows, SatisfyDefiningIdentityOnPaperNets) {
  const pt::SrnModel server = paper_server_net();
  const auto matrix = pt::incidence_matrix(server);
  ASSERT_EQ(matrix.size(), server.place_count());

  const pt::VerifyReport report = pt::verify_model(server);
  const pt::VerifyCertificates& c = report.certificates;
  ASSERT_TRUE(c.p_semiflows_complete);
  ASSERT_TRUE(c.t_semiflows_complete);
  ASSERT_FALSE(c.p_semiflows.empty());
  ASSERT_FALSE(c.t_semiflows.empty());

  // yT C = 0, y >= 0, y != 0 for every P-semiflow.
  for (const auto& y : c.p_semiflows) {
    ASSERT_EQ(y.size(), server.place_count());
    long long mass = 0;
    for (long long v : y) {
      EXPECT_GE(v, 0);
      mass += v;
    }
    EXPECT_GT(mass, 0);
    for (std::size_t t = 0; t < server.transition_count(); ++t) {
      long long dot = 0;
      for (std::size_t p = 0; p < server.place_count(); ++p) dot += y[p] * matrix[p][t];
      EXPECT_EQ(dot, 0) << "P-semiflow violates yT C = 0 at transition "
                        << server.transition_name(t);
    }
  }
  // C x = 0, x >= 0, x != 0 for every T-semiflow.
  for (const auto& x : c.t_semiflows) {
    ASSERT_EQ(x.size(), server.transition_count());
    long long mass = 0;
    for (long long v : x) {
      EXPECT_GE(v, 0);
      mass += v;
    }
    EXPECT_GT(mass, 0);
    for (std::size_t p = 0; p < server.place_count(); ++p) {
      long long dot = 0;
      for (std::size_t t = 0; t < server.transition_count(); ++t) dot += matrix[p][t] * x[t];
      EXPECT_EQ(dot, 0) << "T-semiflow violates C x = 0 at place " << server.place_name(p);
    }
  }
}

TEST(Semiflows, ServerNetHasTheFourPaperConservationGroups) {
  const pt::VerifyReport report = pt::verify_model(paper_server_net());
  const pt::VerifyCertificates& c = report.certificates;
  // Fig. 5: one token circulates in each of the hardware, OS, service and
  // patch-clock place groups — four disjoint P-invariants covering all 16
  // places, every bound exactly 1.
  EXPECT_EQ(c.p_semiflows.size(), 4u);
  EXPECT_TRUE(c.structurally_bounded);
  EXPECT_TRUE(c.token_conserving);
  for (long long bound : c.place_bound) EXPECT_EQ(bound, 1);
  // Disjoint supports that partition the places.
  std::vector<int> covered(c.place_bound.size(), 0);
  for (const auto& y : c.p_semiflows) {
    for (std::size_t p = 0; p < y.size(); ++p) {
      if (y[p] != 0) ++covered[p];
    }
  }
  for (int count : covered) EXPECT_EQ(count, 1);
}

TEST(Semiflows, TruncationReturnsEmptyAndIncomplete) {
  bool complete = true;
  const auto flows = pt::semiflows(pt::incidence_matrix(token_ring()), 0, &complete);
  EXPECT_FALSE(complete);
  EXPECT_TRUE(flows.empty());
}

// A chain whose arc multiplicity M grows its only P-semiflow as
// [1, M, M^2, M^3]: at M = 2^31 the coefficients leave 64-bit range, which
// must surface as an incomplete basis, never as a wrapped "semiflow".
constexpr long long kHugeMultiplicity = 1LL << 31;

pt::SrnModel multiplicity_chain() {
  pt::SrnModel net;
  const pt::PlaceId places[] = {net.add_place("P0", 1), net.add_place("P1", 0),
                                 net.add_place("P2", 0), net.add_place("P3", 0)};
  const char* const names[] = {"T0", "T1", "T2"};
  for (int i = 0; i < 3; ++i) {
    const auto t = net.add_timed_transition(names[i], 1.0);
    net.add_input_arc(t, places[i], static_cast<pt::TokenCount>(kHugeMultiplicity));
    net.add_output_arc(t, places[i + 1]);
  }
  return net;
}

TEST(Semiflows, CoefficientOverflowReturnsEmptyAndIncomplete) {
  const long long m = kHugeMultiplicity;
  bool complete = true;
  const auto flows =
      pt::semiflows({{-m, 0, 0}, {1, -m, 0}, {0, 1, -m}, {0, 0, 1}}, 4096, &complete);
  EXPECT_FALSE(complete);
  EXPECT_TRUE(flows.empty());
}

TEST(Semiflows, CoefficientOverflowInNetIsReportedIncomplete) {
  const pt::VerifyReport report = pt::verify_model(multiplicity_chain());
  EXPECT_FALSE(report.certificates.p_semiflows_complete);
  EXPECT_TRUE(report.certificates.p_semiflows.empty());
  EXPECT_FALSE(report.certificates.structurally_bounded);
  EXPECT_TRUE(has_finding(report, "V-CERT-001"));
}

TEST(Semiflows, OverflowingPlaceBoundIsDropped) {
  // A -> B taking 2^31 tokens: the semiflow [1, 2^31] is exact, but its
  // weighted initial marking 2^31 + 2^31 * (2^32 - 1) = 2^63 is not.
  pt::SrnModel net;
  const auto a = net.add_place("A", static_cast<pt::TokenCount>(kHugeMultiplicity));
  const auto b = net.add_place("B", std::numeric_limits<pt::TokenCount>::max());
  const auto t = net.add_timed_transition("T", 1.0);
  net.add_input_arc(t, a, static_cast<pt::TokenCount>(kHugeMultiplicity));
  net.add_output_arc(t, b);
  const pt::VerifyReport report = pt::verify_model(net);
  EXPECT_TRUE(report.certificates.p_semiflows_complete);
  ASSERT_EQ(report.certificates.p_semiflows.size(), 1u);
  EXPECT_EQ(report.certificates.p_semiflows[0], (std::vector<long long>{1, kHugeMultiplicity}));
  EXPECT_EQ(report.certificates.place_bound, (std::vector<long long>{-1, -1}));
}

TEST(Semiflows, MatchDenseOracleOnRandomAndEdgeMatrices) {
  // The flat bitset elimination against the dense one: same vectors in the
  // same order, same completeness.  Small random integer matrices reach
  // equal-support and duplicate rows (the pruning's tie rules) far more
  // often than nets do; the fixed cases overflow only in the pivot column
  // and hit the row cap mid-step.
  const long long big = 1LL << 32;
  std::vector<std::pair<std::vector<std::vector<long long>>, std::size_t>> cases = {
      {{{big, 0}, {-big, 0}}, 4096},
      {{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}, {2, 0}, {0, -2}}, 3},
      {{}, 4096},
      {{{0, 0, 0}}, 4096},
  };
  std::mt19937_64 rng(2024);
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t rows = 1 + rng() % 7;
    const std::size_t cols = 1 + rng() % 5;
    std::vector<std::vector<long long>> matrix(rows, std::vector<long long>(cols));
    for (auto& row : matrix) {
      for (long long& v : row) v = static_cast<long long>(rng() % 5) - 2;
    }
    cases.emplace_back(std::move(matrix), trial % 10 == 0 ? 6 : 4096);
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto& [matrix, cap] = cases[c];
    bool complete = false;
    bool oracle_complete = false;
    EXPECT_EQ(pt::semiflows(matrix, cap, &complete),
              verify_oracle::semiflows(matrix, cap, &oracle_complete))
        << "case " << c;
    EXPECT_EQ(complete, oracle_complete) << "case " << c;
  }
}

TEST(Semiflows, RaggedMatrixRejected) {
  EXPECT_THROW((void)pt::semiflows({{1, 2}, {1}}), std::invalid_argument);
}

// ---------- certificates vs the reachability-based dynamic oracle ------------

TEST(VerifyOracle, StaticBoundsMatchAnalyzeStructureOnPaperNets) {
  const core::Scenario scenario = core::Scenario::paper_case_study();
  const core::Session session(scenario);

  std::vector<pt::SrnModel> nets;
  av::ServerSrnOptions srn_options;
  srn_options.patch_interval_hours = scenario.patch_interval_hours();
  for (const auto& entry : scenario.specs()) {
    nets.push_back(av::build_server_srn(entry.second, srn_options).model);
  }
  for (const auto& design : scenario.designs()) {
    nets.push_back(av::build_network_srn(design, session.aggregated_rates()).model);
  }

  for (const pt::SrnModel& net : nets) {
    const pt::VerifyReport verify = pt::verify_model(net);
    const so::StructuralReport oracle = so::analyze_structure(net);
    ASSERT_TRUE(verify.certificates.p_semiflows_complete);
    EXPECT_EQ(verify.certificates.token_conserving, oracle.conservative);
    // Soundness, not completeness: the server nets DO have dynamically dead
    // transitions (the patch-induced-failure branches, unreachable at the
    // paper's parameterization) that no structural rule can see — but every
    // transition the static pass declares dead (V-STRUCT-001) must be dead
    // in the explored state space too.
    for (const pt::VerifyFinding& f : verify.findings) {
      if (f.rule != "V-STRUCT-001") continue;
      bool oracle_agrees = false;
      for (pt::TransitionId t : oracle.dead_transitions) {
        if (net.transition_name(t) == f.subject) oracle_agrees = true;
      }
      EXPECT_TRUE(oracle_agrees) << f.subject;
    }
    ASSERT_EQ(oracle.place_bounds.size(), net.place_count());
    for (std::size_t p = 0; p < net.place_count(); ++p) {
      // Acceptance criterion: exact agreement on every paper net — the
      // static invariant bound IS the observed reachable bound here.
      EXPECT_EQ(verify.certificates.place_bound[p],
                static_cast<long long>(oracle.place_bounds[p]))
          << "place " << net.place_name(p);
    }
  }
}

TEST(VerifyOracle, PInvariantLawHoldsOnEveryReachableMarking) {
  const pt::SrnModel net = paper_server_net();
  const pt::ReachabilityGraph graph = pt::build_reachability_graph(net);
  const pt::VerifyCertificates certs = pt::verify_model(net).certificates;
  const pt::Marking m0 = net.initial_marking();
  for (const auto& y : certs.p_semiflows) {
    long long invariant = 0;
    for (std::size_t p = 0; p < y.size(); ++p) invariant += y[p] * m0[p];
    for (const pt::Marking& m : graph.tangible_markings) {
      long long value = 0;
      for (std::size_t p = 0; p < y.size(); ++p) value += y[p] * m[p];
      EXPECT_EQ(value, invariant);
    }
  }
}

TEST(VerifyOracle, AnalyzeStructureGraphOverloadMatchesRebuild) {
  const pt::SrnModel net = paper_server_net();
  const pt::ReachabilityGraph graph = pt::build_reachability_graph(net);
  const so::StructuralReport via_graph = so::analyze_structure(net, graph);
  const so::StructuralReport rebuilt = so::analyze_structure(net);
  EXPECT_EQ(via_graph.place_bounds, rebuilt.place_bounds);
  EXPECT_EQ(via_graph.dead_transitions, rebuilt.dead_transitions);
  EXPECT_EQ(via_graph.max_total_tokens, rebuilt.max_total_tokens);
  EXPECT_EQ(via_graph.conservative, rebuilt.conservative);
}

TEST(VerifyOracle, CleanNetLowersToErgodicChain) {
  // Static certificates clean => the lowered chain has no transient states
  // and is irreducible (the dynamic half of the ergodicity pre-checks).
  const av::NetworkSrn net = paper_network_net(ent::example_network_design());
  ASSERT_TRUE(pt::verify_model(net.model).clean());
  const pt::ReachabilityGraph graph = pt::build_reachability_graph(net.model);
  EXPECT_TRUE(so::transient_states(graph.chain).empty());
  EXPECT_TRUE(so::is_irreducible(graph.chain));
}

TEST(VerifyOracle, SinkNetIsFlaggedStaticallyAndDynamically) {
  // a <-> b ring with a leak into sink place c: V-ERGO-003 statically, and
  // the lowered chain acquires transient states dynamically.
  pt::SrnModel net = token_ring();
  const auto c = net.add_place("C", 0);
  const auto leak = net.add_timed_transition("leak", 0.5);
  net.add_input_arc(leak, net.place("A"));
  net.add_output_arc(leak, c);

  const pt::VerifyReport report = pt::verify_model(net);
  EXPECT_TRUE(has_finding(report, "V-ERGO-003"));
  EXPECT_TRUE(report.has_errors());

  const pt::ReachabilityGraph graph = pt::build_reachability_graph(net);
  EXPECT_FALSE(so::transient_states(graph.chain).empty());
  EXPECT_FALSE(so::is_irreducible(graph.chain));
}

TEST(VerifyOracle, StructurallyDeadTransitionAgreesWithOracle) {
  // "greedy" needs 2 tokens from a 1-token conservation group: flagged
  // statically (V-STRUCT-001) and dead in the explored state space.
  pt::SrnModel net = token_ring();
  const auto greedy = net.add_timed_transition("greedy", 1.0);
  net.add_input_arc(greedy, net.place("A"), 2);
  net.add_output_arc(greedy, net.place("A"), 2);

  const pt::VerifyReport report = pt::verify_model(net);
  EXPECT_TRUE(has_finding(report, "V-STRUCT-001"));

  const so::StructuralReport oracle = so::analyze_structure(net);
  ASSERT_EQ(oracle.dead_transitions.size(), 1u);
  EXPECT_EQ(net.transition_name(oracle.dead_transitions.front()), "greedy");
}

// ---------- seeded-defect corpus: every rule must fire -----------------------

TEST(VerifyDefects, NonPositiveMarkingDependentRate) {
  pt::SrnModel net = token_ring();
  // 0.5 * #B while enabled by A: 0 at the initial marking, where B is empty.
  const auto bad = net.add_timed_transition("bad", 0.5, net.place("B"));
  net.add_input_arc(bad, net.place("A"));
  net.add_output_arc(bad, net.place("A"));
  const pt::VerifyReport report = pt::verify_model(net);
  EXPECT_TRUE(has_finding(report, "V-RATE-001"));
  EXPECT_TRUE(report.has_errors());
  EXPECT_THROW((void)pt::build_reachability_graph(net), std::domain_error);
}

TEST(VerifyDefects, PerTokenRateOfAnInputPlaceIsClean) {
  // 0.5 * #A while A's input arc enables it: never 0 where it can fire.
  pt::SrnModel net = token_ring();
  const auto good = net.add_timed_transition("good", 0.5, net.place("A"));
  net.add_input_arc(good, net.place("A"));
  net.add_output_arc(good, net.place("A"));
  EXPECT_FALSE(has_finding(pt::verify_model(net), "V-RATE-001"));
}

TEST(VerifyDefects, InvalidRatesAreRefusedAtConstruction) {
  // What V-RATE-001 flagged of a closure, and the retired V-RATE-002 (a
  // throwing rate), cannot be built: a rate is data, checked when added.
  pt::SrnModel net = token_ring();
  EXPECT_THROW((void)net.add_timed_transition("nan", std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW((void)net.add_timed_transition("inf", std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW((void)net.add_timed_transition("nowhere", 1.0, 99), std::out_of_range);
  EXPECT_EQ(net.transition_count(), 2u);
}

TEST(VerifyDefects, ConstantNanRewardIsNotADependence) {
  // A reward that is NaN everywhere is V-REWARD-002's finding; NaN != NaN
  // must not also read as a dependence on every unmarkable place.
  pt::SrnModel net;
  const auto a = net.add_place("A", 1);
  const auto b = net.add_place("B", 0);
  (void)net.add_place("Ghost", 0);
  const auto fwd = net.add_timed_transition("fwd", 1.0);
  net.add_input_arc(fwd, a);
  net.add_output_arc(fwd, b);
  const auto back = net.add_timed_transition("back", 2.0);
  net.add_input_arc(back, b);
  net.add_output_arc(back, a);
  std::vector<std::pair<std::string, pt::RewardFunction>> rewards;
  rewards.emplace_back("nan", [](const pt::Marking&) {
    return std::numeric_limits<double>::quiet_NaN();
  });
  const pt::VerifyReport report = pt::verify_model(net, rewards);
  EXPECT_TRUE(has_finding(report, "V-REWARD-002"));
  EXPECT_FALSE(has_finding(report, "V-REWARD-001"));
  EXPECT_FALSE(has_finding(verify_oracle::verify_model(net, rewards, {}), "V-REWARD-001"));
}

TEST(VerifyDefects, GuardReferencingNonexistentPlace) {
  pt::SrnModel net = token_ring();
  net.set_guard(net.transition("fwd"), [](const pt::Marking& m) { return m.at(99) > 0; });
  const pt::VerifyReport report = pt::verify_model(net);
  EXPECT_TRUE(has_finding(report, "V-GUARD-001"));
  EXPECT_TRUE(report.has_errors());
}

TEST(VerifyDefects, InputInhibitorConflict) {
  pt::SrnModel net = token_ring();
  // fwd now also requires A >= 1 AND A < 1: never enabled.
  net.add_inhibitor_arc(net.transition("fwd"), net.place("A"), 1);
  EXPECT_TRUE(has_finding(pt::verify_model(net), "V-STRUCT-002"));
}

TEST(VerifyDefects, ShadowedImmediate) {
  pt::SrnModel net = token_ring();
  const auto low = net.add_immediate_transition("low", 1.0, 1);
  net.add_input_arc(low, net.place("B"));
  net.add_output_arc(low, net.place("A"));
  const auto high = net.add_immediate_transition("high", 1.0, 5);
  net.add_input_arc(high, net.place("B"));
  net.add_output_arc(high, net.place("A"));
  const pt::VerifyReport report = pt::verify_model(net);
  EXPECT_TRUE(has_finding(report, "V-STRUCT-003"));
  // The finding names the shadowed transition, not the shadowing one.
  for (const pt::VerifyFinding& f : report.findings) {
    if (f.rule == "V-STRUCT-003") {
      EXPECT_EQ(f.subject, "low");
    }
  }
}

TEST(VerifyDefects, TimedTransitionOffEveryCycle) {
  // A one-way drain: fwd2 consumes from B into sink C and nothing feeds back.
  pt::SrnModel net = token_ring();
  const auto c = net.add_place("C", 0);
  const auto drain = net.add_timed_transition("drain", 1.0);
  net.add_input_arc(drain, net.place("B"));
  net.add_output_arc(drain, c);
  EXPECT_TRUE(has_finding(pt::verify_model(net), "V-ERGO-001"));
}

TEST(VerifyDefects, TimedTransitionNotTSemiflowCovered) {
  // grow: A -> 2B sits on a token-flow cycle (B feeds back through "back")
  // but no non-negative firing-count vector cancels its net production, so
  // only V-ERGO-002 can catch it.
  pt::SrnModel net = token_ring();
  const auto grow = net.add_timed_transition("grow", 1.0);
  net.add_input_arc(grow, net.place("A"));
  net.add_output_arc(grow, net.place("B"), 2);
  const pt::VerifyReport report = pt::verify_model(net);
  EXPECT_TRUE(has_finding(report, "V-ERGO-002"));
  EXPECT_FALSE(has_finding(report, "V-ERGO-001"));
}

TEST(VerifyDefects, SourceOnlyPlaceDrainsAway) {
  pt::SrnModel net = token_ring();
  const auto fuel = net.add_place("Fuel", 1);
  const auto burn = net.add_timed_transition("burn", 1.0);
  net.add_input_arc(burn, fuel);
  net.add_input_arc(burn, net.place("A"));
  net.add_output_arc(burn, net.place("A"));
  EXPECT_TRUE(has_finding(pt::verify_model(net), "V-ERGO-004"));
}

TEST(VerifyDefects, UncoveredPlaceHasNoBoundednessCertificate) {
  pt::SrnModel net = token_ring();
  const auto heap = net.add_place("Heap", 0);
  const auto pump = net.add_timed_transition("pump", 1.0);
  net.add_input_arc(pump, net.place("A"));
  net.add_output_arc(pump, net.place("A"));
  net.add_output_arc(pump, heap);  // A -> A + Heap: Heap is unbounded
  const pt::VerifyReport report = pt::verify_model(net);
  EXPECT_TRUE(has_finding(report, "V-BOUND-001"));
  EXPECT_FALSE(report.certificates.structurally_bounded);
  EXPECT_EQ(report.certificates.place_bound[heap], -1);
}

TEST(VerifyDefects, RewardTouchingUnmarkablePlace) {
  pt::SrnModel net = token_ring();
  const auto ghost = net.add_place("Ghost", 0);  // never marked: no producer
  std::vector<std::pair<std::string, pt::RewardFunction>> rewards;
  rewards.emplace_back("ghost_reward", [ghost](const pt::Marking& m) {
    return static_cast<double>(m[ghost]);
  });
  EXPECT_TRUE(has_finding(pt::verify_model(net, rewards), "V-REWARD-001"));
}

TEST(VerifyDefects, ThrowingAndNonFiniteRewards) {
  const pt::SrnModel net = token_ring();
  std::vector<std::pair<std::string, pt::RewardFunction>> rewards;
  rewards.emplace_back("throwing",
                       [](const pt::Marking& m) { return static_cast<double>(m.at(99)); });
  rewards.emplace_back("infinite", [](const pt::Marking&) {
    return std::numeric_limits<double>::infinity();
  });
  const pt::VerifyReport report = pt::verify_model(net, rewards);
  std::size_t reward_findings = 0;
  for (const pt::VerifyFinding& f : report.findings) {
    if (f.rule == "V-REWARD-002") ++reward_findings;
  }
  EXPECT_EQ(reward_findings, 2u);
}

TEST(VerifyDefects, TruncatedCertificatesReportedAsInfo) {
  pt::VerifyOptions options;
  options.max_intermediate_rows = 0;
  const pt::VerifyReport report = pt::verify_model(token_ring(), options);
  EXPECT_TRUE(has_finding(report, "V-CERT-001"));
  EXPECT_FALSE(report.certificates.p_semiflows_complete);
  // Coverage rules must be silent when the certificates are truncated.
  EXPECT_FALSE(has_finding(report, "V-BOUND-001"));
  EXPECT_FALSE(has_finding(report, "V-ERGO-002"));
  EXPECT_FALSE(report.has_errors());
}

TEST(VerifyDefects, ProbingCanBeDisabled) {
  pt::SrnModel net = token_ring();
  net.set_guard(net.transition("fwd"), [](const pt::Marking& m) { return m.at(99) > 0; });
  pt::VerifyOptions options;
  options.probe_functions = false;
  EXPECT_FALSE(has_finding(pt::verify_model(net, options), "V-GUARD-001"));
}

// ---------- clean passes ------------------------------------------------------

TEST(VerifyClean, AllPaperDesignsLintClean) {
  const core::Session session(core::Scenario::paper_case_study());
  for (const core::EvalReport& report : session.evaluate_all()) {
    EXPECT_TRUE(report.lint_clean()) << report.design.name();
    // Every stage: the per-role server nets plus the network net.
    EXPECT_EQ(report.verification.size(),
              session.scenario().specs().size() + 1);
    for (const core::StageVerification& stage : report.verification) {
      EXPECT_TRUE(stage.report->clean()) << stage.stage;
      EXPECT_TRUE(stage.report->certificates.structurally_bounded) << stage.stage;
      EXPECT_TRUE(stage.report->certificates.token_conserving) << stage.stage;
    }
  }
}

TEST(VerifyClean, FiftySeedGeneratedSweepLintsClean) {
  // lint_generated (on by default) already throws on a dirty net; assert the
  // reports are finding-free end to end as well.
  tg::ScenarioGenerator generator;
  for (int i = 0; i < 50; ++i) {
    const tg::GeneratedScenario generated = generator.next();
    for (const core::StageVerification& stage : tg::lint_scenario(generated)) {
      EXPECT_TRUE(stage.report->clean())
          << stage.stage << " of seed " << generated.scenario_seed << ":\n"
          << pt::format(*stage.report);
    }
  }
}

// ---------- Session / engine wiring ------------------------------------------

TEST(VerifyWiring, OffModeProducesNoReports) {
  core::Scenario scenario = core::Scenario::paper_case_study();
  core::EngineOptions engine;
  engine.verify = core::VerifyMode::kOff;
  scenario.with_engine(engine);
  const core::Session session(scenario);
  const core::EvalReport report = session.evaluate(ent::example_network_design());
  EXPECT_TRUE(report.verification.empty());
  EXPECT_TRUE(report.lint_clean());  // vacuously
}

TEST(VerifyWiring, StrictModeSolvesCleanScenario) {
  core::Scenario scenario = core::Scenario::paper_case_study();
  core::EngineOptions engine;
  engine.verify = core::VerifyMode::kStrict;
  scenario.with_engine(engine);
  const core::Session session(scenario);
  const core::EvalReport report = session.evaluate(ent::example_network_design());
  EXPECT_GT(report.coa, 0.99);
  EXPECT_TRUE(report.lint_clean());
}

TEST(VerifyWiring, TransientEvaluationCarriesVerification) {
  core::Scenario scenario = core::Scenario::paper_case_study();
  core::EngineOptions engine;
  engine.horizon_hours = 4.0;
  engine.transient_points = 3;
  scenario.with_engine(engine);
  const core::Session session(scenario);
  const core::EvalReport report = session.evaluate_transient(ent::example_network_design());
  EXPECT_EQ(report.verification.size(), session.scenario().specs().size() + 1);
  EXPECT_TRUE(report.lint_clean());
}

TEST(VerifyWiring, ThrowOnVerifyErrorsNamesRuleAndStage) {
  pt::VerifyReport report;
  pt::throw_on_verify_errors(report, "network");  // clean: no-op

  report.findings.push_back(
      {"V-RATE-001", pt::VerifySeverity::kError, "Tbad", "rate evaluated to 0"});
  try {
    pt::throw_on_verify_errors(report, "network");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("V-RATE-001"), std::string::npos);
    EXPECT_NE(message.find("network"), std::string::npos);
    EXPECT_NE(message.find("Tbad"), std::string::npos);
  }
}

TEST(VerifyWiring, SeverityCountsAndToString) {
  pt::VerifyReport report;
  EXPECT_TRUE(report.clean());
  report.findings.push_back({"R1", pt::VerifySeverity::kError, "", ""});
  report.findings.push_back({"R2", pt::VerifySeverity::kWarning, "", ""});
  report.findings.push_back({"R3", pt::VerifySeverity::kInfo, "", ""});
  EXPECT_EQ(report.errors(), 1u);
  EXPECT_EQ(report.warnings(), 1u);
  EXPECT_EQ(report.count(pt::VerifySeverity::kInfo), 1u);
  EXPECT_TRUE(report.has_errors());
  EXPECT_STREQ(pt::to_string(pt::VerifySeverity::kError), "error");
  EXPECT_STREQ(pt::to_string(pt::VerifySeverity::kWarning), "warning");
  EXPECT_STREQ(pt::to_string(pt::VerifySeverity::kInfo), "info");
}

TEST(VerifyWiring, JsonDiagnosticsCarryVerifyBlock) {
  const core::Session session(core::Scenario::paper_case_study());
  const std::vector<core::EvalReport> reports = {
      session.evaluate(ent::example_network_design())};
  std::ostringstream out;
  core::write_json(out, reports);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"verify\":{\"clean\":true"), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"network\""), std::string::npos);
  EXPECT_NE(json.find("\"p_semiflows\":4"), std::string::npos);
  EXPECT_NE(json.find("\"conserving\":true"), std::string::npos);
}

TEST(VerifyWiring, FormatRendersFindings) {
  pt::SrnModel net = token_ring();
  net.set_guard(net.transition("fwd"), [](const pt::Marking& m) { return m.at(99) > 0; });
  const std::string text = pt::format(pt::verify_model(net));
  EXPECT_NE(text.find("V-GUARD-001"), std::string::npos);
  EXPECT_NE(text.find("[error]"), std::string::npos);
  EXPECT_NE(text.find("fwd"), std::string::npos);
}

TEST(VerifyWiring, GeneratorRefusesLintDirtyNetsWhenAsked) {
  // The real generator never emits a dirty net (FiftySeedGeneratedSweep
  // above); exercise the assertion path by linting a sabotaged scenario
  // through the same entry point the generator uses.
  tg::GeneratorOptions options;
  options.lint_generated = false;
  const tg::GeneratedScenario generated = tg::ScenarioGenerator::from_seed(7, options);
  for (const core::StageVerification& stage : tg::lint_scenario(generated)) {
    EXPECT_TRUE(stage.report->clean());
  }
}

// ---------- the structural/value split against the dense oracle --------------

namespace {

using Rewards = std::vector<std::pair<std::string, pt::RewardFunction>>;

/// prefix + decimal i (appended, not prepended to a temporary, which trips
/// gcc 12's -Wrestrict false positive).
std::string indexed(const std::string& prefix, std::size_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

void expect_same_findings(const std::vector<pt::VerifyFinding>& actual,
                          const std::vector<pt::VerifyFinding>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].rule, expected[i].rule) << "finding " << i;
    EXPECT_EQ(actual[i].severity, expected[i].severity) << "finding " << i;
    EXPECT_EQ(actual[i].subject, expected[i].subject) << "finding " << i;
    EXPECT_EQ(actual[i].message, expected[i].message) << "finding " << i;
  }
}

void expect_same_certificates(const pt::VerifyCertificates& actual,
                              const pt::VerifyCertificates& expected) {
  EXPECT_EQ(actual.p_semiflows, expected.p_semiflows);
  EXPECT_EQ(actual.t_semiflows, expected.t_semiflows);
  EXPECT_EQ(actual.place_bound, expected.place_bound);
  EXPECT_EQ(actual.structurally_bounded, expected.structurally_bounded);
  EXPECT_EQ(actual.token_conserving, expected.token_conserving);
  EXPECT_EQ(actual.p_semiflows_complete, expected.p_semiflows_complete);
  EXPECT_EQ(actual.t_semiflows_complete, expected.t_semiflows_complete);
}

/// verify_model, and each of its halves, against the dense oracle: same
/// certificates, incidence, and findings (rule, severity, subject, message,
/// order) — the structural half equal to the oracle with probing off.
void expect_matches_oracle(const std::string& where, const pt::SrnModel& net,
                           const Rewards& rewards = {}, const pt::VerifyOptions& options = {}) {
  SCOPED_TRACE(where);
  const pt::VerifyReport oracle = verify_oracle::verify_model(net, rewards, options);
  const pt::VerifyReport report = pt::verify_model(net, rewards, options);
  expect_same_certificates(report.certificates, oracle.certificates);
  expect_same_findings(report.findings, oracle.findings);

  pt::VerifyOptions structural = options;
  structural.probe_functions = false;
  const pt::StructureCertificate cert = pt::certify_structure(net, options);
  expect_same_certificates(cert.certificates, oracle.certificates);
  expect_same_findings(cert.findings,
                       verify_oracle::verify_model(net, rewards, structural).findings);
  EXPECT_EQ(pt::incidence_matrix(net), verify_oracle::build_structure(net).incidence);
}

struct CorpusNet {
  std::string name;
  pt::SrnModel net;
  Rewards rewards;
  pt::VerifyOptions options;
};

/// The seeded-defect corpus above (one net per rule), plus the certificate
/// edge cases: truncation, 64-bit overflow, disabled probing.
std::vector<CorpusNet> defect_corpus() {
  std::vector<CorpusNet> corpus;
  const auto add = [&corpus](std::string name, const std::function<void(pt::SrnModel&)>& edit,
                             Rewards rewards = {}, pt::VerifyOptions options = {}) {
    pt::SrnModel net = token_ring();
    edit(net);
    corpus.push_back({std::move(name), std::move(net), std::move(rewards), options});
  };
  add("clean ring", [](pt::SrnModel&) {});
  add("V-RATE-001", [](pt::SrnModel& net) {
    const auto bad = net.add_timed_transition("bad", 1.0, net.place("B"));
    net.add_input_arc(bad, net.place("A"));
    net.add_output_arc(bad, net.place("A"));
  });
  const auto broken_guard = [](pt::SrnModel& net) {
    net.set_guard(net.transition("fwd"), [](const pt::Marking& m) { return m.at(99) > 0; });
  };
  add("V-GUARD-001", broken_guard);
  pt::VerifyOptions no_probes;
  no_probes.probe_functions = false;
  add("probing disabled", broken_guard, {}, no_probes);
  add("V-STRUCT-002", [](pt::SrnModel& net) {
    net.add_inhibitor_arc(net.transition("fwd"), net.place("B"), 3);
    net.add_inhibitor_arc(net.transition("fwd"), net.place("A"), 1);
  });
  add("V-STRUCT-003", [](pt::SrnModel& net) {
    const auto low = net.add_immediate_transition("low", 1.0, 1);
    net.add_input_arc(low, net.place("B"), 2);
    net.add_input_arc(low, net.place("A"));
    net.add_output_arc(low, net.place("A"));
    const auto mid = net.add_immediate_transition("mid", 1.0, 3);
    net.add_input_arc(mid, net.place("B"), 2);
    net.add_output_arc(mid, net.place("A"));
    const auto high = net.add_immediate_transition("high", 1.0, 5);
    net.add_input_arc(high, net.place("B"));
    net.add_output_arc(high, net.place("A"));
  });
  add("V-STRUCT-003 input-less", [](pt::SrnModel& net) {
    const auto low = net.add_immediate_transition("low", 1.0, 1);
    net.add_input_arc(low, net.place("B"));
    const auto source = net.add_immediate_transition("source", 1.0, 2);
    net.add_output_arc(source, net.place("A"));
  });
  add("V-STRUCT-001", [](pt::SrnModel& net) {
    const auto greedy = net.add_timed_transition("greedy", 1.0);
    net.add_input_arc(greedy, net.place("A"), 2);
    net.add_output_arc(greedy, net.place("A"), 2);
  });
  add("V-ERGO-001", [](pt::SrnModel& net) {
    const auto c = net.add_place("C", 0);
    const auto drain = net.add_timed_transition("drain", 1.0);
    net.add_input_arc(drain, net.place("B"));
    net.add_output_arc(drain, c);
  });
  add("V-ERGO-002", [](pt::SrnModel& net) {
    const auto grow = net.add_timed_transition("grow", 1.0);
    net.add_input_arc(grow, net.place("A"));
    net.add_output_arc(grow, net.place("B"), 2);
  });
  add("V-ERGO-003", [](pt::SrnModel& net) {
    const auto c = net.add_place("C", 0);
    const auto leak = net.add_timed_transition("leak", 0.5);
    net.add_input_arc(leak, net.place("A"));
    net.add_output_arc(leak, c);
  });
  add("V-ERGO-004", [](pt::SrnModel& net) {
    const auto fuel = net.add_place("Fuel", 1);
    const auto burn = net.add_timed_transition("burn", 1.0);
    net.add_input_arc(burn, fuel);
    net.add_input_arc(burn, net.place("A"));
    net.add_output_arc(burn, net.place("A"));
  });
  add("V-BOUND-001", [](pt::SrnModel& net) {
    const auto heap = net.add_place("Heap", 0);
    const auto pump = net.add_timed_transition("pump", 1.0);
    net.add_input_arc(pump, net.place("A"));
    net.add_output_arc(pump, net.place("A"));
    net.add_output_arc(pump, heap);
  });
  Rewards ghost_reward;
  ghost_reward.emplace_back("ghost_reward",
                            [](const pt::Marking& m) { return static_cast<double>(m[2]); });
  add("V-REWARD-001", [](pt::SrnModel& net) { net.add_place("Ghost", 0); }, ghost_reward);
  Rewards bad_rewards;
  bad_rewards.emplace_back("throwing",
                           [](const pt::Marking& m) { return static_cast<double>(m.at(99)); });
  bad_rewards.emplace_back("infinite", [](const pt::Marking&) {
    return std::numeric_limits<double>::infinity();
  });
  add("V-REWARD-002", [](pt::SrnModel&) {}, bad_rewards);
  Rewards nan_reward;
  nan_reward.emplace_back("nan", [](const pt::Marking&) {
    return std::numeric_limits<double>::quiet_NaN();
  });
  add("V-REWARD-002 beside a ghost", [](pt::SrnModel& net) { net.add_place("Ghost", 0); },
      nan_reward);
  pt::VerifyOptions truncated;
  truncated.max_intermediate_rows = 0;
  add("V-CERT-001 truncated", [](pt::SrnModel&) {}, {}, truncated);

  corpus.push_back({"V-CERT-001 overflow", multiplicity_chain(), {}, {}});
  pt::SrnModel bound_overflow;
  const auto a = bound_overflow.add_place("A", static_cast<pt::TokenCount>(kHugeMultiplicity));
  const auto b = bound_overflow.add_place("B", std::numeric_limits<pt::TokenCount>::max());
  const auto t = bound_overflow.add_timed_transition("T", 1.0);
  bound_overflow.add_input_arc(t, a, static_cast<pt::TokenCount>(kHugeMultiplicity));
  bound_overflow.add_output_arc(t, b);
  corpus.push_back({"overflowing place bound", std::move(bound_overflow), {}, {}});
  corpus.push_back({"empty net", pt::SrnModel{}, {}, {}});
  return corpus;
}

/// A seeded random net: up to 7 places and 9 transitions with random arcs
/// (multiplicities 1-3), kinds, priorities, guards, inhibitors and initial
/// tokens — shapes the hand-built corpus does not reach (input-less and
/// multi-input immediates, parallel shadowing candidates, dense cycles).
pt::SrnModel random_net(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto draw = [&rng](unsigned n) { return static_cast<unsigned>(rng() % n); };
  pt::SrnModel net;
  const unsigned places = 1 + draw(7);
  for (unsigned p = 0; p < places; ++p) net.add_place(indexed("p", p), draw(3));
  const unsigned transitions = 1 + draw(9);
  for (unsigned i = 0; i < transitions; ++i) {
    const std::string name = indexed("t", i);
    const pt::TransitionId t = draw(2) == 0
                                   ? net.add_timed_transition(name, 1.0 + i)
                                   : net.add_immediate_transition(name, 1.0, 1 + draw(3));
    for (unsigned arcs = draw(4); arcs > 0; --arcs) {
      net.add_input_arc(t, draw(places), 1 + draw(3));
    }
    for (unsigned arcs = draw(4); arcs > 0; --arcs) {
      net.add_output_arc(t, draw(places), 1 + draw(3));
    }
    if (draw(5) == 0) net.add_inhibitor_arc(t, draw(places), 1 + draw(3));
    if (draw(5) == 0) net.set_guard(t, [](const pt::Marking& m) { return m[0] < 4; });
  }
  return net;
}

}  // namespace

TEST(VerifySplit, MatchesDenseOracleOnDefectCorpus) {
  for (const CorpusNet& entry : defect_corpus()) {
    expect_matches_oracle(entry.name, entry.net, entry.rewards, entry.options);
  }
}

TEST(VerifySplit, MatchesDenseOracleOnAllPaperNets) {
  const core::Scenario scenario = core::Scenario::paper_case_study();
  const core::Session session(scenario);
  for (const double cadence : {168.0, 720.0, 1440.0}) {
    av::ServerSrnOptions srn_options;
    srn_options.patch_interval_hours = cadence;
    for (const auto& [role, spec] : scenario.specs()) {
      expect_matches_oracle(std::string("server:") + ent::to_string(role),
                            av::build_server_srn(spec, srn_options).model);
    }
    for (const ent::RedundancyDesign& design : scenario.designs()) {
      const av::NetworkSrn net = av::build_network_srn(design, session.aggregated_rates(cadence));
      Rewards rewards;
      rewards.emplace_back("coa", net.coa_reward());
      expect_matches_oracle(std::string("network ").append(design.name()), net.model, rewards);
    }
  }
}

TEST(VerifySplit, MatchesDenseOracleOnFiftySeedGeneratedSweep) {
  // The nets lint_scenario verifies, seed by seed.
  tg::ScenarioGenerator generator;
  for (int i = 0; i < 50; ++i) {
    const tg::GeneratedScenario generated = generator.next();
    const std::string seed = indexed(" of seed ", generated.scenario_seed);
    av::ServerSrnOptions srn_options;
    srn_options.patch_interval_hours = generated.scenario.patch_interval_hours();
    std::map<ent::ServerRole, av::AggregatedRates> unit_rates;
    for (const auto& [role, spec] : generated.scenario.specs()) {
      expect_matches_oracle(std::string("server:") + ent::to_string(role) + seed,
                            av::build_server_srn(spec, srn_options).model);
      unit_rates.emplace(role, av::AggregatedRates{1.0, 1.0, 0.5, 0.5});
    }
    const av::NetworkSrn net = av::build_network_srn(generated.design, unit_rates);
    Rewards rewards;
    rewards.emplace_back("coa", net.coa_reward());
    expect_matches_oracle("network" + seed, net.model, rewards);
  }
}

TEST(VerifySplit, MatchesDenseOracleOnRandomNets) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    expect_matches_oracle(indexed("random net ", seed), random_net(seed));
  }
}

TEST(VerifySplit, ProbeFindingsBelongToTheInstanceNotTheStructure) {
  // Two instances of one structure (guarded "fwd" in both); only the second
  // instance's guard throws.  One shared certificate, so V-GUARD-001 can
  // only come from the per-instance probes.
  pt::SrnModel sound = token_ring();
  sound.set_guard(sound.transition("fwd"), [](const pt::Marking& m) { return m[0] < 5; });
  pt::SrnModel broken = token_ring();
  broken.set_guard(broken.transition("fwd"), [](const pt::Marking& m) { return m.at(99) > 0; });
  ASSERT_EQ(pt::structure_key(sound), pt::structure_key(broken));

  const pt::StructureCertificate cert = pt::certify_structure(sound);
  EXPECT_FALSE(has_finding(pt::verify_values(cert, sound, {}), "V-GUARD-001"));
  const pt::VerifyReport flagged = pt::verify_values(cert, broken, {});
  EXPECT_TRUE(has_finding(flagged, "V-GUARD-001"));
  EXPECT_EQ(flagged.findings.size(), 1u);
  EXPECT_FALSE(has_finding(pt::verify_values(cert, sound, {}), "V-GUARD-001"));
  EXPECT_TRUE(cert.findings.empty());
}

TEST(VerifySplit, ValuePassRejectsACertificateOfAnotherShape) {
  const pt::StructureCertificate cert = pt::certify_structure(token_ring());
  pt::SrnModel larger = token_ring();
  larger.add_place("C", 0);
  EXPECT_THROW((void)pt::verify_values(cert, larger, {}), std::invalid_argument);
  pt::SrnModel wider = token_ring();
  wider.add_timed_transition("idle", 1.0);
  EXPECT_THROW((void)pt::verify_values(cert, wider, {}), std::invalid_argument);
}

// ---------- the structure key -------------------------------------------------

namespace {

/// Every structural field of a small net, one knob each, plus the value-only
/// fields the key must ignore.
struct KeyedNet {
  pt::TokenCount multiplicity = 1;
  bool back_immediate = true;
  unsigned priority = 2;
  bool guarded = true;
  pt::TokenCount initial = 1;
  std::string place_name = "A";
  std::string transition_name = "fwd";
  bool inhibitor = true;
  double rate = 1.0;
  double weight = 1.0;
  pt::TokenCount guard_threshold = 5;
};

pt::SrnModel keyed_net(const KeyedNet& k) {
  pt::SrnModel net;
  const auto a = net.add_place(k.place_name, k.initial);
  const auto b = net.add_place("B", 0);
  const auto fwd = net.add_timed_transition(k.transition_name, k.rate);
  net.add_input_arc(fwd, a, k.multiplicity);
  net.add_output_arc(fwd, b, k.multiplicity);
  if (k.inhibitor) net.add_inhibitor_arc(fwd, b, 4);
  const auto back = k.back_immediate ? net.add_immediate_transition("back", k.weight, k.priority)
                                     : net.add_timed_transition("back", 2.0 * k.rate);
  net.add_input_arc(back, b);
  net.add_output_arc(back, a);
  if (k.guarded) {
    const pt::TokenCount threshold = k.guard_threshold;
    net.set_guard(back, [threshold](const pt::Marking& m) { return m[0] < threshold; });
  }
  return net;
}

}  // namespace

TEST(StructureKey, ChangesWithEveryStructuralField) {
  const std::string base = pt::structure_key(keyed_net({}));
  const std::vector<std::pair<std::string, std::function<void(KeyedNet&)>>> edits = {
      {"multiplicity", [](KeyedNet& k) { k.multiplicity = 2; }},
      {"kind", [](KeyedNet& k) { k.back_immediate = false; }},
      {"priority", [](KeyedNet& k) { k.priority = 3; }},
      {"guard presence", [](KeyedNet& k) { k.guarded = false; }},
      {"initial token", [](KeyedNet& k) { k.initial = 2; }},
      {"place name", [](KeyedNet& k) { k.place_name = "A2"; }},
      {"transition name", [](KeyedNet& k) { k.transition_name = "fwd2"; }},
      {"inhibitor arc", [](KeyedNet& k) { k.inhibitor = false; }},
  };
  std::set<std::string> keys = {base};
  for (const auto& [field, edit] : edits) {
    KeyedNet k;
    edit(k);
    EXPECT_TRUE(keys.insert(pt::structure_key(keyed_net(k))).second) << field;
  }
  pt::VerifyOptions rows;
  rows.max_intermediate_rows = 17;
  EXPECT_NE(pt::structure_key(keyed_net({}), rows), base) << "max_intermediate_rows";
}

TEST(StructureKey, IgnoresRatesWeightsGuardBodiesAndProbing) {
  const std::string base = pt::structure_key(keyed_net({}));
  KeyedNet values;
  values.rate = 7.5;
  values.weight = 3.0;
  values.guard_threshold = 1;
  EXPECT_EQ(pt::structure_key(keyed_net(values)), base);
  pt::VerifyOptions no_probes;
  no_probes.probe_functions = false;
  EXPECT_EQ(pt::structure_key(keyed_net({}), no_probes), base);
}

TEST(StructureKey, CadenceOnlyChangesShareOneStructure) {
  // Every (role, cadence) server net of the paper scenario is one structure;
  // each design's network net is one structure across cadences, and
  // distinct designs are distinct structures.
  const core::Scenario scenario = core::Scenario::paper_case_study();
  const core::Session session(scenario);
  std::set<std::string> server_keys;
  std::set<std::string> network_keys;
  for (const double cadence : {168.0, 720.0}) {
    av::ServerSrnOptions srn_options;
    srn_options.patch_interval_hours = cadence;
    for (const auto& entry : scenario.specs()) {
      server_keys.insert(pt::structure_key(av::build_server_srn(entry.second, srn_options).model));
    }
    for (const ent::RedundancyDesign& design : scenario.designs()) {
      network_keys.insert(pt::structure_key(
          av::build_network_srn(design, session.aggregated_rates(cadence)).model));
    }
  }
  EXPECT_EQ(server_keys.size(), 1u);
  EXPECT_EQ(network_keys.size(), scenario.designs().size());
}

// ---------- work counter of the structural pass ------------------------------

TEST(VerifyWork, FarkasCombinationsCountRowPairs) {
  // Chain p0 -> t0 -> p1: the P-elimination pairs p0 (-1) with p1 (+1) on
  // column t0; the T-elimination has one row and nothing to pair.
  pt::SrnModel chain;
  const auto c0 = chain.add_place("p0", 1);
  const auto c1 = chain.add_place("p1", 0);
  const auto move = chain.add_timed_transition("t0", 1.0);
  chain.add_input_arc(move, c0);
  chain.add_output_arc(move, c1);
  EXPECT_EQ(pt::certify_structure(chain).farkas_combinations, 1u);

  // Closing the chain into a ring adds one pair to each elimination's first
  // column; the second column is zero by then.
  const auto back = chain.add_timed_transition("t1", 1.0);
  chain.add_input_arc(back, c1);
  chain.add_output_arc(back, c0);
  EXPECT_EQ(pt::certify_structure(chain).farkas_combinations, 2u);

  EXPECT_EQ(pt::certify_structure(pt::SrnModel{}).farkas_combinations, 0u);
}

// ---------- the Session's structure memo --------------------------------------

TEST(VerifyWiring, SessionCertifiesEachStructureOnce) {
  // One cold serial game-grid-shaped solve: uniform designs k = 2..12 under
  // 4 cadences, lumped.  Rates change no finding, so the Session verifies
  // 4 server nets (one per role) and 6 counting nets (one per design), 10
  // verifications sharing 7 structures, where each cell once verified its
  // own 4 + 1 nets (40 in all).
  std::vector<ent::RedundancyDesign> designs;
  for (unsigned k = 2; k <= 12; k += 2) designs.push_back(ent::RedundancyDesign{{k, k, k, k}});
  const std::vector<double> cadences = {168.0, 336.0, 720.0, 1440.0};
  core::EngineOptions engine;
  engine.lumping = true;
  engine.parallel = false;
  const core::Scenario scenario = core::Scenario::paper_case_study()
                                      .with_designs(designs)
                                      .with_patch_schedule(cadences)
                                      .with_engine(engine);
  const core::Session session(scenario);
  const std::vector<core::EvalReport> reports = session.evaluate_all();
  const core::Session::WorkspaceCounters counters = session.workspace_counters();

  // Count the structures independently, and check every report's stages
  // against a direct verify_model of the same net.
  std::set<std::string> keys;
  std::size_t next_report = 0;
  for (const double cadence : cadences) {
    av::ServerSrnOptions srn_options;
    srn_options.patch_interval_hours = cadence;
    std::vector<pt::VerifyReport> servers;
    for (const auto& entry : scenario.specs()) {
      const pt::SrnModel net = av::build_server_srn(entry.second, srn_options).model;
      keys.insert(pt::structure_key(net, engine.verify_options));
      servers.push_back(pt::verify_model(net, engine.verify_options));
    }
    for (const ent::RedundancyDesign& design : designs) {
      const av::NetworkSrn net = av::build_network_srn(design, session.aggregated_rates(cadence));
      keys.insert(pt::structure_key(net.model, engine.verify_options));
      Rewards rewards;
      rewards.emplace_back("coa", net.coa_reward());
      const core::EvalReport& report = reports.at(next_report++);
      ASSERT_EQ(report.verification.size(), servers.size() + 1);
      for (std::size_t s = 0; s < servers.size(); ++s) {
        expect_same_certificates(report.verification[s].report->certificates,
                                 servers[s].certificates);
        expect_same_findings(report.verification[s].report->findings, servers[s].findings);
      }
      const pt::VerifyReport direct = pt::verify_model(net.model, rewards, engine.verify_options);
      expect_same_certificates(report.verification.back().report->certificates,
                               direct.certificates);
      expect_same_findings(report.verification.back().report->findings, direct.findings);
    }
  }
  EXPECT_EQ(keys.size(), 7u);
  const std::size_t verifications = scenario.specs().size() + designs.size();
  EXPECT_EQ(verifications, 10u);
  EXPECT_EQ(counters.verify_structure_builds, keys.size());
  EXPECT_EQ(counters.verify_structure_reuses, verifications - keys.size());
}

TEST(VerifyValues, ReportsDoNotDependOnRateValues) {
  // Rates are data that no finding reads: a net's report is the same at any
  // valid rates, and so is a copy re-rated in place.
  for (const auto& [role, spec] : ent::paper_server_specs()) {
    SCOPED_TRACE(ent::to_string(role));
    const pt::SrnModel weekly = av::build_server_srn(spec, {.patch_interval_hours = 168.0}).model;
    const pt::VerifyReport expected = pt::verify_model(weekly);
    for (const double cadence : {720.0, 1440.0}) {
      const av::ServerSrn fresh = av::build_server_srn(spec, {.patch_interval_hours = cadence});
      av::ServerSrn rerated = av::build_server_srn(spec, {.patch_interval_hours = 168.0});
      rerated.model.set_rate(rerated.patch_clock, 1.0 / cadence);
      for (const pt::SrnModel* net : {&fresh.model, static_cast<const pt::SrnModel*>(&rerated.model)}) {
        const pt::VerifyReport report = pt::verify_model(*net);
        expect_same_certificates(report.certificates, expected.certificates);
        expect_same_findings(report.findings, expected.findings);
      }
    }
  }
  std::map<ent::ServerRole, av::AggregatedRates> slow;
  std::map<ent::ServerRole, av::AggregatedRates> fast;
  double scale = 1.0;
  for (const auto& [role, spec] : ent::paper_server_specs()) {
    slow.emplace(role, av::AggregatedRates{.lambda_eq = 1.0 / 1440.0, .mu_eq = 0.5 * scale});
    fast.emplace(role, av::AggregatedRates{.lambda_eq = 1.0 / 168.0, .mu_eq = 3.0 / scale});
    scale *= 1.7;
  }
  for (unsigned k = 1; k <= 8; ++k) {
    const ent::RedundancyDesign design{{k, k, k, k}};
    SCOPED_TRACE(design.name());
    const av::NetworkSrn net = av::build_network_srn(design, slow);
    Rewards rewards;
    rewards.emplace_back("coa", net.coa_reward());
    const pt::VerifyReport expected = pt::verify_model(net.model, rewards);
    const av::NetworkSrn fresh = av::build_network_srn(design, fast);
    av::NetworkSrn rerated = av::build_network_srn(design, slow);
    av::set_tier_rates(rerated, fast);
    for (const pt::SrnModel* other :
         {&fresh.model, static_cast<const pt::SrnModel*>(&rerated.model)}) {
      const pt::VerifyReport report = pt::verify_model(*other, rewards);
      expect_same_certificates(report.certificates, expected.certificates);
      expect_same_findings(report.findings, expected.findings);
    }
  }
}

TEST(VerifyWiring, LumpedTransientBatchVerifiesOncePerBatch) {
  // No verification stage depends on the wave, so an 8-wave lumped batch
  // runs each stage once: every server stage and ONE network stage, each a
  // certificate build or a memo reuse.
  core::EngineOptions engine;
  engine.lumping = true;
  engine.time_points = {0.0, 1.0, 24.0};
  const core::Scenario scenario = core::Scenario::paper_case_study().with_engine(engine);
  using R = ent::ServerRole;
  const std::vector<std::map<R, unsigned>> waves = {
      {}, {{R::kDns, 1}}, {{R::kWeb, 1}}, {{R::kApp, 1}}, {{R::kDb, 1}},
      {{R::kWeb, 1}, {R::kApp, 1}}, {{R::kDns, 1}, {R::kDb, 1}}, {{R::kWeb, 2}}};
  const core::Session session(scenario);
  const std::vector<core::EvalReport> batch =
      session.evaluate_transient_batch(ent::example_network_design(), waves);
  const core::Session::WorkspaceCounters counters = session.workspace_counters();

  const core::EvalReport single =
      core::Session(scenario).evaluate_transient(ent::example_network_design());
  ASSERT_EQ(single.verification.size(), scenario.specs().size() + 1);
  EXPECT_EQ(counters.verify_structure_builds + counters.verify_structure_reuses,
            single.verification.size());
  ASSERT_EQ(batch.size(), waves.size());
  for (const core::EvalReport& report : batch) {
    ASSERT_EQ(report.verification.size(), single.verification.size());
    for (std::size_t s = 0; s < single.verification.size(); ++s) {
      EXPECT_EQ(report.verification[s].stage, single.verification[s].stage);
      expect_same_certificates(report.verification[s].report->certificates,
                               single.verification[s].report->certificates);
      expect_same_findings(report.verification[s].report->findings,
                           single.verification[s].report->findings);
    }
  }
}

TEST(VerifyWiring, OffModeCertifiesNothing) {
  core::EngineOptions engine;
  engine.verify = core::VerifyMode::kOff;
  const core::Session session(core::Scenario::paper_case_study().with_engine(engine));
  (void)session.evaluate(ent::example_network_design());
  const core::Session::WorkspaceCounters counters = session.workspace_counters();
  EXPECT_EQ(counters.verify_structure_builds, 0u);
  EXPECT_EQ(counters.verify_structure_reuses, 0u);
}
