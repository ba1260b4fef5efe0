// Bit pins of SRN lowering: for the paper's upper- and lower-layer nets, an
// FNV-1a hash over the tangible markings, the generator's CSR arrays, the
// exit rates and the initial distribution of build_reachability_graph.  Any
// change to state order, edge order, rate summation order or generator
// layout moves a hash, so explorer and Ctmc rewrites must keep every bit.
//
// The same pins hold for a net explored at 168 h and re-rated (petri::rerate)
// to 720 h and 1440 h: re-rating must reproduce a fresh exploration bit for
// bit while sharing the explored generator's structure arrays, and refuse
// every rate exploration refuses with the same error, and any exploration
// that kept no firing record.  They also hold for a net built at 168 h whose
// rates are set in place (SrnModel::set_rate, avail::set_tier_rates) and
// explored fresh.
//
// Also the reachability work counter: ReachabilityGraph::firings must equal
// the timed firings the lowering resolves, one per (state, enabled timed
// transition), which bounds it by timed_transitions x states.
//
// The pins assume IEEE-754 binary64 arithmetic without fused multiply-add
// contraction (the portable default build); a build that may contract
// (-march=native on an FMA host) skips them.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "patchsec/avail/aggregation.hpp"
#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/server_srn.hpp"
#include "patchsec/enterprise/design.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/petri/reachability.hpp"
#include "bit_hash.hpp"

namespace av = patchsec::avail;
namespace ent = patchsec::enterprise;
namespace pt = patchsec::petri;
using patchsec::testing::Fnv1a;

namespace {

/// Hash of a lowering: `graph`'s markings and initial distribution with
/// `chain` (graph.chain, or a re-rate of it).
std::uint64_t lowering_hash(const pt::ReachabilityGraph& graph, const patchsec::ctmc::Ctmc& chain) {
  Fnv1a h;
  h.word(graph.tangible_count());
  for (const pt::Marking& m : graph.tangible_markings) {
    for (pt::TokenCount t : m) h.word(t);
  }
  const auto& q = chain.generator();
  for (std::size_t v : q.row_offsets()) h.word(v);
  for (std::size_t v : q.col_indices()) h.word(v);
  for (double v : q.values()) h.real(v);
  for (double v : chain.exit_rates()) h.real(v);
  for (double v : graph.initial_distribution) h.real(v);
  return h.value();
}

std::uint64_t lowering_hash(const pt::SrnModel& model) {
  const pt::ReachabilityGraph graph = pt::build_reachability_graph(model);
  return lowering_hash(graph, graph.chain);
}

std::vector<ent::RedundancyDesign> pinned_designs() {
  std::vector<ent::RedundancyDesign> designs = ent::paper_designs();
  designs.push_back({{3, 4, 5, 6}});
  designs.push_back({{4, 5, 6, 6}});
  return designs;
}

std::string design_key(const ent::RedundancyDesign& d) {
  return std::to_string(d.counts[0]) + std::to_string(d.counts[1]) +
         std::to_string(d.counts[2]) + std::to_string(d.counts[3]);
}

/// Every pinned net at one cadence, keyed "<family>/<name>".
std::map<std::string, pt::SrnModel> pinned_models(double cadence) {
  std::map<std::string, pt::SrnModel> models;
  std::map<ent::ServerRole, av::AggregatedRates> rates;
  for (const auto& [role, spec] : ent::paper_server_specs()) {
    const av::ServerSrnOptions options{.patch_interval_hours = cadence};
    models.emplace(std::string("server/") + ent::to_string(role),
                   av::build_server_srn(spec, options).model);
    rates.emplace(role, av::aggregate_server(spec, options));
  }
  for (const ent::RedundancyDesign& d : pinned_designs()) {
    models.emplace("network/" + design_key(d), av::build_network_srn(d, rates).model);
    models.emplace("synchronized/" + design_key(d),
                   av::build_network_srn_synchronized(d, rates).model);
  }
  return models;
}

/// pinned_models(cadence), built at 168 h and re-rated in place.
std::map<std::string, pt::SrnModel> rerated_models(double cadence) {
  std::map<std::string, pt::SrnModel> models;
  std::map<ent::ServerRole, av::AggregatedRates> weekly;
  std::map<ent::ServerRole, av::AggregatedRates> rates;
  for (const auto& [role, spec] : ent::paper_server_specs()) {
    av::ServerSrn srn = av::build_server_srn(spec, {.patch_interval_hours = 168.0});
    srn.model.set_rate(srn.patch_clock, 1.0 / cadence);
    models.emplace(std::string("server/") + ent::to_string(role), std::move(srn.model));
    weekly.emplace(role, av::aggregate_server(spec, {.patch_interval_hours = 168.0}));
    rates.emplace(role, av::aggregate_server(spec, {.patch_interval_hours = cadence}));
  }
  for (const ent::RedundancyDesign& d : pinned_designs()) {
    av::NetworkSrn network = av::build_network_srn(d, weekly);
    av::set_tier_rates(network, rates);
    models.emplace("network/" + design_key(d), std::move(network.model));
    av::NetworkSrn synchronized = av::build_network_srn_synchronized(d, weekly);
    av::set_tier_rates(synchronized, rates);
    models.emplace("synchronized/" + design_key(d), std::move(synchronized.model));
  }
  return models;
}

std::string cadence_prefix(double cadence) {
  return std::to_string(static_cast<int>(cadence)) + "/";
}

/// Every pinned net, keyed "<cadence>/<family>/<name>".
std::map<std::string, std::uint64_t> lowering_hashes() {
  std::map<std::string, std::uint64_t> hashes;
  for (const double cadence : {168.0, 720.0, 1440.0}) {
    for (const auto& [name, model] : pinned_models(cadence)) {
      hashes[cadence_prefix(cadence) + name] = lowering_hash(model);
    }
  }
  return hashes;
}

/// The pins, captured before the explorer's one-pass rewrite.
const std::map<std::string, std::uint64_t>& pinned_hashes() {
  // clang-format off
  static const std::map<std::string, std::uint64_t> expected = {
      {"1440/network/1111", 0x286044f9c1babc2bull},
      {"1440/network/1112", 0x597b530f14cd68acull},
      {"1440/network/1121", 0x75f9107278af644eull},
      {"1440/network/1211", 0xba25004585498f5bull},
      {"1440/network/2111", 0xf9882d2547399057ull},
      {"1440/network/3456", 0x762385814a708d95ull},
      {"1440/network/4566", 0xe49396b4026c67ffull},
      {"1440/server/APP", 0x5814c20aaac7b718ull},
      {"1440/server/DB", 0xdb4b856ce1dc8530ull},
      {"1440/server/DNS", 0xb2ec15b20b49d3b8ull},
      {"1440/server/WEB", 0x4d18e538ac7c9db8ull},
      {"1440/synchronized/1111", 0x286044f9c1babc2bull},
      {"1440/synchronized/1112", 0x06205f1a74132eabull},
      {"1440/synchronized/1121", 0x8f62c2c919712eabull},
      {"1440/synchronized/1211", 0x706928c07b0b2eabull},
      {"1440/synchronized/2111", 0x875fbadcacf49b2bull},
      {"1440/synchronized/3456", 0x3ece5978ceecc42bull},
      {"1440/synchronized/4566", 0x65d17a1de515142bull},
      {"168/network/1111", 0x1e5c51a0d894a446ull},
      {"168/network/1112", 0xa96cce189bf73ba0ull},
      {"168/network/1121", 0x917e2f03f18a99c3ull},
      {"168/network/1211", 0x1e911b708aa1ca77ull},
      {"168/network/2111", 0xfc28ccec0c6779eaull},
      {"168/network/3456", 0xbbb5f3d04bdbedd8ull},
      {"168/network/4566", 0x869179e9da2110e7ull},
      {"168/server/APP", 0xbbc2d50faca1c1afull},
      {"168/server/DB", 0xb94bc65a916a1a77ull},
      {"168/server/DNS", 0x794333b05b760aafull},
      {"168/server/WEB", 0xefb9e69865651d6full},
      {"168/synchronized/1111", 0x1e5c51a0d894a446ull},
      {"168/synchronized/1112", 0xcf8f98e997bd96c6ull},
      {"168/synchronized/1121", 0x58d1fc983d1b96c6ull},
      {"168/synchronized/1211", 0x39d8628f9eb596c6ull},
      {"168/synchronized/2111", 0x7d5bc783c3ce8346ull},
      {"168/synchronized/3456", 0x34ca661fe5c6ac46ull},
      {"168/synchronized/4566", 0x5bcd86c4fbeefc46ull},
      {"720/network/1111", 0x47891892b02308a4ull},
      {"720/network/1112", 0x2d9f0f86e762b98aull},
      {"720/network/1121", 0x4e80335a25626dd3ull},
      {"720/network/1211", 0x7650598ca676d373ull},
      {"720/network/2111", 0xdd8eee24164100ddull},
      {"720/network/3456", 0xca57754fa1058ae1ull},
      {"720/network/4566", 0x9468fd116a1b6cdbull},
      {"720/server/APP", 0xf5e305affb2ed040ull},
      {"720/server/DB", 0x7437aa5cef24d598ull},
      {"720/server/DNS", 0x59072d4ffe94d050ull},
      {"720/server/WEB", 0xe889bcceccd39c90ull},
      {"720/synchronized/1111", 0x47891892b02308a4ull},
      {"720/synchronized/1112", 0x091852c79d2c6d24ull},
      {"720/synchronized/1121", 0x925ab676428a6d24ull},
      {"720/synchronized/1211", 0x73611c6da4246d24ull},
      {"720/synchronized/2111", 0xa6888e759b5ce7a4ull},
      {"720/synchronized/3456", 0x5df72d11bd5510a4ull},
      {"720/synchronized/4566", 0x84fa4db6d37d60a4ull},
  };
  // clang-format on
  return expected;
}

/// A two-state net whose failure rate is `rate`, as fresh exploration and a
/// re-rate both see it; per token of the down place when `per_down`, so 0
/// wherever it can fire.
pt::SrnModel up_down(double rate, bool per_down = false) {
  pt::SrnModel net;
  const pt::PlaceId up = net.add_place("up", 1);
  const pt::PlaceId down = net.add_place("down", 0);
  const pt::TransitionId fail = per_down ? net.add_timed_transition("Tfail", rate, down)
                                         : net.add_timed_transition("Tfail", rate);
  net.add_input_arc(fail, up);
  net.add_output_arc(fail, down);
  const pt::TransitionId repair = net.add_timed_transition("Trepair", 2.0);
  net.add_input_arc(repair, down);
  net.add_output_arc(repair, up);
  return net;
}

}  // namespace

TEST(LoweringPin, PaperNetsLowerToPinnedBits) {
#if defined(__FMA__)
  GTEST_SKIP() << "FMA contraction may move rate bits; pins hold for portable builds";
#endif
  const std::map<std::string, std::uint64_t>& expected = pinned_hashes();
  const std::map<std::string, std::uint64_t> actual = lowering_hashes();
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [key, hash] : expected) {
    const auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << key;
    EXPECT_EQ(it->second, hash) << key;
  }
}

TEST(LoweringPin, RerateFromTheWeeklyExplorationHitsThePins) {
#if defined(__FMA__)
  GTEST_SKIP() << "FMA contraction may move rate bits; pins hold for portable builds";
#endif
  // Server nets (immediates, vanishing resolution), network nets
  // (marking-dependent rates) and synchronized nets (arc multiplicities):
  // explored once at 168 h, re-rated to the other pinned cadences.
  const std::map<std::string, pt::SrnModel> weekly = pinned_models(168.0);
  std::map<std::string, pt::ReachabilityGraph> explored;
  for (const auto& [name, model] : weekly) {
    const pt::ReachabilityGraph& graph =
        explored.emplace(name, pt::explore_for_rerate(model)).first->second;
    // Keeping the record changes no bit of the exploration itself.
    const std::string key = cadence_prefix(168.0) + name;
    EXPECT_EQ(lowering_hash(graph, graph.chain), pinned_hashes().at(key)) << key;
  }
  for (const double cadence : {720.0, 1440.0}) {
    const std::map<std::string, pt::SrnModel> models = pinned_models(cadence);
    ASSERT_EQ(models.size(), explored.size());
    for (const auto& [name, model] : models) {
      const pt::ReachabilityGraph& graph = explored.at(name);
      const std::string key = cadence_prefix(cadence) + name;
      const patchsec::ctmc::Ctmc chain = pt::rerate(graph, model);
      EXPECT_EQ(lowering_hash(graph, chain), pinned_hashes().at(key)) << key;
      // The re-rate wrote values only: its structure is the exploration's own.
      EXPECT_EQ(chain.generator().structure(), graph.chain.generator().structure()) << key;
      EXPECT_EQ(chain.generator().row_offsets().data(),
                graph.chain.generator().row_offsets().data())
          << key;
      EXPECT_EQ(chain.generator().col_indices().data(),
                graph.chain.generator().col_indices().data())
          << key;
      EXPECT_NE(chain.generator().values().data(), graph.chain.generator().values().data())
          << key;
    }
  }
}

TEST(LoweringPin, RatesSetInPlaceExploreOntoThePins) {
#if defined(__FMA__)
  GTEST_SKIP() << "FMA contraction may move rate bits; pins hold for portable builds";
#endif
  // Each pinned net built at 168 h, its rates set to another pinned cadence's
  // and explored fresh: the cadence's pins, bit for bit.
  std::size_t checked = 0;
  for (const double cadence : {720.0, 1440.0}) {
    for (const auto& [name, model] : rerated_models(cadence)) {
      const std::string key = cadence_prefix(cadence) + name;
      EXPECT_EQ(lowering_hash(model), pinned_hashes().at(key)) << key;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2 * pinned_hashes().size() / 3);
}

TEST(LoweringRerate, RefusesEveryRateExplorationRefuses) {
  const pt::ReachabilityGraph graph = pt::explore_for_rerate(up_down(0.5));
  // An invalid constant is refused before any exploration: it can be
  // neither built nor set.
  for (const double bad : {0.0, -1.0, std::nan(""), std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)up_down(bad), std::invalid_argument) << bad;
    pt::SrnModel net = up_down(0.5);
    EXPECT_THROW(net.set_rate(net.transition("Tfail"), bad), std::invalid_argument) << bad;
  }
  // What is left to refuse at run time is a per-token rate at an empty
  // place: both explorers refuse it with the same error.
  std::string fresh;
  std::string rerated;
  try {
    (void)pt::build_reachability_graph(up_down(0.5, true));
  } catch (const std::domain_error& e) {
    fresh = e.what();
  }
  try {
    (void)pt::rerate(graph, up_down(0.5, true));
  } catch (const std::domain_error& e) {
    rerated = e.what();
  }
  EXPECT_NE(fresh.find("Tfail"), std::string::npos);
  EXPECT_NE(fresh.find("down"), std::string::npos);
  EXPECT_EQ(rerated, fresh);
  // A net of another shape is not a re-rate of this exploration.
  pt::SrnModel wider = up_down(0.5);
  (void)wider.add_place("spare", 0);
  EXPECT_THROW((void)pt::rerate(graph, wider), std::invalid_argument);
  pt::SrnModel busier = up_down(0.5);
  (void)busier.add_timed_transition("Textra", 1.0);
  EXPECT_THROW((void)pt::rerate(graph, busier), std::invalid_argument);
  // Same shape, new rate: the chain a fresh exploration assembles.
  const pt::ReachabilityGraph explored = pt::build_reachability_graph(up_down(0.25));
  EXPECT_EQ(lowering_hash(graph, pt::rerate(graph, up_down(0.25))),
            lowering_hash(explored, explored.chain));
}

TEST(LoweringRerate, RefusesAnExplorationWithoutARecord) {
  // build_reachability_graph keeps no firing record: nothing to re-rate.
  const pt::ReachabilityGraph graph = pt::build_reachability_graph(up_down(0.5));
  EXPECT_TRUE(graph.record.successors.empty());
  EXPECT_THROW((void)pt::rerate(graph, up_down(0.25)), std::invalid_argument);
  EXPECT_THROW((void)pt::rerate(graph, up_down(0.5)), std::invalid_argument);
}

TEST(LoweringWork, FiringsCountEveryEnabledTimedTransitionOnce) {
  // k = 1..8 servers per tier: (k+1)^4 states up to 6,561.  The explorer
  // fires each enabled timed transition of each tangible state exactly once,
  // so its work is linear in states x timed transitions.
  std::map<ent::ServerRole, av::AggregatedRates> rates;
  for (const auto& [role, spec] : ent::paper_server_specs()) {
    rates.emplace(role, av::AggregatedRates{.lambda_eq = 1.0 / 720.0, .mu_eq = 0.5});
  }
  for (unsigned k = 1; k <= 8; ++k) {
    for (const bool synchronized : {false, true}) {
      const ent::RedundancyDesign design{{k, k, k, k}};
      const av::NetworkSrn net = synchronized ? av::build_network_srn_synchronized(design, rates)
                                              : av::build_network_srn(design, rates);
      const pt::ReachabilityGraph graph = pt::explore_for_rerate(net.model);
      std::size_t enabled = 0;
      for (const pt::Marking& m : graph.tangible_markings) enabled += net.model.enabled_timed(m).size();
      EXPECT_EQ(graph.firings, enabled) << "k=" << k << " synchronized=" << synchronized;
      // Without immediates the record is one 8-byte successor per firing...
      static_assert(sizeof(pt::FiringRecord::Successor) == 8);
      EXPECT_EQ(graph.record.successors.size(), graph.firings);
      EXPECT_TRUE(graph.record.probabilities.empty());
      // ...and an exploration nobody re-rates does the same work without it.
      const pt::ReachabilityGraph plain = pt::build_reachability_graph(net.model);
      EXPECT_EQ(plain.firings, graph.firings);
      EXPECT_TRUE(plain.record.successors.empty());
      EXPECT_EQ(plain.record.offsets.size(), 1u);
      EXPECT_LE(graph.firings, net.model.transition_count() * graph.tangible_count())
          << "k=" << k;
    }
  }
}
