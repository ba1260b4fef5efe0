// Bit pins of SRN lowering: for the paper's upper- and lower-layer nets, an
// FNV-1a hash over the tangible markings, the generator's CSR arrays, the
// exit rates and the initial distribution of build_reachability_graph.  Any
// change to state order, edge order, rate summation order or generator
// layout moves a hash, so explorer and Ctmc rewrites must keep every bit.
//
// Also the reachability work counter: ReachabilityGraph::firings must equal
// the timed firings the lowering resolves, one per (state, enabled timed
// transition), which bounds it by timed_transitions x states.
//
// The pins assume IEEE-754 binary64 arithmetic without fused multiply-add
// contraction (the portable default build); a build that may contract
// (-march=native on an FMA host) skips them.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "patchsec/avail/aggregation.hpp"
#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/server_srn.hpp"
#include "patchsec/enterprise/design.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/petri/reachability.hpp"

namespace av = patchsec::avail;
namespace ent = patchsec::enterprise;
namespace pt = patchsec::petri;

namespace {

class Fnv1a {
 public:
  void word(std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (w >> (8 * b)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void real(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    word(bits);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

std::uint64_t lowering_hash(const pt::SrnModel& model) {
  const pt::ReachabilityGraph graph = pt::build_reachability_graph(model);
  Fnv1a h;
  h.word(graph.tangible_count());
  for (const pt::Marking& m : graph.tangible_markings) {
    for (pt::TokenCount t : m) h.word(t);
  }
  const auto& q = graph.chain.generator();
  for (std::size_t v : q.row_offsets()) h.word(v);
  for (std::size_t v : q.col_indices()) h.word(v);
  for (double v : q.values()) h.real(v);
  for (double v : graph.chain.exit_rates()) h.real(v);
  for (double v : graph.initial_distribution) h.real(v);
  return h.value();
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

/// Every pinned net, keyed "<cadence>/<family>/<name>".
std::map<std::string, std::uint64_t> lowering_hashes() {
  std::map<std::string, std::uint64_t> hashes;
  const std::map<ent::ServerRole, ent::ServerSpec> specs = ent::paper_server_specs();
  for (const double cadence : {168.0, 720.0, 1440.0}) {
    const std::string prefix = std::to_string(static_cast<int>(cadence)) + "/";
    std::map<ent::ServerRole, av::AggregatedRates> rates;
    for (const auto& [role, spec] : specs) {
      const av::ServerSrnOptions options{.patch_interval_hours = cadence};
      hashes[prefix + "server/" + ent::to_string(role)] =
          lowering_hash(av::build_server_srn(spec, options).model);
      rates.emplace(role, av::aggregate_server(spec, options));
    }
    for (const ent::RedundancyDesign& d : pinned_designs()) {
      hashes[prefix + "network/" + design_key(d)] =
          lowering_hash(av::build_network_srn(d, rates).model);
      hashes[prefix + "synchronized/" + design_key(d)] =
          lowering_hash(av::build_network_srn_synchronized(d, rates).model);
    }
  }
  return hashes;
}

}  // namespace

TEST(LoweringPin, PaperNetsLowerToPinnedBits) {
#if defined(__FMA__)
  GTEST_SKIP() << "FMA contraction may move rate bits; pins hold for portable builds";
#endif
  // clang-format off
  const std::map<std::string, std::uint64_t> expected = {
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
  const std::map<std::string, std::uint64_t> actual = lowering_hashes();
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [key, hash] : expected) {
    const auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << key;
    EXPECT_EQ(it->second, hash) << key;
  }
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
      const pt::ReachabilityGraph graph = pt::build_reachability_graph(net.model);
      std::size_t enabled = 0;
      for (const pt::Marking& m : graph.tangible_markings) enabled += net.model.enabled_timed(m).size();
      EXPECT_EQ(graph.firings, enabled) << "k=" << k << " synchronized=" << synchronized;
      EXPECT_LE(graph.firings, net.model.transition_count() * graph.tangible_count())
          << "k=" << k;
    }
  }
}
