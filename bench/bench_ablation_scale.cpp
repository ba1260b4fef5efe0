// Ablation (paper Sec. V, "systems"): scalability of the evaluation as the
// network grows — larger redundancy counts inflate both the attack-path
// population (HARM side) and the upper-layer state space (SRN side).

#include <cstdio>

#include "patchsec/avail/network_srn.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/petri/reachability.hpp"

namespace av = patchsec::avail;
namespace core = patchsec::core;
namespace ent = patchsec::enterprise;
namespace pt = patchsec::petri;

int main() {
  const core::Session session(core::Scenario::paper_case_study());

  std::printf("=== Scalability: uniform k-redundancy (k DNS + k WEB + k APP + k DB) ===\n");
  std::printf("%-3s %8s %8s %10s %12s %10s\n", "k", "NoAP", "NoEV", "ASP(after)", "COA",
              "srn states");
  for (unsigned k = 1; k <= 5; ++k) {
    const ent::RedundancyDesign design{{k, k, k, k}};
    const core::EvalReport e = session.evaluate(design);
    const av::NetworkSrn net = av::build_network_srn(design, session.aggregated_rates());
    const pt::ReachabilityGraph g = pt::build_reachability_graph(net.model);
    std::printf("%-3u %8zu %8zu %10.4f %12.6f %10zu\n", k, e.before_patch.attack_paths,
                e.before_patch.exploitable_vulnerabilities,
                e.after_patch.attack_success_probability, e.coa, g.tangible_count());
  }
  std::printf("\nNoAP grows as k^3 + k^4 (direct + dns-first paths); the upper-layer SRN\n"
              "state space grows as (k+1)^4; both stay tractable for realistic k.\n\n");
  return 0;
}
