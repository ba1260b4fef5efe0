// Ablation (paper Sec. V future work: "monthly patch of 3 months"): a
// severity-banded 3-month patch campaign — how the security metrics ratchet
// down month by month and what each month's patch load does to COA.

#include <cstdio>

#include "patchsec/core/campaign.hpp"
#include "patchsec/core/session.hpp"

namespace core = patchsec::core;
namespace ent = patchsec::enterprise;

int main() {
  const auto specs = ent::paper_server_specs();
  const auto policy = ent::ReachabilityPolicy::three_tier();
  const auto design = ent::example_network_design();

  // Baseline: the unpatched network.
  const core::EvalReport base = core::Session(core::Scenario::paper_case_study()).evaluate(design);
  std::printf("=== Severity-banded 3-month campaign, example network ===\n");
  std::printf("%-34s %6s %8s %6s %6s %8s %10s\n", "stage", "AIM", "ASP", "NoEV", "NoAP",
              "#patched", "COA(month)");
  std::printf("%-34s %6.1f %8.4f %6zu %6zu %8s %10s\n", "(before campaign)",
              base.before_patch.attack_impact, base.before_patch.attack_success_probability,
              base.before_patch.exploitable_vulnerabilities, base.before_patch.attack_paths, "-",
              "-");
  for (const auto& r : core::evaluate_campaign(design, specs, policy,
                                               core::severity_banded_campaign())) {
    std::printf("%-34s %6.1f %8.4f %6zu %6zu %8zu %10.5f\n", r.stage.c_str(),
                r.security.attack_impact, r.security.attack_success_probability,
                r.security.exploitable_vulnerabilities, r.security.attack_paths,
                r.vulnerabilities_patched, r.coa);
  }
  std::printf("\nReading: month 1 (critical) reproduces the paper's patch (AIM 42.2, COA\n"
              "0.99707); months 2-3 finish the attack surface off with lighter windows\n"
              "and correspondingly higher monthly COA.\n\n");
  return 0;
}
