// Reproduces Table III (guard functions, structurally) and Table IV (input
// parameters of the SRN sub-models for the DNS server), plus the state-space
// and reachability statistics of the lower-layer server SRN.

#include <cstdio>

#include "patchsec/avail/server_srn.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/petri/reachability.hpp"

namespace av = patchsec::avail;
namespace ent = patchsec::enterprise;
namespace pt = patchsec::petri;

int main() {
  const auto specs = ent::paper_server_specs();
  const auto& dns = specs.at(ent::ServerRole::kDns);
  const av::ServerSrnParameters p = av::server_srn_parameters(dns);

  std::printf("=== Table IV: input parameters of the SRN sub-models (DNS server) ===\n");
  std::printf("%-12s %-22s %14s %10s\n", "component", "transition", "parameter", "paper");
  std::printf("%-12s %-22s %11.0f h %10s\n", "Hardware", "failure 1/lambda_hw", p.hw_mtbf, "87600 h");
  std::printf("%-12s %-22s %11.0f h %10s\n", "", "recovery 1/mu_hw", p.hw_mttr, "1 h");
  std::printf("%-12s %-22s %11.0f h %10s\n", "OS", "failure 1/lambda_os", p.os_mtbf, "1440 h");
  std::printf("%-12s %-22s %11.0f h %10s\n", "", "recovery 1/mu_os", p.os_mttr, "1 h");
  std::printf("%-12s %-22s %9.0f min %10s\n", "", "patch 1/alpha_os", p.os_patch * 60, "20 min");
  std::printf("%-12s %-22s %9.0f min %10s\n", "", "reboot(patch) 1/beta_os",
              p.os_reboot_after_patch * 60, "10 min");
  std::printf("%-12s %-22s %9.0f min %10s\n", "", "reboot(fail) 1/delta_os",
              p.os_reboot_after_failure * 60, "10 min");
  std::printf("%-12s %-22s %11.0f h %10s\n", "DNS", "failure 1/lambda_dns", p.svc_mtbf, "336 h");
  std::printf("%-12s %-22s %9.0f min %10s\n", "", "recovery 1/mu_dns", p.svc_mttr * 60, "30 min");
  std::printf("%-12s %-22s %9.0f min %10s\n", "", "patch 1/alpha_dns", p.svc_patch * 60, "5 min");
  std::printf("%-12s %-22s %9.0f min %10s\n", "", "reboot(patch) 1/beta_dns",
              p.svc_reboot_after_patch * 60, "5 min");
  std::printf("%-12s %-22s %9.0f min %10s\n", "", "reboot(fail) 1/delta_dns",
              p.svc_reboot_after_failure * 60, "5 min");
  std::printf("%-12s %-22s %11.0f h %10s\n", "Patch clock", "time to patch 1/tau_p",
              p.patch_interval, "720 h");

  std::printf("\n=== Table III (structural): guarded transitions of the server SRN ===\n");
  const av::ServerSrn srn = av::build_server_srn(dns);
  std::printf("places=%zu transitions=%zu\n", srn.model.place_count(),
              srn.model.transition_count());
  for (pt::TransitionId t = 0; t < srn.model.transition_count(); ++t) {
    std::printf("  %-10s (%s)\n", srn.model.transition_name(t).c_str(),
                srn.model.transition_kind(t) == pt::TransitionKind::kTimed ? "timed"
                                                                           : "immediate");
  }

  std::printf("\n=== State space of the lower-layer SRN per server ===\n");
  for (const auto& [role, spec] : specs) {
    const av::ServerSrn s = av::build_server_srn(spec);
    const pt::ReachabilityGraph g = pt::build_reachability_graph(s.model);
    std::printf("  %-4s tangible markings=%3zu  vanishing visits=%zu  transitions=%zu\n",
                ent::to_string(role), g.tangible_count(), g.vanishing_markings_seen,
                g.chain.transition_count());
  }
  std::printf("\n");
  return 0;
}
