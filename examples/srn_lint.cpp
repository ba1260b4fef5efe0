// srn_lint: static verification of the SRNs behind a scenario WITHOUT
// solving anything — P/T-invariant certificates, structural boundedness,
// token conservation, ergodicity pre-checks and the lint rule catalog
// (docs/ARCHITECTURE.md §11), at incidence-matrix cost.
//
// Usage:
//   srn_lint    lint the paper case study (every server net at the monthly
//               cadence + the network net of every candidate design)
//
// Exit status: 0 when every net is clean, 1 when any finding was reported,
// 2 on usage errors.

#include <cstdio>
#include <string>
#include <vector>

#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/server_srn.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/petri/verify.hpp"

namespace {

using namespace patchsec;

int lint_paper_case_study() {
  const core::Scenario scenario = core::Scenario::paper_case_study();
  const core::Session session(scenario);
  int findings = 0;

  // Lower layer: one server SRN per role at the scenario's first cadence.
  avail::ServerSrnOptions srn_options;
  srn_options.patch_interval_hours = scenario.patch_interval_hours();
  for (const auto& [role, spec] : scenario.specs()) {
    const petri::VerifyReport report =
        petri::verify_model(avail::build_server_srn(spec, srn_options).model);
    std::printf("server:%s\n%s", enterprise::to_string(role), petri::format(report).c_str());
    findings += static_cast<int>(report.findings.size());
  }

  // Upper layer: the network SRN of every candidate design, with the COA
  // reward wired in so the V-REWARD rules see what the solver will evaluate.
  const auto& rates = session.aggregated_rates();
  for (const enterprise::RedundancyDesign& design : scenario.designs()) {
    const avail::NetworkSrn net = avail::build_network_srn(design, rates);
    std::vector<std::pair<std::string, petri::RewardFunction>> rewards;
    rewards.emplace_back("coa", net.coa_reward());
    const petri::VerifyReport report = petri::verify_model(net.model, rewards);
    std::printf("network:%s\n%s", design.name().c_str(), petri::format(report).c_str());
    findings += static_cast<int>(report.findings.size());
  }
  return findings;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }
  std::printf("srn_lint: paper case study\n");
  return lint_paper_case_study() == 0 ? 0 : 1;
}
