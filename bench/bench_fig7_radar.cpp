// Reproduces Fig. 7: the six-metric radar comparison (NoEP, COA, ASP, AIM,
// NoEV, NoAP) of the five designs before (a) and after (b) patch, plus the
// multi-metric decision regions of Sec. IV-B (Eq. 4).

#include <cstdio>
#include <sstream>
#include <vector>

#include "patchsec/core/decision.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/core/report.hpp"

namespace {

namespace core = patchsec::core;

void print_phase(const char* title, const std::vector<core::EvalReport>& evals,
                 bool after) {
  std::printf("%s\n", title);
  std::printf("%-30s %6s %8s %6s %6s %6s %10s\n", "design", "AIM", "ASP", "NoEV", "NoAP", "NoEP",
              "COA");
  for (const auto& e : evals) {
    const auto& m = after ? e.after_patch : e.before_patch;
    std::printf("%-30s %6.1f %8.4f %6zu %6zu %6zu %10.5f\n", e.design.name().c_str(),
                m.attack_impact, m.attack_success_probability, m.exploitable_vulnerabilities,
                m.attack_paths, m.entry_points, e.coa);
  }
}

}  // namespace

int main() {
  const core::Session session(core::Scenario::paper_case_study());
  const auto evals = session.evaluate_all();

  print_phase("=== Fig. 7(a): before patch ===", evals, false);
  std::printf("\n");
  print_phase("=== Fig. 7(b): after patch ===", evals, true);

  std::printf("\n--- Sec. IV-B decision regions (Eq. 4) ---\n");
  const core::MultiMetricBounds region1{
      .asp_upper = 0.2, .noev_upper = 9, .noap_upper = 2, .noep_upper = 1, .coa_lower = 0.9962};
  std::printf("region 1 (phi=0.2, xi=9, omega=2, kappa=1, psi=0.9962)  [paper: 1+1+2APP+1]:\n");
  for (const auto& e : core::filter_designs(evals, region1)) {
    std::printf("  %s\n", e.design.name().c_str());
  }
  const core::MultiMetricBounds region2{
      .asp_upper = 0.1, .noev_upper = 7, .noap_upper = 1, .noep_upper = 1, .coa_lower = 0.9961};
  std::printf("region 2 (phi=0.1, xi=7, omega=1, kappa=1, psi=0.9961)  [paper: 2DNS+1+1+1]:\n");
  for (const auto& e : core::filter_designs(evals, region2)) {
    std::printf("  %s\n", e.design.name().c_str());
  }

  std::ostringstream csv;
  core::write_radar_csv(csv, evals);
  std::printf("\nCSV (for plotting):\n%s\n", csv.str().c_str());
  return 0;
}
