// Reproduces Fig. 6: the ASP-vs-COA scatter of the five redundancy designs
// before (a) and after (b) the security patch, plus the two decision regions
// of Sec. IV-A (Eq. 3).

#include <cstdio>
#include <sstream>

#include "patchsec/core/decision.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/core/report.hpp"

namespace core = patchsec::core;

int main() {
  const core::Session session(core::Scenario::paper_case_study());
  const auto evals = session.evaluate_all();

  std::printf("=== Fig. 6(a): before patch (all designs at ASP = 1.0) ===\n");
  std::printf("%-30s %10s %10s\n", "design", "ASP", "COA");
  for (const auto& e : evals) {
    std::printf("%-30s %10.4f %10.5f\n", e.design.name().c_str(),
                e.before_patch.attack_success_probability, e.coa);
  }

  std::printf("\n=== Fig. 6(b): after patch ===\n");
  std::printf("%-30s %10s %10s\n", "design", "ASP", "COA");
  for (const auto& e : evals) {
    std::printf("%-30s %10.4f %10.5f\n", e.design.name().c_str(),
                e.after_patch.attack_success_probability, e.coa);
  }

  std::printf("\n--- Sec. IV-A decision regions (Eq. 3) ---\n");
  const core::TwoMetricBounds region1{.asp_upper = 0.2, .coa_lower = 0.9962};
  std::printf("region 1 (phi=0.2, psi=0.9962)  [paper: 1+1+2APP+1, 1+1+1+2DB]:\n");
  for (const auto& e : core::filter_designs(evals, region1)) {
    std::printf("  %s\n", e.design.name().c_str());
  }
  const core::TwoMetricBounds region2{.asp_upper = 0.1, .coa_lower = 0.9961};
  std::printf("region 2 (phi=0.1, psi=0.9961)  [paper: 2DNS+1+1+1]:\n");
  for (const auto& e : core::filter_designs(evals, region2)) {
    std::printf("  %s\n", e.design.name().c_str());
  }

  std::ostringstream csv;
  core::write_scatter_csv(csv, evals);
  std::printf("\nCSV (for plotting):\n%s\n", csv.str().c_str());
  return 0;
}
