#include "patchsec/core/decision.hpp"

namespace patchsec::core {

namespace {

template <typename Bounds>
std::vector<EvalReport> filter(const std::vector<EvalReport>& reports, const Bounds& bounds) {
  std::vector<EvalReport> out;
  for (const EvalReport& r : reports) {
    if (satisfies(r, bounds)) out.push_back(r);
  }
  return out;
}

}  // namespace

bool satisfies(const EvalReport& report, const TwoMetricBounds& bounds) {
  return report.after_patch.attack_success_probability <= bounds.asp_upper &&
         report.coa >= bounds.coa_lower;
}

bool satisfies(const EvalReport& report, const MultiMetricBounds& bounds) {
  const harm::SecurityMetrics& m = report.after_patch;
  return m.attack_success_probability <= bounds.asp_upper &&
         m.exploitable_vulnerabilities <= bounds.noev_upper &&
         m.attack_paths <= bounds.noap_upper && m.entry_points <= bounds.noep_upper &&
         report.coa >= bounds.coa_lower;
}

std::vector<EvalReport> filter_designs(const std::vector<EvalReport>& reports,
                                       const TwoMetricBounds& bounds) {
  return filter(reports, bounds);
}

std::vector<EvalReport> filter_designs(const std::vector<EvalReport>& reports,
                                       const MultiMetricBounds& bounds) {
  return filter(reports, bounds);
}

}  // namespace patchsec::core
