#include "patchsec/core/economics.hpp"

#include <stdexcept>

namespace patchsec::core {

CostBreakdown annual_cost(const EvalReport& report, const CostModel& model) {
  // Negated so NaN is rejected too.
  if (!(model.annual_attack_probability >= 0.0 && model.annual_attack_probability <= 1.0)) {
    throw std::invalid_argument("annual_attack_probability must be in [0,1]");
  }
  constexpr double kHoursPerYear = 8760.0;
  CostBreakdown cost;
  cost.infrastructure = model.server_cost_per_year * report.design.total_servers();
  cost.downtime = (1.0 - report.coa) * kHoursPerYear * model.downtime_cost_per_hour;
  cost.breach_risk = report.after_patch.attack_success_probability *
                     model.annual_attack_probability * model.breach_cost;
  cost.patching = model.patch_labor_cost * model.patches_per_year * report.design.total_servers();
  return cost;
}

const EvalReport& cheapest_design(const std::vector<EvalReport>& reports, const CostModel& model) {
  if (reports.empty()) throw std::invalid_argument("cheapest_design: no candidates");
  const EvalReport* best = &reports.front();
  double best_cost = annual_cost(*best, model).total();
  for (const EvalReport& r : reports) {
    const double c = annual_cost(r, model).total();
    if (c < best_cost) {
      best = &r;
      best_cost = c;
    }
  }
  return *best;
}

}  // namespace patchsec::core
