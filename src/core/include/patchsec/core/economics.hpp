#pragma once
/// \file economics.hpp
/// \brief Economic metrics (paper Sec. V, "other metrics" extension): attach
/// costs to redundancy designs so the administrator can pick by money instead
/// of by raw metric bounds — gain of high availability vs cost of redundancy,
/// loss from successful attacks vs cost of patching.

#include <vector>

#include "patchsec/core/session.hpp"

namespace patchsec::core {

/// \brief Cost parameters, all in the same currency unit.
struct CostModel {
  /// Owning one server for a year (hardware amortization + power + licences).
  double server_cost_per_year = 10'000.0;
  /// Revenue lost per hour of full-service capacity (scaled by 1 - COA).
  double downtime_cost_per_hour = 5'000.0;
  /// Expected loss of one successful compromise of the target data.
  double breach_cost = 250'000.0;
  /// Probability that a capable attacker shows up within a year.
  double annual_attack_probability = 1.0;
  /// Labor per patch event per server.
  double patch_labor_cost = 200.0;
  /// Patch events per year (12 for the paper's monthly schedule).
  double patches_per_year = 12.0;
};

/// \brief Cost breakdown of a design over one year.
struct CostBreakdown {
  double infrastructure = 0.0;  ///< servers.
  double downtime = 0.0;        ///< (1 - COA) * hours/year * cost/hour.
  double breach_risk = 0.0;     ///< ASP(after) * attack prob * breach cost.
  double patching = 0.0;        ///< labor.

  [[nodiscard]] double total() const {
    return infrastructure + downtime + breach_risk + patching;
  }
};

/// \brief Annual cost of a design given its joint evaluation.
/// \throws std::invalid_argument when annual_attack_probability is outside
///         [0, 1].
[[nodiscard]] CostBreakdown annual_cost(const EvalReport& report, const CostModel& model);

/// \brief The evaluated design with the lowest total annual cost.
/// \throws std::invalid_argument on an empty candidate list.
[[nodiscard]] const EvalReport& cheapest_design(const std::vector<EvalReport>& reports,
                                                const CostModel& model);

}  // namespace patchsec::core
