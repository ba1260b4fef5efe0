#pragma once
/// \file decision.hpp
/// \brief Decision functions of Sec. IV: compare after-patch metric values
/// against administrator-chosen bounds and keep the designs satisfying all of
/// them.

#include <cstdint>
#include <vector>

#include "patchsec/core/session.hpp"

namespace patchsec::core {

/// \brief Eq. (3): f(ASP, COA) = 1 iff ASP <= phi and COA >= psi.
struct TwoMetricBounds {
  double asp_upper = 1.0;  ///< phi
  double coa_lower = 0.0;  ///< psi
};

[[nodiscard]] bool satisfies(const EvalReport& report, const TwoMetricBounds& bounds);

/// \brief Eq. (4): additionally bounds NoEV (xi), NoAP (omega) and NoEP
/// (kappa).  AIM carries no bound: the paper observes it is identical across
/// designs.
struct MultiMetricBounds {
  double asp_upper = 1.0;            ///< phi
  std::size_t noev_upper = SIZE_MAX; ///< xi
  std::size_t noap_upper = SIZE_MAX; ///< omega
  std::size_t noep_upper = SIZE_MAX; ///< kappa
  double coa_lower = 0.0;            ///< psi
};

[[nodiscard]] bool satisfies(const EvalReport& report, const MultiMetricBounds& bounds);

/// \brief Filter helpers returning the satisfying designs in input order.
[[nodiscard]] std::vector<EvalReport> filter_designs(const std::vector<EvalReport>& reports,
                                                     const TwoMetricBounds& bounds);
[[nodiscard]] std::vector<EvalReport> filter_designs(const std::vector<EvalReport>& reports,
                                                     const MultiMetricBounds& bounds);

}  // namespace patchsec::core
