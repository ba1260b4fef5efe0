#pragma once
/// \file lumped_coa.hpp
/// \brief Capacity-oriented availability of the upper layer in closed form:
/// per-tier binomial up-counts instead of a solved chain.
///
/// In the counting-form network net (avail/network_srn.hpp) every server
/// patches at lambda_eq and recovers at mu_eq independently of every other
/// server, so each one is a two-state chain.  With s = lambda + mu,
/// pi = mu / s, q = lambda / s and x = e^{-s t}, a server that starts up is
/// up at t with probability a = pi + q x, and one that starts down with
/// b = pi (1 - x).  A tier of n servers with d of them down at t = 0 has
///
///   #up ~ Bin(n - d, a) + Bin(d, b),
///
/// and the Table VI reward is separable over the tiers:
///
///   COA(t) = (1/N) * sum_r E[#up_r] * prod_{q != r} P(#up_q > 0).
///
/// Steady state is the case x = 0: E[#up] = n pi and P(#up > 0) = 1 - q^n.
/// The complements 1 - a = q (1 - x) and 1 - b = q + pi x are computed
/// directly, never as 1 - a, so stiff rates and t -> 0 keep full precision.
/// A design of any size costs O(tiers) per time point; tests/test_lumping.cpp
/// pins the results against the flat solve and a birth-death oracle.

#include <map>
#include <vector>

#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/transient_coa.hpp"

namespace patchsec::avail {

/// Steady-state COA in closed form — the lumped counterpart of
/// capacity_oriented_availability_detailed.  `engine` is accepted for call
/// parity with the flat entry point; the closed form has no solver to
/// configure.  The diagnostics report tangible_states = sum_r (n_r + 1), the
/// support of the per-tier up-count distributions, and flat_states =
/// prod_r (n_r + 1), the joint space the flat solve would explore;
/// converged is true and no iterations ran.  Throws std::invalid_argument on
/// an empty design and on rates tier_rates refuses.
[[nodiscard]] CoaEvaluation capacity_oriented_availability_lumped_detailed(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const petri::AnalyzerOptions& engine = {});

/// Transient COA curve in closed form — the lumped counterpart of
/// transient_coa_detailed, from the patch-window marking (initial_down is
/// clamped to the tier size, as in patch_window_marking).  The accumulated
/// COA integrates the curve over [0, t_back] by composite 16-point
/// Gauss-Legendre on a graded mesh of panel width max(4 / Lambda, t / 2),
/// Lambda = sum_r n_r s_r, so the panel count grows as O(log(Lambda t)).
/// Nothing is explored or uniformized: `options.uniformization` and
/// `options.reachability` are unused, the `transient` diagnostics stay zero
/// (matvec_count = 0) and `diagnostics` reads as for the steady entry point.
/// Throws like the steady entry point, plus std::invalid_argument on an
/// empty, descending, negative or non-finite grid.
[[nodiscard]] CoaCurveEvaluation transient_coa_lumped_detailed(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const std::vector<double>& time_points_hours, const TransientCoaOptions& options = {});

}  // namespace patchsec::avail
