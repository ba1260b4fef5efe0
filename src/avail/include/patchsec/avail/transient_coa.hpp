#pragma once
// Transient availability analysis: the COA trajectory after a patch event,
// computed by uniformization on the upper-layer CTMC.  Answers "how deep is
// the capacity dip when patch day hits, and how fast does it heal?" — a
// question the steady-state COA of the paper averages away.
//
// transient_coa_batch() is the engine behind core::Session::
// evaluate_transient and evaluate_transient_batch: one reachability build
// and one uniformized-matrix build (via a reusable ctmc::TransientSolver
// workspace) amortized over the whole time grid and every patch wave,
// returning per wave the COA curve, the accumulated COA (capacity delivered
// over the window, in server-fraction hours) and diagnostics.
// transient_coa_detailed() is its one-wave case.

#include <map>
#include <vector>

#include "patchsec/avail/network_srn.hpp"
#include "patchsec/ctmc/transient_solver.hpp"
#include "patchsec/petri/reachability.hpp"

namespace patchsec::avail {

/// One point of the COA(t) curve.
struct CoaPoint {
  double hours = 0.0;
  double coa = 0.0;
};

/// Inputs of one transient COA evaluation beyond the grid itself.
struct TransientCoaOptions {
  /// Per role, how many servers start the window down for patching (clamped
  /// to the tier size; roles not deployed are ignored).  Empty = the all-up
  /// initial marking.
  std::map<enterprise::ServerRole, unsigned> initial_down;
  /// Uniformization truncation policy.
  ctmc::TransientOptions uniformization;
  /// Reachability-graph limits for the upper-layer exploration.
  petri::ReachabilityOptions reachability;
};

/// The full transient evaluation: curve, window integral, and how much work
/// the engine did.
struct CoaCurveEvaluation {
  std::vector<CoaPoint> curve;
  /// int_0^T coa(s) ds over the window [0, t_back] — "capacity delivered",
  /// in server-fraction hours.  accumulated/T is the interval COA.
  double accumulated_coa_hours = 0.0;
  /// Model-size half of petri::SolveDiagnostics (tangible states,
  /// transitions, wall time); solver_iterations counts uniformization
  /// vector-matrix products and converged is always true (uniformization is
  /// a finite sum, not an iteration to a fixpoint).
  petri::SolveDiagnostics diagnostics;
  /// Uniformization internals (Lambda, Fox-Glynn window, matvec count).
  ctmc::TransientDiagnostics transient;
};

/// COA(t) at every grid point (ascending, non-negative, hours) for a design,
/// from per-role aggregated rates.  A non-null `workspace` reuses the
/// caller's ctmc::TransientSolver: a second curve on the same design+rates
/// skips the uniformized-matrix rebuild (core::Session passes one per worker
/// thread).  Throws std::invalid_argument on an empty or descending grid.
/// The one-wave transient_coa_batch on build_network_srn(design, rates)
/// (wave `options.initial_down`): bit for bit the same curve and
/// accumulated COA.
[[nodiscard]] CoaCurveEvaluation transient_coa_detailed(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const std::vector<double>& time_points_hours, const TransientCoaOptions& options = {},
    ctmc::TransientSolver* workspace = nullptr);

/// Batched transient COA: evaluate the SAME network net (built by the caller
/// with build_network_srn) and grid from B different patch-wave initial
/// markings in ONE solve — the reachability graph, reward vector and
/// uniformized matrix are built once, and every uniformization expansion
/// term costs one matrix sweep per 8 waves
/// (ctmc::TransientSolver::reward_curve_multi): COA dip curves for a whole
/// patch campaign's wave plan in a single pass.
///
/// Returns one CoaCurveEvaluation per wave, ordered like `waves`.
/// `options.initial_down` is ignored (the waves replace it); each result's
/// `diagnostics`/`transient` describe the SHARED batch solve (matvec_count
/// counts sweeps; transient.rhs_count records B), so summing them across
/// results would double-count.  Throws std::invalid_argument on an empty
/// or descending grid or an empty wave list.
[[nodiscard]] std::vector<CoaCurveEvaluation> transient_coa_batch(
    const NetworkSrn& net, const std::vector<double>& time_points_hours,
    const std::vector<std::map<enterprise::ServerRole, unsigned>>& waves,
    const TransientCoaOptions& options = {}, ctmc::TransientSolver* workspace = nullptr);

/// The patch-window entry marking of `net`: per role, `initial_down` servers
/// (clamped to the tier size) moved from up to down.  Shared by the analytic
/// path above and the test-side Monte-Carlo oracle (which must start its
/// replications from the same marking for the differential cross-check to be
/// meaningful).
[[nodiscard]] petri::Marking patch_window_marking(
    const NetworkSrn& net, const std::map<enterprise::ServerRole, unsigned>& initial_down);

/// Expected COA at the given time points, starting from a marking where
/// `initial_down` servers of each role are down for patching (clamped to the
/// tier size).  Time 0 reflects the initial dip; as t grows the curve
/// approaches the steady-state COA.
[[nodiscard]] std::vector<CoaPoint> transient_coa_curve(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const std::map<enterprise::ServerRole, unsigned>& initial_down,
    const std::vector<double>& time_points_hours);

/// Expected accumulated capacity shortfall (integral of steady-COA minus
/// COA(t)) over [0, horizon] after the patch event — "lost server-fraction
/// hours" of one patch wave.  The integral is exact: it is the accumulated
/// reward of a one-point ctmc::TransientSolver::reward_curve, which rides
/// the uniformization series.
[[nodiscard]] double patch_dip_shortfall(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const std::map<enterprise::ServerRole, unsigned>& initial_down, double horizon_hours);

}  // namespace patchsec::avail
