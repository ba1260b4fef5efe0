#pragma once
// Aggregation of the lower-layer server SRN into the two-state (up / down-
// due-to-patch) abstraction used by the network model (paper Sec. III-D2,
// Eqs. (1)-(2), Table V):
//
//   lambda_eq = tau_p                                  (Eq. 1)
//   mu_eq     = beta_svc * p_prrb / p_pd               (Eq. 2)
//
// where p_pd is the steady-state probability that the service is down due to
// patching and p_prrb the probability that the service-reboot transition is
// enabled (service ready to reboot, OS and hardware back up).

#include <memory>

#include "patchsec/avail/server_srn.hpp"
#include "patchsec/enterprise/server.hpp"
#include "patchsec/petri/reachability.hpp"

namespace patchsec::avail {

/// Aggregated per-service rates (one row of Table V).
struct AggregatedRates {
  double lambda_eq = 0.0;  ///< patch rate (1/h).
  double mu_eq = 0.0;      ///< recovery rate (1/h).
  double p_patch_down = 0.0;
  double p_reboot_enabled = 0.0;

  /// Mean time to patch (hours) = 1/lambda_eq.
  [[nodiscard]] double mttp_hours() const { return 1.0 / lambda_eq; }
  /// Mean time to recovery (hours) = 1/mu_eq.
  [[nodiscard]] double mttr_hours() const { return 1.0 / mu_eq; }
};

/// Build the server SRN under the given policy options (patch cadence,
/// campaign stages, reboot-free patches), solve its steady state and
/// aggregate.  The closed-form sanity bound: mu_eq ~= 1 / (patch + reboot
/// durations).  Throws std::domain_error when the options leave nothing to
/// patch in a cycle.
[[nodiscard]] AggregatedRates aggregate_server(const enterprise::ServerSpec& spec,
                                               const ServerSrnOptions& options = {});

/// Aggregation result carrying the lower-layer solve diagnostics (state
/// counts, solver iterations, residual, converged flag, wall time).
struct ServerAggregation {
  AggregatedRates rates;
  petri::SolveDiagnostics diagnostics;
};

/// Aggregate under explicit policy options AND an explicit solver
/// configuration — the fully-threaded form used by core::Session.  With
/// engine.throw_on_divergence == false a non-converged steady-state solve is
/// reported through the returned diagnostics instead of thrown.  A non-null
/// `workspace` reuses the caller's linalg::StationarySolver across solves
/// (core::Session passes one per worker thread, so schedule sweeps re-solve
/// the same-structure server SRN without rebuilding solver state).
[[nodiscard]] ServerAggregation aggregate_server_detailed(
    const enterprise::ServerSpec& spec, const ServerSrnOptions& options,
    const petri::AnalyzerOptions& engine, linalg::StationarySolver* workspace = nullptr);

/// aggregate_server_detailed on `srn` = build_server_srn(spec, options), built
/// by the caller (core::Session verifies that net, then aggregates it).
/// `exploration` is petri::SrnAnalyzer's: pointing at an exploration of the
/// net under options differing at most in patch_interval_hours, that one is
/// re-rated (bit-identical); pointing at null, it receives this net's
/// exploration for a later re-rate.
[[nodiscard]] ServerAggregation aggregate_server_srn(
    const ServerSrn& srn, const enterprise::ServerSpec& spec, const ServerSrnOptions& options,
    const petri::AnalyzerOptions& engine, linalg::StationarySolver* workspace = nullptr,
    std::shared_ptr<const petri::ReachabilityGraph>* exploration = nullptr);

/// Closed-form approximation of mu_eq ignoring failures (the patch phases in
/// sequence): 1 / (1/alpha_svc + 1/alpha_os + 1/beta_os + 1/beta_svc).
/// Exposed as a test oracle and for quick what-if sweeps.
[[nodiscard]] double mu_eq_closed_form(const enterprise::ServerSpec& spec);

}  // namespace patchsec::avail
