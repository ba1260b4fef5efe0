#pragma once
/// \file srn_simulator.hpp
/// \brief Discrete-event Monte-Carlo simulation of an SrnModel: the
/// statistical oracle of the differential validation harness (test-only; no
/// engine path runs it).  The same net, executed by sampling exponential
/// firings, must agree with the analytic (reachability + steady-state)
/// pipeline within confidence bounds.
///
/// One estimator per measure:
///  * steady state — independent replications: many trajectories of warmup +
///    horizon each, fanned out over threads;
///  * transient — one replicated pass over a whole time grid
///    (transient_reward_curve).
/// Each replication draws from its own counter-based RNG stream (seeded from
/// SimulationOptions::seed and the replication index), so every estimate is
/// bit-identical for a given seed regardless of thread count.
///
/// Both estimators run on the flattened petri::CompiledNet with reusable
/// event-loop workspaces: once warm, firing a transition allocates nothing.

#include <cstdint>
#include <functional>
#include <vector>

#include "patchsec/petri/compiled_net.hpp"
#include "patchsec/petri/srn_model.hpp"

namespace patchsec::sim {

struct SimulationOptions {
  std::uint64_t seed = 42;
  double warmup_hours = 2000.0;  ///< discarded transient prefix per
                                 ///< steady-state replication.
  std::size_t replications = 32;   ///< independent trajectories (>= 2).
  double horizon_hours = 20000.0;  ///< measured horizon per replication
                                   ///< (after the warmup).
  unsigned threads = 0;  ///< worker threads for replications; 0 = hardware
                         ///< concurrency.  Estimates do not depend on this.
  std::size_t max_vanishing_depth = 4096;  ///< immediate-chain bound.

  /// Throws std::invalid_argument with a precise message when any knob is
  /// unusable: replications < 2, or warmup_hours / horizon_hours not
  /// finite and positive (NaN and +inf included: an infinite horizon never
  /// returns).  The steady-state estimators validate through this.
  void validate() const;
};

/// Per-run execution counters, surfaced next to the estimate.
struct SimDiagnostics {
  std::size_t replications = 0;  ///< replications aggregated.
  double half_width_95 = 0.0;    ///< 95% CI half width of the estimate.
  std::uint64_t events_fired = 0;  ///< timed + immediate firings executed.
  double wall_time_seconds = 0.0;
  unsigned threads_used = 1;
};

/// Replicated estimate of a transient reward curve: per-time-point means and
/// 95% half widths, plus the time-averaged reward over [0, t_back] from the
/// same replications (interval availability when the reward is COA).  The
/// finite-horizon counterpart of ctmc::TransientSolver::reward_curve and the
/// statistical oracle of the transient differential mode.
struct TransientCurveEstimate {
  std::vector<double> time_points;    ///< the grid evaluated (hours).
  std::vector<double> mean;           ///< E[reward(X_t)] per grid point.
  std::vector<double> half_width_95;  ///< 95% CI half width per grid point.
  double interval_mean = 0.0;          ///< mean of (1/T) int_0^T reward dt.
  double interval_half_width_95 = 0.0;  ///< its 95% CI half width.
  SimDiagnostics diagnostics;
};
// Note: per-point band checks against this estimate live in ONE place,
// testgen::transient_point_agrees — no convenience comparator here, so
// verdict semantics (floors, band scaling) cannot fork.

struct SimulationEstimate {
  double mean = 0.0;
  double half_width_95 = 0.0;  ///< 95% CI half width of the replication sample.
  SimDiagnostics diagnostics;

  [[nodiscard]] double lower() const noexcept { return mean - half_width_95; }
  [[nodiscard]] double upper() const noexcept { return mean + half_width_95; }
  /// True when `value` lies inside the CI rescaled to z standard errors
  /// (z = 1.96 keeps the stored 95% half width).
  [[nodiscard]] bool contains(double value, double z = 1.96) const noexcept {
    const double hw = half_width_95 * (z / 1.96);
    return value >= mean - hw && value <= mean + hw;
  }
};

/// Executes net trajectories and estimates time-averaged rewards.  The model
/// must outlive the simulator.  All methods are const; concurrent calls on
/// one simulator are safe when the model's guard closures are pure.
class SrnSimulator {
 public:
  explicit SrnSimulator(const petri::SrnModel& model);

  /// Independent-replication estimate of the steady-state reward:
  /// `options.replications` trajectories of warmup + horizon_hours each, CI
  /// from the replication sample, fanned out over `options.threads` workers.
  /// Deterministic for a given seed regardless of thread count.
  [[nodiscard]] SimulationEstimate steady_state_reward_replicated(
      const petri::RewardFunction& reward, const SimulationOptions& options = {}) const;

  /// Replicated probability estimate (see steady_state_reward_replicated).
  [[nodiscard]] SimulationEstimate steady_state_probability_replicated(
      const std::function<bool(const petri::Marking&)>& predicate,
      const SimulationOptions& options = {}) const;

  /// Finite-horizon replicated estimate of the whole reward curve: each of
  /// `options.replications` trajectories runs once from time 0 (or from
  /// `start` when non-null — the patch-window entry marking) to the last
  /// grid point with NO warmup discard, recording reward(X_t) at every grid
  /// point and accumulating the reward-time integral as it goes.  Threaded
  /// exactly like steady_state_reward_replicated (counter-based streams,
  /// per-slot results, serial index-ordered reduction): bit-identical for a
  /// given seed regardless of thread count.  Uses options.seed /
  /// .replications / .threads / .max_vanishing_depth; the steady-state
  /// horizon and warmup knobs are ignored.  `time_points` must be non-empty,
  /// finite, non-negative and ascending (std::invalid_argument otherwise).
  [[nodiscard]] TransientCurveEstimate transient_reward_curve(
      const petri::RewardFunction& reward, const std::vector<double>& time_points,
      const SimulationOptions& options = {}, const petri::Marking* start = nullptr) const;

 private:
  const petri::SrnModel& model_;
  petri::CompiledNet net_;
};

}  // namespace patchsec::sim
