#pragma once
/// \file differential_runner.hpp
/// \brief Differential validation of the analytic pipeline against the
/// Monte-Carlo oracle: sweep N generated scenarios, evaluate each through a
/// core::Session and through sim::SrnSimulator on the same network net, and
/// check that every analytic capacity-oriented availability falls inside the
/// simulation's confidence interval at z standard errors.  A small number of
/// statistical misses is expected at 95% coverage;
/// `DifferentialReport::passed` budgets them.
///
/// Reproduction: each case logs the generating `scenario_seed`; feed it to
/// `DifferentialRunner::run_one` (or the `differential_runner --repro` CLI)
/// to replay exactly that scenario, estimates included.

#include <cstdint>
#include <string>
#include <vector>

#include "patchsec/core/session.hpp"
#include "patchsec/sim/srn_simulator.hpp"
#include "patchsec/testgen/scenario_generator.hpp"

namespace patchsec::testgen {

// --- CI-agreement checks -----------------------------------------------------

/// A COA value with the 95% confidence half width of its estimate; 0 marks
/// an exact (analytic) value.
struct CoaEstimate {
  double coa = 0.0;
  double half_width_95 = 0.0;
};

/// CI-aware agreement of two COA values at z standard errors: both half
/// widths are rescaled from their 95% level to z and combined in quadrature;
/// two exact values compare within round-off (1e-9).  agrees_with(simulated,
/// {analytic}, 1.96) asks "does the analytic COA fall inside the
/// simulation's 95% confidence interval" — the steady-state verdict.
[[nodiscard]] bool agrees_with(const CoaEstimate& a, const CoaEstimate& b,
                               double z = 1.96) noexcept;

/// The band check of ONE grid point j: |simulated.mean[j] - analytic[j]|
/// within the simulated per-point half width rescaled from 95% to z, floored
/// at 3/replications.  COA(X_t) is a discrete reward, so a degenerate
/// replication sample (every replication saw the same value) collapses the
/// t-interval to zero width while the true mean may differ by up to ~3/n
/// at 95% confidence (the rule of three).  False when either curve lacks j.
[[nodiscard]] bool transient_point_agrees(const sim::TransientCurveEstimate& simulated,
                                          const core::TransientCurve& analytic, std::size_t j,
                                          double z = 1.96) noexcept;

/// Whole-curve band agreement, the transient verdict: true iff both curves
/// are non-empty over the same grid (within 1e-9) and every grid point
/// passes transient_point_agrees.
[[nodiscard]] bool transient_agrees_with(const sim::TransientCurveEstimate& simulated,
                                         const core::TransientCurve& analytic,
                                         double z = 1.96) noexcept;

/// Which measure the sweep cross-checks.
enum class DifferentialMode : std::uint8_t {
  /// Steady-state COA: the analytic value must fall inside the replicated
  /// steady-state estimator's CI (the original harness).
  kSteadyState,
  /// The transient coa(t) curve over `transient_grid`, starting from the
  /// patch-window marking (one server per deployed role down): the analytic
  /// curve must lie inside the finite-horizon estimator's CI band at EVERY
  /// grid point (transient_agrees_with).  The band is SIMULTANEOUS at level
  /// z: per-point intervals are Bonferroni-widened so the whole-curve
  /// coverage matches z, because the verdict quantifies over the grid
  /// (per-point 95% intervals would miss ~23% of correct curves on a 5-point
  /// grid).
  kTransient,
  /// Three-way steady-state check adding the closed-form analytic engine
  /// (core::EngineOptions::lumping) as a third axis: every scenario is scored
  /// flat-analytic, lumped-analytic AND simulated.  A case passes only when
  /// the lumped COA (a) matches the flat COA to `lumped_tolerance` — the
  /// lumping is exact, so any gap beyond solver tolerance is a bug, not
  /// statistics — and (b) falls inside the simulation's CI like the flat
  /// value must.
  kLumped,
};

[[nodiscard]] const char* to_string(DifferentialMode mode) noexcept;

struct DifferentialOptions {
  std::size_t scenarios = 50;   ///< generated cases per run.
  double z = 1.96;              ///< CI level of the agreement check.
  std::size_t allowed_misses = 2;  ///< statistical-miss budget (see report).
  DifferentialMode mode = DifferentialMode::kSteadyState;
  /// Time grid of the transient mode (hours, ascending).  Spans the healing
  /// time scale of the patch dip: sub-hour, the MTTR knee, and the settled
  /// tail.
  std::vector<double> transient_grid = {0.5, 2.0, 6.0, 12.0, 24.0};
  /// Flat-vs-lumped agreement bound of the kLumped mode.  Deterministic (no
  /// CI): both engines evaluate the same model exactly, differing only by
  /// the flat engine's iterative-solver tolerance, so the default leaves two
  /// orders of headroom over the 1e-12 solver target.
  double lumped_tolerance = 1e-9;
  GeneratorOptions generator;      ///< scenario stream configuration.
  /// Replication budget of the simulation oracle.  The per-case seed is
  /// derived from the scenario seed (this field's `seed` is ignored) so the
  /// whole run reproduces from the generator's campaign seed alone.  The
  /// transient mode uses `replications`/`threads` only (each replication is
  /// one finite-horizon trajectory; no warmup, no batches).
  sim::SimulationOptions simulation;
};

/// One generated scenario, evaluated analytically and simulated.  In transient
/// mode the COA columns hold the time-averaged (interval) COA over the
/// window and the per-point verdict lives in the grid columns below.
struct DifferentialCase {
  std::uint64_t scenario_seed = 0;  ///< reproduces scenario AND estimates.
  std::string label;
  std::string design;
  double patch_interval_hours = 0.0;
  double analytic_coa = 0.0;
  double simulated_coa = 0.0;   ///< replication mean.
  double half_width_95 = 0.0;   ///< 95% CI half width of simulated_coa.
  bool inside_ci = false;       ///< analytic_coa inside the z-level CI
                                ///< (transient mode: the whole curve inside
                                ///< the band at every grid point).
  bool analytic_converged = true;  ///< every analytic solve converged.
  /// Every verified net behind the analytic evaluations came back with zero
  /// findings (EvalReport::lint_clean); the simulator runs the same network
  /// net those evaluations verified.  A dirty case fails `inside_ci`
  /// regardless of the statistics — numbers from a lint-dirty net are not
  /// evidence.
  bool lint_clean = true;

  // --- transient mode only --------------------------------------------------
  std::size_t grid_points = 0;      ///< curve length (0 in steady-state mode).
  std::size_t points_outside = 0;   ///< grid points where the band check failed.
  double worst_point_hours = 0.0;   ///< grid point of the largest deviation.
  double worst_deviation = 0.0;     ///< |analytic - simulated| there.

  // --- lumped mode only -----------------------------------------------------
  double lumped_coa = 0.0;            ///< the closed-form engine's COA.
  double flat_lumped_deviation = 0.0; ///< |analytic_coa - lumped_coa|.
  bool lumped_matches_flat = true;    ///< deviation within lumped_tolerance.
};

struct DifferentialReport {
  std::vector<DifferentialCase> cases;
  std::size_t misses = 0;  ///< cases with inside_ci == false.
  double z = 1.96;
  DifferentialMode mode = DifferentialMode::kSteadyState;

  [[nodiscard]] bool passed(std::size_t allowed_misses) const noexcept {
    return misses <= allowed_misses;
  }

  /// Machine-readable form (uploaded as a CI artifact by the
  /// differential-smoke job).
  [[nodiscard]] std::string to_json() const;
};

class DifferentialRunner {
 public:
  explicit DifferentialRunner(DifferentialOptions options = {});

  [[nodiscard]] const DifferentialOptions& options() const noexcept { return options_; }

  /// Generate options().scenarios cases and evaluate each analytically and
  /// by simulation.  Deterministic for a given generator seed, including the
  /// simulation estimates (counter-based replication streams), regardless of
  /// simulation thread count.
  [[nodiscard]] DifferentialReport run() const;

  /// Replay one case from its logged scenario seed.
  [[nodiscard]] static DifferentialCase run_one(std::uint64_t scenario_seed,
                                                const DifferentialOptions& options = {});

 private:
  DifferentialOptions options_;
};

}  // namespace patchsec::testgen
