#pragma once
/// \file transient_solver.hpp
/// \brief Reusable workspace for transient CTMC analysis by Jensen's
/// uniformization with Fox-Glynn-style Poisson weight truncation.
///
/// Uniformization rewrites the transient distribution of a CTMC with
/// generator Q as a Poisson mixture over the powers of the uniformized DTMC
/// P = I + Q/Lambda (Lambda >= max exit rate):
///
///   pi(t)          = sum_k Poisson(k; Lambda t) * pi(0) P^k
///   int_0^t pi(s)ds = (1/Lambda) * sum_k (1 - F(k; Lambda t)) * pi(0) P^k
///
/// where F is the Poisson CDF.  The solver computes the Poisson weight
/// window the way Fox & Glynn do: start at the mode floor(Lambda t), expand
/// outward by the ratio recurrences until the captured mass reaches
/// 1 - epsilon, and normalize the surviving weights — underflow-free for
/// large Lambda t, and the left truncation point skips accumulating terms
/// that cannot contribute (their vector iterations still run, but no
/// weight-scaled accumulation is paid below the window).
///
/// A TransientSolver is a workspace in the linalg::StationarySolver mold:
///
///  * prepare(chain) builds the uniformized matrix ONCE; every subsequent
///    curve evaluation on the same chain reuses it.
///    Re-preparing with a chain of identical sparsity structure refreshes
///    values in place (no allocation) — the schedule-sweep path, where only
///    rates change between cadences;
///  * all per-evaluation scratch (the power-iterate vectors, the Poisson
///    weight windows, the per-point reward sums) lives in the workspace, so
///    evaluating a whole curve allocates no scratch once warm;
///  * reward_curve() expands ONE Poisson series over the whole grid: each
///    term's reward dot d_k = r . pi(0) P^k feeds every grid point whose
///    window over Lambda * t_j holds k, so a G-point curve costs exactly the
///    right_point(Lambda * t_G) sweeps of a one-point curve at t_G —
///    independent of G — and pi(t_j) is never materialized (an indicator
///    reward reads off one state's probability pi_i(t));
///  * every sweep runs linalg::SpmvKernel's one panel shape, 8 columns at a
///    stride of 8 doubles: reward_curve() is column 0 of a zero-padded
///    panel, and reward_curve_multi() runs B initials as ceil(B/8) padded
///    panels.  A column's arithmetic does not depend on its panel, so every
///    curve is bit-identical at every batch width.
///
/// A TransientSolver is NOT thread-safe; hold one per thread
/// (core::Session keeps one per worker thread, like StationarySolver).

#include <array>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "patchsec/ctmc/ctmc.hpp"
#include "patchsec/linalg/csr_matrix.hpp"
#include "patchsec/linalg/spmv_kernel.hpp"

namespace patchsec::ctmc {

/// Truncation policy of the uniformization expansion.
struct TransientOptions {
  double epsilon = 1e-12;             ///< truncation error bound on Poisson mass.
  std::size_t max_terms = 2'000'000;  ///< hard cap on expansion length.
};

/// How the last evaluation went: the uniformization constant, the Fox-Glynn
/// window, and the work performed.  Counters accumulate over every
/// evaluation since the last prepare(); a curve's window is that of its last
/// grid point t_G, and its sweeps are that window's right_point.
struct TransientDiagnostics {
  double uniformization_rate = 0.0;  ///< Lambda.
  std::size_t left_point = 0;        ///< Fox-Glynn left truncation of the last window.
  std::size_t right_point = 0;       ///< right truncation of the last window.
  /// Matrix SWEEPS since prepare().  A panel step advances up to 8 vectors
  /// in ONE sweep and counts once (B initials take ceil(B/8) panels), so
  /// the counter stays an honest traffic metric.
  std::size_t matvec_count = 0;
  /// Most initials asked for in one evaluation since prepare() (1 =
  /// single-vector evaluations only; 0 = nothing evaluated yet).  The
  /// zero padding of a panel does not count.
  std::size_t rhs_count = 0;
  /// Inner-loop id of the last evaluation: the dispatched linalg::SpmvKernel
  /// name ("panel-avx512" / "panel-avx2" / "panel-scalar").
  std::string kernel;
  double poisson_mass = 0.0;         ///< captured (pre-normalization) mass, last window.
  double wall_time_seconds = 0.0;    ///< evaluation time since prepare().
};

class TransientSolver {
 public:
  TransientSolver() = default;
  explicit TransientSolver(TransientOptions options) : options_(options) {}

  /// Build (or, for a structurally identical chain, refresh in place) the
  /// uniformized matrix P = I + Q/Lambda.  Must be called before any
  /// evaluation; call again whenever the chain changes.  Throws
  /// std::invalid_argument on an empty chain.
  void prepare(const Ctmc& chain);

  [[nodiscard]] bool prepared() const noexcept { return states_ > 0; }
  [[nodiscard]] std::size_t state_count() const noexcept { return states_; }

  /// The reward curve r . pi(t_j) over an ascending (finite, non-negative,
  /// non-decreasing) time grid; `values` is resized to the grid.  Returns the
  /// accumulated reward int_0^{t_back} r . pi(s) ds.  Both measures ride one
  /// expansion of the t_back window: every term's reward dot is weighted into
  /// each grid point whose own window holds it, so the sweep count does not
  /// grow with the grid.  `initial` is divided by its mass (throws
  /// std::domain_error when that is not positive and finite).  This is
  /// reward_curve_multi on the one initial: column 0 of a padded panel.
  double reward_curve(const std::vector<double>& initial, const std::vector<double>& rewards,
                      const std::vector<double>& time_points, std::vector<double>& values);

  /// reward_curve for B initial distributions AT ONCE over the same chain,
  /// grid and reward vector: the iterates advance as column-major panels of
  /// the kernel's fixed width 8 (linalg::kPanelWidth), so every expansion
  /// term costs one sweep per panel — ceil(B/8) sweeps instead of B.  A
  /// panel with fewer than 8 initials is zero-padded; the padding never
  /// reaches the mass check, the curves or the accumulated reward.
  /// diagnostics().matvec_count counts sweeps and rhs_count records B.
  /// `curves[b][j]` receives r . pi_b(t_j); the return value is the per-b
  /// accumulated reward.  Each column's arithmetic is independent of B and
  /// of its neighbours, so a column is bit-identical to its initial solved
  /// alone — i.e. to reward_curve on that initial.
  std::vector<double> reward_curve_multi(const std::vector<std::vector<double>>& initials,
                                         const std::vector<double>& rewards,
                                         const std::vector<double>& time_points,
                                         std::vector<std::vector<double>>& curves);

  [[nodiscard]] const TransientOptions& options() const noexcept { return options_; }
  void set_options(const TransientOptions& options) { options_ = options; }
  [[nodiscard]] const TransientDiagnostics& diagnostics() const noexcept { return diagnostics_; }

  /// Number of prepare() calls that rebuilt the matrix structure (a
  /// same-structure refresh does not count; the first build counts as one).
  [[nodiscard]] std::size_t structure_builds() const noexcept { return builds_; }
  /// Number of prepare() calls served by the value-refresh fast path.
  [[nodiscard]] std::size_t structure_reuses() const noexcept { return reuses_; }

  /// The SIMD kernel layer's own build/reuse counters (0 builds until the
  /// first evaluation — the layout compiles lazily).
  [[nodiscard]] std::size_t kernel_structure_builds() const noexcept {
    return kernel_.structure_builds();
  }
  [[nodiscard]] std::size_t kernel_structure_reuses() const noexcept {
    return kernel_.structure_reuses();
  }

  /// Drop the cached matrix and scratch (counters are kept).
  void reset();

 private:
  /// Fill weights_ with the normalized Poisson(k; m) window [left_, right_]
  /// capturing mass >= 1 - epsilon, expanding outward from the mode.
  void poisson_window(double m);

  /// The single pass behind reward_curve (m = 1) and reward_curve_multi,
  /// one SpmvKernel::step_panel per expansion term.  term_ holds one 8-wide
  /// initial panel on entry, its first m columns real and the rest zero; on
  /// return curve_sums_[j*m + b] holds r . pi_b(t_j) and accumulated[0..m)
  /// the per-column accumulated reward, both divided by the initial column
  /// mass.
  void expand_curves(std::size_t m, const std::vector<double>& rewards,
                     const std::vector<double>& time_points, double* accumulated);

  /// Compile (or value-refresh) kernel_ from the cached uniformized matrix.
  void ensure_kernel();

  TransientOptions options_;
  TransientDiagnostics diagnostics_;

  // Uniformized DTMC P = I + Q/Lambda in CSR form, plus the structure of the
  // generator it was derived from (for the refresh fast path: a re-rated
  // chain shares it, one assembled elsewhere is compared by content).
  std::size_t states_ = 0;
  double lambda_ = 0.0;
  std::vector<std::size_t> p_row_offsets_;
  std::vector<std::size_t> p_col_indices_;
  std::vector<double> p_values_;
  std::shared_ptr<const linalg::CsrStructure> q_structure_;

  // Poisson window and power-iterate scratch.
  std::vector<double> weights_;
  std::vector<double> left_scratch_;
  std::size_t left_ = 0;
  std::size_t right_ = 0;
  double mass_ = 0.0;
  linalg::PanelVector term_;
  linalg::PanelVector next_;

  // Curve scratch: every grid point's Poisson window (weights packed into
  // grid_weights_), the per-(point, column) reward sums, the per-term column
  // dots and the initial column masses.
  struct GridWindow {
    std::size_t left = 0;
    std::size_t right = 0;
    std::size_t offset = 0;  ///< index of weight `left` in grid_weights_.
  };
  std::vector<GridWindow> grid_windows_;
  std::vector<double> grid_weights_;
  std::vector<double> curve_sums_;
  std::array<double, linalg::kPanelWidth> dots_{};
  std::vector<double> column_mass_;

  // SIMD kernel workspace over P (compiled lazily on the first evaluation
  // after a prepare()).
  linalg::SpmvKernel kernel_;
  bool kernel_fresh_ = false;

  std::size_t builds_ = 0;
  std::size_t reuses_ = 0;
};

}  // namespace patchsec::ctmc
