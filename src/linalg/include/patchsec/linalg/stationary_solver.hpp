#pragma once
/// \file stationary_solver.hpp
/// \brief Reusable workspace for repeated stationary solves of CTMC
/// generators.
///
/// solve_steady_state() is stateless: every call re-derives the transposed
/// generator, the diagonal and fresh scratch vectors.  That is pure overhead
/// on the paths that solve many generators of identical sparsity structure —
/// the Session schedule sweep solves the same network SRN at every cadence,
/// and a design sweep solves one generator per design repeatedly while only
/// the rates change.  A StationarySolver owns that state across solves:
///
///  * the off-diagonal transposed generator, built by the solver's own
///    linear-time counting/bucket transpose and *cached* against the
///    generator's shared CsrStructure: when the next generator has the same
///    structure, only the values are scattered through a precomputed
///    permutation (O(nnz), no sort, no allocation).  A generator sharing the
///    cached structure object (a re-rated ctmc::Ctmc) is recognised by
///    pointer; one assembled elsewhere is compared by content, O(nnz);
///  * the diagonal of Q (positions cached the same way);
///  * the iterate / residual scratch vectors.
///
/// The solver also upgrades the Gauss-Seidel loop itself:
///
///  * the convergence test is evaluated every sweep *for free*: the max-norm
///    difference of successive normalized iterates is bounded during the
///    update loop itself (the old value of x[i] is in hand right before it is
///    overwritten), so the per-sweep `prev = x` copy, the separate diff pass
///    and the per-sweep renormalization are all gone.  Iterates are kept
///    unnormalized — every Gauss-Seidel update (including the negativity
///    clamp) is positively homogeneous, so the trajectory is the classical
///    one up to scale, and a lower bound on the normalized successive
///    difference decides convergence no later than the classical test;
///  * near the tolerance the classical test itself runs (the exact tail),
///    and it stops at the first component whose normalized difference is at
///    or above the tolerance: that one already settles "not converged", and
///    most tail sweeps are such sweeps;
///  * SteadyStateMethod::kAuto gets stall detection: the sweep difference is
///    sampled at checkpoints, the geometric decay rate is estimated, and when
///    the projected sweeps-to-tolerance exceed the remaining budget the
///    attempt is abandoned early (SteadyStateResult::stalled) in favour of
///    power iteration, instead of burning the full max_iterations budget.
///
/// solve_steady_state() remains the stateless entry point and is now a thin
/// wrapper over a local StationarySolver, so every caller gets the fast
/// per-solve path; callers with repeated solves hold a StationarySolver to
/// also amortize the structure setup.  A StationarySolver is NOT thread-safe;
/// share one per thread (core::Session keeps one per worker thread).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "patchsec/linalg/csr_matrix.hpp"
#include "patchsec/linalg/steady_state.hpp"

namespace patchsec::linalg {

class StationarySolver {
 public:
  StationarySolver() = default;
  explicit StationarySolver(SteadyStateOptions options) : options_(options) {}

  /// Solve pi * Q = 0, sum(pi) = 1 with the stored options.  Identical
  /// semantics to solve_steady_state() (same methods, same tolerances, same
  /// thrown exceptions); reuses cached structure when `generator` has the
  /// sparsity pattern of the previous solve.
  [[nodiscard]] SteadyStateResult solve(const CsrMatrix& generator);

  /// Solve with explicit options (the stored options are untouched).
  [[nodiscard]] SteadyStateResult solve(const CsrMatrix& generator,
                                        const SteadyStateOptions& options);

  [[nodiscard]] const SteadyStateOptions& options() const noexcept { return options_; }
  void set_options(const SteadyStateOptions& options) { options_ = options; }

  /// Number of solve() calls served (excluding trivially-shaped rejects).
  [[nodiscard]] std::size_t solve_count() const noexcept { return solves_; }
  /// Number of solves that had to rebuild the cached transpose because the
  /// sparsity structure changed (first solve counts as one rebuild).
  [[nodiscard]] std::size_t transpose_rebuilds() const noexcept { return rebuilds_; }
  /// Solves that reused the cached transpose because the generator shares
  /// the cached structure object.
  [[nodiscard]] std::size_t identity_reuses() const noexcept { return identity_reuses_; }
  /// Solves that reused it after an O(nnz) compare found an equal structure
  /// in another object.  Every solve counts once among the three.
  [[nodiscard]] std::size_t content_reuses() const noexcept { return content_reuses_; }
  /// Number of kAuto Gauss-Seidel attempts abandoned by stall detection.
  [[nodiscard]] std::size_t stall_events() const noexcept { return stalls_; }

  /// Drop all cached structure and scratch (counters are kept).
  void reset();

 private:
  void prepare(const CsrMatrix& q);

  SteadyStateResult power_iteration(const CsrMatrix& q, const SteadyStateOptions& opt);
  SteadyStateResult gauss_seidel(const CsrMatrix& q, const SteadyStateOptions& opt,
                                 bool allow_stall_exit);

  SteadyStateOptions options_;

  // Structure of the last generator (reuse detection), held so its address
  // cannot be reused by another structure while it is cached.
  std::shared_ptr<const CsrStructure> structure_;
  // Cached transpose (off-diagonal entries only; the sweeps read the
  // diagonal separately): pattern, values, and the scatter permutation
  // mapping the k-th value of Q to its transpose slot (UINT32_MAX marks
  // diagonal entries).  32-bit indices halve the index traffic of a sweep.
  std::vector<std::uint32_t> t_row_offsets_;
  std::vector<std::uint32_t> t_col_indices_;
  std::vector<double> t_values_;
  std::vector<std::uint32_t> scatter_;
  // Cached diagonal of Q plus the value index of each diagonal entry
  // (UINT32_MAX when a row has no stored diagonal).
  std::vector<double> diag_;
  std::vector<std::uint32_t> diag_index_;
  // Iterate and residual scratch.
  std::vector<double> x_;
  std::vector<double> y_;

  std::size_t solves_ = 0;
  std::size_t rebuilds_ = 0;
  std::size_t identity_reuses_ = 0;
  std::size_t content_reuses_ = 0;
  std::size_t stalls_ = 0;
};

}  // namespace patchsec::linalg
