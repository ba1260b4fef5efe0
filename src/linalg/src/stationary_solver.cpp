#include "patchsec/linalg/stationary_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "patchsec/linalg/vector_ops.hpp"

namespace patchsec::linalg {

namespace {

// Stall detection (kAuto Gauss-Seidel attempt only): sample the sweep
// difference every kStallCheckInterval sweeps, fit a geometric decay rate,
// and abandon the attempt after kStallStrikes consecutive checkpoints whose
// projected sweeps-to-tolerance exceed the remaining budget by
// kStallSafetyFactor (a non-decreasing window projects to infinity).  Two
// guards keep convergent solves out of reach of a false trigger: the strike
// count demands ~3 * 32 consecutive hopeless sweeps (a pre-asymptotic
// plateau that long is rare), and no strike is issued while the difference
// is within kStallMinDiffFactor of the tolerance — when nearly converged,
// the worst case of letting the sweep run is the classical full-budget
// behaviour, which is strictly better than a spurious bail-out.
constexpr std::size_t kStallCheckInterval = 32;
constexpr int kStallStrikes = 3;
constexpr double kStallSafetyFactor = 1.25;
constexpr double kStallMinDiffFactor = 1e4;

// The Gauss-Seidel loop switches to the classical exact convergence check
// (prev-iterate copy + normalized diff) when either the free in-sweep bound
// drops within kExactCheckWindow of the tolerance or the extrapolated decay
// projects convergence within kExactCheckHorizon sweeps.  The copies are then
// paid only for the final stretch, and the declared iteration count never
// exceeds the classical scheme's.
constexpr double kExactCheckWindow = 64.0;
constexpr double kExactCheckHorizon = 64.0;

// Marks a diagonal entry in the scatter permutation and a row without one.
constexpr std::uint32_t kDiagSlot = std::numeric_limits<std::uint32_t>::max();

}  // namespace

void StationarySolver::reset() {
  structure_.reset();
  t_row_offsets_.clear();
  t_col_indices_.clear();
  t_values_.clear();
  scatter_.clear();
  diag_.clear();
  diag_index_.clear();
  x_.clear();
  y_.clear();
}

void StationarySolver::prepare(const CsrMatrix& q) {
  const std::size_t n = q.rows();
  const auto& off = q.row_offsets();
  const auto& col = q.col_indices();
  const auto& val = q.values();

  const bool same_object = q.structure() == structure_;
  if (same_object || (structure_ != nullptr && structure_->same_as(*q.structure()))) {
    ++(same_object ? identity_reuses_ : content_reuses_);
    structure_ = q.structure();
    // Cache hit: only the values can have changed.  Scatter them through the
    // cached permutation and refresh the diagonal — no sort, no allocation.
    for (std::size_t k = 0; k < val.size(); ++k) {
      if (scatter_[k] != kDiagSlot) t_values_[scatter_[k]] = val[k];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t k = diag_index_[i];
      diag_[i] = (k == kDiagSlot) ? 0.0 : val[k];
    }
    return;
  }
  if (std::max(n, val.size()) >= kDiagSlot) {
    throw std::length_error("StationarySolver: more than 2^32 - 2 states or entries");
  }

  ++rebuilds_;
  structure_ = q.structure();

  // Counting/bucket transpose with the scatter permutation recorded so the
  // next same-structure solve can refresh values in one pass.  Diagonal
  // entries are excluded from the transpose (they are consumed separately by
  // the sweeps), which both shrinks the arrays and removes the j != i branch
  // from the Gauss-Seidel inner loop.
  t_row_offsets_.assign(n + 1, 0);
  std::size_t diag_count = 0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = off[r]; k < off[r + 1]; ++k) {
      if (col[k] == r) {
        ++diag_count;
      } else {
        ++t_row_offsets_[col[k] + 1];
      }
    }
  }
  for (std::size_t c = 0; c < n; ++c) t_row_offsets_[c + 1] += t_row_offsets_[c];
  t_col_indices_.resize(col.size() - diag_count);
  t_values_.resize(col.size() - diag_count);
  scatter_.resize(col.size());
  std::vector<std::uint32_t> cursor(t_row_offsets_.begin(), t_row_offsets_.end() - 1);
  diag_.assign(n, 0.0);
  diag_index_.assign(n, kDiagSlot);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = off[r]; k < off[r + 1]; ++k) {
      const std::size_t c = col[k];
      if (c == r) {
        scatter_[k] = kDiagSlot;
        diag_[r] = val[k];
        diag_index_[r] = static_cast<std::uint32_t>(k);
        continue;
      }
      const std::uint32_t slot = cursor[c]++;
      scatter_[k] = slot;
      t_col_indices_[slot] = static_cast<std::uint32_t>(r);
      t_values_[slot] = val[k];
    }
  }
}

SteadyStateResult StationarySolver::power_iteration(const CsrMatrix& q,
                                                    const SteadyStateOptions& opt) {
  const std::size_t n = q.rows();
  // Uniformization constant strictly above the largest exit rate keeps the
  // DTMC aperiodic.  The diagonal is cached by prepare().
  double max_exit = 0.0;
  for (double d : diag_) max_exit = std::max(max_exit, std::abs(d));
  const double lambda = std::max(max_exit * 1.02, 1e-12);

  x_.assign(n, 1.0 / static_cast<double>(n));
  SteadyStateResult result;
  for (std::size_t it = 1; it <= opt.max_iterations; ++it) {
    q.left_multiply(x_, y_);
    // next = pi + pi*Q/lambda
    double diff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double next = x_[i] + y_[i] / lambda;
      diff = std::max(diff, std::abs(next - x_[i]));
      x_[i] = next;
    }
    // Renormalize to fight drift.
    normalize_probability(x_);
    if (diff < opt.tolerance) {
      result.converged = true;
      result.iterations = it;
      break;
    }
    result.iterations = it;
  }
  q.left_multiply(x_, y_);
  result.residual = norm_inf(y_);
  result.distribution = x_;
  return result;
}

// Gauss-Seidel on Q^T x = 0: x_i = (-1/q_ii) * sum_{j!=i} q_ji x_j.  The
// iterate is kept unnormalized (every update is positively homogeneous, so
// the trajectory matches the classical normalize-every-sweep scheme up to
// scale) and the convergence test runs inside the sweep: with
// d = max_i |x_t[i] - x_{t-1}[i]| and the iterate sums S_{t-1}, S_t, the
// normalized successive difference obeys
//   max_i |x_t[i]/S_t - x_{t-1}[i]/S_{t-1}|
//     <= d/S_{t-1} + max_i(x_t[i]) * |1/S_t - 1/S_{t-1}|,
// so testing that upper bound against the tolerance only ever declares
// convergence when the classical per-sweep `prev = x` test would as well —
// without the copy, the diff pass or the per-sweep renormalization.  Near the
// fixed point the drift term vanishes at the same rate as d (the fixed point
// of the sweep is exact, so mass is asymptotically preserved) and the bound
// is tight; the equivalence tests pin the iteration counts on the paper
// models.
SteadyStateResult StationarySolver::gauss_seidel(const CsrMatrix& q, const SteadyStateOptions& opt,
                                                 bool allow_stall_exit) {
  const std::size_t n = q.rows();
  x_.assign(n, 1.0 / static_cast<double>(n));
  double sum_prev = 1.0;

  // Stall-detection state (kAuto only).
  double checkpoint_diff = 0.0;
  std::size_t checkpoint_it = 0;
  int strikes = 0;

  // Exact-tail state: y_ doubles as the prev-iterate buffer once the free
  // bound reports the tolerance is near.
  bool exact_tail = false;
  double prev_sum = 1.0;
  double d_prev = 0.0;

  SteadyStateResult result;
  for (std::size_t it = 1; it <= opt.max_iterations; ++it) {
    if (exact_tail) {
      y_ = x_;
      prev_sum = sum_prev;
    }
    double d = 0.0;
    double sum = 0.0;
    double max_x = 0.0;
    // Raw pointers: the iterate stores cannot move the arrays, so their
    // addresses stay in registers across rows (~10% of a sweep).
    const std::uint32_t* row = t_row_offsets_.data();
    const std::uint32_t* col = t_col_indices_.data();
    const double* val = t_values_.data();
    const double* diag = diag_.data();
    double* x = x_.data();
    for (std::size_t i = 0; i < n; ++i) {
      const double xi = x[i];
      if (diag[i] == 0.0) {  // absorbing-in-isolation row; keep mass
        sum += xi;
        max_x = std::max(max_x, xi);
        continue;
      }
      double acc = 0.0;
      for (std::uint32_t k = row[i]; k < row[i + 1]; ++k) {
        acc += val[k] * x[col[k]];  // diagonal-free rows
      }
      double next = -acc / diag[i];
      if (next < 0.0) next = 0.0;  // round-off guard; true solution is >= 0
      d = std::max(d, std::abs(next - xi));
      x[i] = next;
      sum += next;
      max_x = std::max(max_x, next);
    }
    result.iterations = it;
    if (!(sum > 0.0)) {
      // All mass clamped away: surface the same error the classical
      // normalize-every-sweep loop raised.
      normalize_probability(x_);
    }
    if (exact_tail) {
      // Classical criterion on the normalized iterates, computed on the fly:
      // max_i |x_i/S - y_i/S_prev| < tol.  The first component at or above
      // tol settles "not converged", so the scan stops there; most tail
      // sweeps end early.  A NaN component fails `>= tol` as it failed to
      // raise std::max, and the tail arms only for tol > 0, so the verdict,
      // hence every iterate, is the full max's.
      bool settled = true;
      for (std::size_t i = 0; i < n; ++i) {
        if (std::abs(x_[i] / sum - y_[i] / prev_sum) >= opt.tolerance) {
          settled = false;
          break;
        }
      }
      if (settled) {
        result.converged = true;
        break;
      }
    } else {
      const double drift = std::abs(1.0 / sum - 1.0 / sum_prev);
      const double diff_bound = d / sum_prev + max_x * drift;
      if (diff_bound < opt.tolerance) {
        result.converged = true;
        break;
      }
      bool near = diff_bound < kExactCheckWindow * opt.tolerance;
      if (!near && d_prev > 0.0 && d > 0.0 && d < d_prev) {
        // Geometric extrapolation of the sweep-difference decay; superlinear
        // phases (tiny ratios) arm the exact check immediately.
        const double ratio = d / d_prev;
        near = std::log(opt.tolerance / diff_bound) / std::log(ratio) <= kExactCheckHorizon;
      }
      if (near) exact_tail = true;
    }
    d_prev = d;
    sum_prev = sum;
    if (sum < 0.015625 || sum > 64.0) {  // keep the scale in a safe dynamic range
      scale(x_, 1.0 / sum);
      sum_prev = 1.0;
    }

    if (allow_stall_exit && it - checkpoint_it >= kStallCheckInterval) {
      const double diff_now = d / sum;
      const bool far_from_converged = diff_now > kStallMinDiffFactor * opt.tolerance;
      if (checkpoint_it != 0 && far_from_converged && checkpoint_diff > 0.0) {
        const double span = static_cast<double>(it - checkpoint_it);
        const double rate = std::pow(diff_now / checkpoint_diff, 1.0 / span);
        // rate >= 1 projects to infinity; otherwise compare the projected
        // sweeps-to-tolerance against the remaining budget.
        bool hopeless = rate >= 1.0;
        if (!hopeless) {
          const double needed = std::log(opt.tolerance / diff_now) / std::log(rate);
          hopeless = needed > static_cast<double>(opt.max_iterations - it) * kStallSafetyFactor;
        }
        strikes = hopeless ? strikes + 1 : 0;
        if (strikes >= kStallStrikes) {
          ++stalls_;
          result.stalled = true;
          break;
        }
      }
      checkpoint_diff = diff_now;
      checkpoint_it = it;
    }
  }
  normalize_probability(x_);
  q.left_multiply(x_, y_);
  result.residual = norm_inf(y_);
  result.distribution = x_;
  return result;
}

SteadyStateResult StationarySolver::solve(const CsrMatrix& generator) {
  return solve(generator, options_);
}

SteadyStateResult StationarySolver::solve(const CsrMatrix& generator,
                                          const SteadyStateOptions& options) {
  if (generator.rows() == 0) throw std::invalid_argument("solve_steady_state: empty generator");
  if (generator.rows() != generator.cols()) {
    throw std::invalid_argument("solve_steady_state: generator must be square");
  }
  if (generator.rows() == 1) {
    return {.distribution = {1.0}, .iterations = 0, .residual = 0.0, .converged = true};
  }
  ++solves_;
  prepare(generator);

  switch (options.method) {
    case SteadyStateMethod::kPower:
      return power_iteration(generator, options);
    case SteadyStateMethod::kGaussSeidel:
      return gauss_seidel(generator, options, /*allow_stall_exit=*/false);
    case SteadyStateMethod::kAuto: {
      SteadyStateResult gs = gauss_seidel(generator, options, /*allow_stall_exit=*/true);
      if (gs.converged && gs.residual < 1e-8) return gs;
      SteadyStateResult pw = power_iteration(generator, options);
      pw.stalled = gs.stalled;
      return (pw.residual < gs.residual) ? pw : gs;
    }
  }
  throw std::logic_error("solve_steady_state: unknown method");
}

}  // namespace patchsec::linalg
