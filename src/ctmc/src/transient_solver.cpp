#include "patchsec/ctmc/transient_solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace patchsec::ctmc {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kWidth = linalg::kPanelWidth;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A curve grid must be non-empty, finite, non-negative and ascending (NaN
/// fails every ordered comparison, so finiteness is checked first).
void check_grid(const std::vector<double>& time_points) {
  if (time_points.empty()) throw std::invalid_argument("TransientSolver: empty time grid");
  double previous = 0.0;
  for (const double t : time_points) {
    if (!std::isfinite(t)) throw std::invalid_argument("TransientSolver: non-finite time point");
    if (t < 0.0) throw std::invalid_argument("TransientSolver: negative time point");
    if (t < previous) throw std::invalid_argument("TransientSolver: time grid must be ascending");
    previous = t;
  }
}

}  // namespace

void TransientSolver::prepare(const Ctmc& chain) {
  if (chain.state_count() == 0) {
    throw std::invalid_argument("TransientSolver: empty chain");
  }
  const linalg::CsrMatrix& q = chain.generator();
  const bool same_structure =
      q.structure() == q_structure_ ||
      (q_structure_ != nullptr && q_structure_->same_as(*q.structure()));
  ++(same_structure ? reuses_ : builds_);
  q_structure_ = q.structure();
  states_ = q.rows();

  // Lambda: strictly above the largest exit rate so the uniformized diagonal
  // stays positive (all entries of P are then non-negative — no clamping is
  // ever needed in the power iteration).
  double max_exit = 0.0;
  for (const double rate : chain.exit_rates()) max_exit = std::max(max_exit, rate);
  lambda_ = max_exit * 1.02;

  // Assemble P = I + Q/Lambda row by row.  Q rows are sorted; the diagonal
  // entry gets +1 (inserted in order when Q stores none — absorbing states
  // have empty rows).  clear()+push_back keeps the capacity of a previous
  // build, so a same-structure refresh allocates nothing.
  p_row_offsets_.clear();
  p_col_indices_.clear();
  p_values_.clear();
  p_row_offsets_.reserve(states_ + 1);
  p_row_offsets_.push_back(0);
  const std::vector<std::size_t>& qro = q.row_offsets();
  const std::vector<std::size_t>& qci = q.col_indices();
  const std::vector<double>& qv = q.values();
  const double inv_lambda = lambda_ > 0.0 ? 1.0 / lambda_ : 0.0;
  for (std::size_t row = 0; row < states_; ++row) {
    bool diagonal_seen = false;
    for (std::size_t k = qro[row]; k < qro[row + 1]; ++k) {
      const std::size_t col = qci[k];
      if (!diagonal_seen && col >= row) {
        diagonal_seen = true;
        if (col == row) {
          p_col_indices_.push_back(row);
          p_values_.push_back(1.0 + qv[k] * inv_lambda);
          continue;
        }
        p_col_indices_.push_back(row);
        p_values_.push_back(1.0);
      }
      p_col_indices_.push_back(col);
      p_values_.push_back(qv[k] * inv_lambda);
    }
    if (!diagonal_seen) {
      p_col_indices_.push_back(row);
      p_values_.push_back(1.0);
    }
    p_row_offsets_.push_back(p_col_indices_.size());
  }

  diagnostics_ = TransientDiagnostics{};
  diagnostics_.uniformization_rate = lambda_;
  // The SIMD layout compiles lazily on the first evaluation; its own
  // structure-reuse fast path makes the refresh allocation-free.
  kernel_fresh_ = false;
}

void TransientSolver::ensure_kernel() {
  if (kernel_fresh_) return;
  kernel_.compile(states_, states_, p_row_offsets_, p_col_indices_, p_values_);
  kernel_fresh_ = true;
}

void TransientSolver::reset() {
  states_ = 0;
  lambda_ = 0.0;
  p_row_offsets_.clear();
  p_col_indices_.clear();
  p_values_.clear();
  q_structure_.reset();
  weights_.clear();
  kernel_.reset();
  kernel_fresh_ = false;
  diagnostics_ = TransientDiagnostics{};
}

void TransientSolver::poisson_window(double m) {
  weights_.clear();
  if (m <= 0.0) {
    left_ = right_ = 0;
    weights_.push_back(1.0);
    mass_ = 1.0;
    return;
  }

  const auto overflow = [] {
    throw std::runtime_error(
        "uniformization: Poisson window exceeds max_terms; raise TransientOptions::max_terms "
        "(Lambda*t is too large for the configured expansion length)");
  };
  // The mode cast below is undefined for m >= 2^64 (and NaN); such a window
  // could never fit max_terms anyway.
  if (!(m < static_cast<double>(std::numeric_limits<std::size_t>::max()))) overflow();

  // Expand outward from the mode with the ratio recurrences, in units of the
  // mode weight (so nothing ever under- or overflows); the mode weight
  // itself, exp(mode*ln m - m - lgamma(mode+1)) ~ 1/sqrt(2 pi m), converts
  // relative sums back to true Poisson mass.  The frontier thresholds bound
  // the discarded tails by ~epsilon/2 each (the left tail has at most `mode`
  // terms, each below the frontier weight; the right tail decays faster than
  // geometrically with ratio m/k < 1).
  const std::size_t mode = static_cast<std::size_t>(m);
  const double mode_weight =
      std::exp(static_cast<double>(mode) * std::log(m) - m -
               std::lgamma(static_cast<double>(mode) + 1.0));
  const double right_threshold = options_.epsilon / (4.0 * mode_weight);
  const double left_threshold =
      options_.epsilon / (4.0 * mode_weight * static_cast<double>(mode + 1));

  left_ = mode;
  double w = 1.0;
  double total = 1.0;
  left_scratch_.clear();  // [mode-1 .. left_], descending
  while (left_ > 0 && w > left_threshold) {
    w *= static_cast<double>(left_) / m;
    --left_;
    left_scratch_.push_back(w);
    total += w;
    if (left_scratch_.size() > options_.max_terms) overflow();
  }
  for (std::size_t i = left_scratch_.size(); i > 0; --i) weights_.push_back(left_scratch_[i - 1]);

  right_ = mode;
  w = 1.0;
  weights_.push_back(1.0);  // the mode itself
  while (w > right_threshold) {
    if (weights_.size() > options_.max_terms) overflow();
    ++right_;
    w *= m / static_cast<double>(right_);
    weights_.push_back(w);
    total += w;
  }

  // weights_ now spans [left_..right_]; normalize over the window.
  const double inv_total = 1.0 / total;
  for (double& weight : weights_) weight *= inv_total;
  mass_ = std::min(1.0, total * mode_weight);
  if (mass_ < 1e-9) {
    throw std::runtime_error(
        "uniformization truncated before any Poisson mass accumulated; raise max_terms "
        "(Lambda*t is too large for the configured expansion length)");
  }
  diagnostics_.left_point = left_;
  diagnostics_.right_point = right_;
  diagnostics_.poisson_mass = mass_;
}

void TransientSolver::expand_curves(std::size_t m, const std::vector<double>& rewards,
                                    const std::vector<double>& time_points,
                                    double* accumulated) {
  // Column masses of the initial panel: the zero-mass check, and the divisor
  // that makes the result a distribution's reward (exactly 1.0 — a no-op —
  // for a delta initial).  The zero padding columns are left out.
  column_mass_.assign(m, 0.0);
  for (std::size_t s = 0; s < states_; ++s) {
    for (std::size_t b = 0; b < m; ++b) column_mass_[b] += term_[s * kWidth + b];
  }
  for (const double mass : column_mass_) {
    if (!(mass > 0.0) || !std::isfinite(mass)) {
      throw std::domain_error("TransientSolver: initial column has no probability mass");
    }
  }

  const std::size_t points = time_points.size();
  curve_sums_.assign(points * m, 0.0);
  next_.resize(states_ * kWidth);
  std::fill_n(accumulated, m, 0.0);
  const double* r = rewards.data();
  double cumulative = 0.0;  // F_G(k): Poisson CDF over the t_G window
  for (std::size_t k = 0;; ++k) {
    // d_k = r . pi_0 P^k per column, from the same traversal that forms
    // P^{k+1} (pi(t_j) is never materialized).
    const bool last = k >= right_;
    if (last) {
      kernel_.reduce_panel(term_.data(), r, dots_.data());
    } else {
      kernel_.step_panel(term_.data(), next_.data(), r, dots_.data());
    }
    // r . pi(t_j) = sum_k w_j(k) d_k over every window that holds k.
    for (std::size_t j = 0; j < points; ++j) {
      const GridWindow& window = grid_windows_[j];
      if (k < window.left || k > window.right) continue;
      const double weight = grid_weights_[window.offset + (k - window.left)];
      double* sums = curve_sums_.data() + j * m;
      for (std::size_t b = 0; b < m; ++b) sums[b] += weight * dots_[b];
    }
    cumulative += k >= left_ ? weights_[k - left_] : 0.0;
    for (std::size_t b = 0; b < m; ++b) {
      if (lambda_ > 0.0) {
        // int_0^{t_G} Poisson(k; Lambda s) ds = (1 - F_G(k)) / Lambda.
        const double survival = std::max(0.0, 1.0 - cumulative);
        accumulated[b] += survival * dots_[b] / lambda_;
      } else {
        accumulated[b] = dots_[b] * time_points.back();  // frozen chain
      }
    }
    if (last) break;
    term_.swap(next_);
    ++diagnostics_.matvec_count;
  }

  for (std::size_t b = 0; b < m; ++b) {
    accumulated[b] /= column_mass_[b];
    for (std::size_t j = 0; j < points; ++j) curve_sums_[j * m + b] /= column_mass_[b];
  }
}

std::vector<double> TransientSolver::reward_curve_multi(
    const std::vector<std::vector<double>>& initials, const std::vector<double>& rewards,
    const std::vector<double>& time_points, std::vector<std::vector<double>>& curves) {
  if (!prepared()) throw std::logic_error("TransientSolver: prepare() has not run");
  if (initials.empty()) throw std::invalid_argument("TransientSolver: empty panel");
  for (const std::vector<double>& initial : initials) {
    if (initial.size() != states_) {
      throw std::invalid_argument("TransientSolver: initial size mismatch");
    }
  }
  if (rewards.size() != states_) {
    throw std::invalid_argument("TransientSolver: reward size mismatch");
  }
  check_grid(time_points);

  const std::size_t total = initials.size();
  const std::size_t points = time_points.size();
  std::vector<double> accumulated(total, 0.0);
  curves.resize(total);

  const auto start = Clock::now();
  // Every grid point's Poisson window over Lambda * t_j, from 0.  The last
  // one computed — t_G's, the widest — stays in weights_/left_/right_ and
  // drives both the sweep count and the accumulated-reward survival.
  grid_windows_.clear();
  grid_weights_.clear();
  for (const double t : time_points) {
    poisson_window(lambda_ * t);
    grid_windows_.push_back({left_, right_, grid_weights_.size()});
    grid_weights_.insert(grid_weights_.end(), weights_.begin(), weights_.end());
  }
  ensure_kernel();
  diagnostics_.kernel = kernel_.kernel_name();
  diagnostics_.rhs_count = std::max(diagnostics_.rhs_count, total);
  // ceil(total / 8) panels.  Each interleaves its initials column-major
  // (element (b, s) at term_[s*8 + b]) and zero-pads the unused columns.
  for (std::size_t first = 0; first < total; first += kWidth) {
    const std::size_t m = std::min(kWidth, total - first);
    term_.assign(states_ * kWidth, 0.0);
    for (std::size_t b = 0; b < m; ++b) {
      for (std::size_t s = 0; s < states_; ++s) term_[s * kWidth + b] = initials[first + b][s];
    }
    expand_curves(m, rewards, time_points, accumulated.data() + first);
    for (std::size_t b = 0; b < m; ++b) {
      std::vector<double>& curve = curves[first + b];
      curve.resize(points);
      for (std::size_t j = 0; j < points; ++j) curve[j] = curve_sums_[j * m + b];
    }
  }
  diagnostics_.wall_time_seconds += seconds_since(start);
  return accumulated;
}

double TransientSolver::reward_curve(const std::vector<double>& initial,
                                     const std::vector<double>& rewards,
                                     const std::vector<double>& time_points,
                                     std::vector<double>& values) {
  std::vector<std::vector<double>> curves;
  const double accumulated = reward_curve_multi({initial}, rewards, time_points, curves).front();
  values = std::move(curves.front());
  return accumulated;
}

}  // namespace patchsec::ctmc
