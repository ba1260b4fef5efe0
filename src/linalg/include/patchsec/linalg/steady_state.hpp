#pragma once
/// \file steady_state.hpp
/// \brief Steady-state solvers for irreducible CTMC generators: find the
/// probability row vector pi with pi * Q = 0 and sum(pi) = 1.
///
/// Two iterative methods are provided:
///  * Power iteration on the uniformized DTMC  P = I + Q / Lambda.  Robust,
///    always applicable, linear convergence.
///  * Gauss-Seidel sweeps on the normal equations  Q^T x = 0, which
///    converge much faster on the stiff generators produced by patch models
///    (rates spanning 1e-5 .. 1e+1 per hour).
/// The public entry point (SteadyStateMethod::kAuto) tries Gauss-Seidel first
/// and falls back to power iteration when the sweep stalls (detected early by
/// plateau projection rather than by exhausting the iteration budget).
///
/// solve_steady_state() is the stateless convenience wrapper; callers that
/// solve many same-structure generators should hold a
/// linalg::StationarySolver (stationary_solver.hpp), which additionally
/// caches the transposed generator, diagonal and scratch vectors across
/// solves.  Both run the identical numerical path.

#include <cstddef>
#include <vector>

#include "patchsec/linalg/csr_matrix.hpp"

namespace patchsec::linalg {

/// \brief Iteration scheme used by solve_steady_state().
enum class SteadyStateMethod {
  kPower,        ///< Power iteration on the uniformized DTMC P = I + Q/Lambda.
  kGaussSeidel,  ///< Gauss-Seidel sweeps on Q^T x = 0.
  kAuto,         ///< Gauss-Seidel with power-iteration fallback (default).
};

/// \brief Tuning knobs for solve_steady_state().
struct SteadyStateOptions {
  SteadyStateMethod method = SteadyStateMethod::kAuto;
  double tolerance = 1e-12;     ///< max-norm of successive-iterate difference.
  std::size_t max_iterations = 200000;  ///< per attempted method.
};

/// \brief Stationary distribution plus convergence diagnostics.
struct SteadyStateResult {
  std::vector<double> distribution;  ///< stationary probabilities, sums to 1.
  std::size_t iterations = 0;        ///< iterations spent by the winning method.
  double residual = 0.0;  ///< max-norm of pi*Q at the returned iterate.
  bool converged = false;  ///< false when max_iterations elapsed first.
  /// kAuto only: the Gauss-Seidel attempt was abandoned early because its
  /// sweep difference plateaued (projected sweeps-to-tolerance exceeded the
  /// remaining budget), and power iteration took over.  Never set when the
  /// returned distribution converged via Gauss-Seidel.
  bool stalled = false;
};

/// \brief Solve pi * Q = 0, sum(pi) = 1 for a CTMC infinitesimal generator.
///
/// \param generator  Square CSR generator matrix Q (rows sum to ~0), indexed
///                   by source state; typically ctmc::Ctmc::generator(),
///                   assembled once when petri::build_reachability_graph
///                   lowered an SRN (tangible markings only).
/// \param options    Method selection and convergence tuning; the default
///                   (kAuto) tries Gauss-Seidel first and falls back to power
///                   iteration when the sweep stalls.
/// \return Stationary distribution with iteration count, final residual and a
///         convergence flag (the distribution is still normalized and usable
///         as a best-effort estimate when \c converged is false).
/// \throws std::invalid_argument when \p generator is empty or not square.
/// \pre Q must be restricted to a single recurrent class; the SRN layer
///      guarantees this by construction from a reachability graph.
[[nodiscard]] SteadyStateResult solve_steady_state(const CsrMatrix& generator,
                                                   const SteadyStateOptions& options = {});

/// \brief Closed-form stationary distribution of a finite birth-death chain.
///
/// \param birth  Birth rates lambda[i] for transitions i -> i+1, i = 0..n-1.
/// \param death  Death rates mu[i] for transitions i+1 -> i; same length.
/// \return pi over states 0..n (product-form solution, normalized).
/// \throws std::invalid_argument on length mismatch, std::domain_error on
///         non-positive death rates.
///
/// Used both as a fast path for the upper-layer redundancy chains and as an
/// independent oracle for the iterative solvers in tests.
[[nodiscard]] std::vector<double> birth_death_steady_state(const std::vector<double>& birth,
                                                           const std::vector<double>& death);

}  // namespace patchsec::linalg
