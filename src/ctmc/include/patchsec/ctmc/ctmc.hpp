#pragma once
// Continuous-time Markov chain with rate transitions.  This is the analysis
// backend that the SRN layer lowers into.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "patchsec/linalg/csr_matrix.hpp"
#include "patchsec/linalg/steady_state.hpp"

namespace patchsec::linalg {
class StationarySolver;
}  // namespace patchsec::linalg

namespace patchsec::ctmc {

/// Index of a CTMC state.
using StateIndex = std::size_t;

/// A single rate transition from -> to with rate > 0.
struct RateTransition {
  StateIndex from = 0;
  StateIndex to = 0;
  double rate = 0.0;
};

/// Off-diagonal rates grouped by source state: state s owns
/// entries [offsets[s], offsets[s + 1]) of `columns` (target states) and
/// `rates`, in any order.  offsets.size() - 1 is the state count.
struct RateRows {
  std::vector<std::size_t> offsets{0};
  std::vector<StateIndex> columns;
  std::vector<double> rates;
};

/// The rate-independent half of assembling RateRows into a generator: the
/// generator's CSR structure (each row's merged columns in order, the
/// diagonal spliced in), validated once, and each entry's slot in it.
/// Ctmc(pattern, rates) then writes only values and exit rates, and its
/// generator shares the structure, so chains that differ only in their rates
/// (a re-rated exploration, petri::rerate) skip the per-row sort, the
/// structure assembly and its validation, and a solver workspace recognises
/// them by pointer.  Parallel edges to one column merge in the order of the
/// rates the pattern was built from.
class GeneratorPattern {
 public:
  GeneratorPattern() = default;  ///< the empty chain's

  /// Throws std::out_of_range for an endpoint outside the state range,
  /// std::invalid_argument for inconsistent offsets or a self loop, and
  /// std::length_error past 2^32 - 1 generator entries.
  explicit GeneratorPattern(const RateRows& rows);

  /// Number of RateRows entries (rates) a fill takes.
  [[nodiscard]] std::size_t entry_count() const noexcept { return sorted_.size(); }

 private:
  friend class Ctmc;
  std::vector<std::size_t> entry_offsets_{0};  ///< RateRows::offsets.
  std::vector<std::uint32_t> sorted_;          ///< entry read at each sorted position...
  std::vector<std::uint32_t> slots_;           ///< ...and its generator entry.
  std::vector<std::uint32_t> diagonals_;       ///< each exiting row's diagonal entry.
  /// Shared by every chain filled from the pattern; null for the empty chain's.
  std::shared_ptr<const linalg::CsrStructure> structure_;
};

/// Immutable finite CTMC.  The constructor assembles the infinitesimal
/// generator once; the generator and the exit rates are the only stored
/// forms, so every const member is a plain read (safe to share across
/// threads).
class Ctmc {
 public:
  /// The empty chain (no states).
  Ctmc() = default;

  /// Chain over `states` states with the given rate transitions, bucketed
  /// by source state (each state keeping their order) into RateRows; throws
  /// as Ctmc(RateRows) does.
  Ctmc(std::size_t states, const std::vector<RateTransition>& transitions);

  /// Chain over the given rows: Ctmc(GeneratorPattern(rows), their rates).
  /// Parallel edges are merged.  Throws std::out_of_range for an endpoint
  /// outside the state range, std::invalid_argument for inconsistent
  /// offsets, a self loop or a rate that is not positive and finite.
  explicit Ctmc(const RateRows& rows);

  /// Chain over `pattern`'s rows with `rates` in entry order, writing values
  /// only: slots sum in sorted order, the diagonal is -sum(merged row) in
  /// column order, exit rates sum in the given order.  The generator shares
  /// the pattern's structure.  Throws std::invalid_argument on a rate count
  /// other than pattern.entry_count() or a rate not positive and finite.
  Ctmc(const GeneratorPattern& pattern, std::span<const double> rates);

  [[nodiscard]] std::size_t state_count() const noexcept { return generator_.rows(); }

  /// Infinitesimal generator Q (rows sum to zero).  Each row holds its merged
  /// off-diagonal rates sorted by column with the diagonal -sum(rates)
  /// spliced in at its sorted position; a state without outgoing rates has
  /// an empty row.
  [[nodiscard]] const linalg::CsrMatrix& generator() const noexcept { return generator_; }

  /// Number of distinct off-diagonal generator entries (merged transitions).
  [[nodiscard]] std::size_t transition_count() const noexcept;

  /// Stationary distribution (requires an irreducible chain; the solver
  /// result carries convergence diagnostics).
  [[nodiscard]] linalg::SteadyStateResult steady_state(
      const linalg::SteadyStateOptions& options = {}) const;

  /// Stationary distribution computed through a caller-owned solver
  /// workspace, so repeated solves of same-structure chains reuse the cached
  /// transpose/diagonal/scratch (see linalg::StationarySolver).
  [[nodiscard]] linalg::SteadyStateResult steady_state(
      linalg::StationarySolver& workspace, const linalg::SteadyStateOptions& options) const;

  /// Total exit rate of every state: its outgoing rates added in the order
  /// the transitions were given.  This can differ from -Q(s,s), which sums
  /// the merged, column-sorted row, by an ulp; the uniformization rate is
  /// taken from these sums.
  [[nodiscard]] const std::vector<double>& exit_rates() const noexcept { return exit_rates_; }

 private:
  linalg::CsrMatrix generator_;
  std::vector<double> exit_rates_;
};

}  // namespace patchsec::ctmc
