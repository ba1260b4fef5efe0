#pragma once
// Continuous-time Markov chain with named states, rate transitions and rate
// rewards.  This is the analysis backend that the SRN layer lowers into.

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
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

/// Finite CTMC.  States are created first (optionally labeled), then
/// transitions added.  The transition list is the only stored form:
/// generator() assembles a fresh CSR matrix on every call.
class Ctmc {
 public:
  Ctmc() = default;

  /// Add a state, returning its index.  Label is kept for diagnostics.
  StateIndex add_state(std::string label = {});

  /// Bulk-create n unlabeled states; returns index of the first.
  StateIndex add_states(std::size_t n);

  /// Pre-size the state/transition storage (the reachability generator knows
  /// both counts up front).
  void reserve(std::size_t states, std::size_t transitions);

  /// Add transition from -> to with the given positive rate.  Self loops are
  /// rejected (they are meaningless in a CTMC).
  void add_transition(StateIndex from, StateIndex to, double rate);

  [[nodiscard]] std::size_t state_count() const noexcept { return labels_.size(); }
  [[nodiscard]] const std::string& label(StateIndex s) const { return labels_.at(s); }
  [[nodiscard]] const std::vector<RateTransition>& transitions() const noexcept { return transitions_; }

  /// Infinitesimal generator Q (rows sum to zero).  Assembled by a
  /// counting/bucket pass over the transition list (per-row gather, small
  /// per-row sorts, duplicate merge) directly into CSR form — no global
  /// triplet sort.
  [[nodiscard]] linalg::CsrMatrix generator() const;

  /// Stationary distribution (requires an irreducible chain; the solver
  /// result carries convergence diagnostics).
  [[nodiscard]] linalg::SteadyStateResult steady_state(
      const linalg::SteadyStateOptions& options = {}) const;

  /// Stationary distribution computed through a caller-owned solver
  /// workspace, so repeated solves of same-structure chains reuse the cached
  /// transpose/diagonal/scratch (see linalg::StationarySolver).
  [[nodiscard]] linalg::SteadyStateResult steady_state(
      linalg::StationarySolver& workspace, const linalg::SteadyStateOptions& options) const;

  /// Total exit rate of every state (sum of outgoing rates, added in
  /// transition order), in one pass over the transition list.
  [[nodiscard]] std::vector<double> exit_rates() const;

  /// States reachable from `start` following positive-rate transitions.
  [[nodiscard]] std::vector<bool> reachable_from(StateIndex start) const;

  /// True when every state can reach every other state (single communicating
  /// class) — the precondition for a meaningful stationary distribution.
  [[nodiscard]] bool is_irreducible() const;

 private:
  std::vector<std::string> labels_;
  std::vector<RateTransition> transitions_;
};

}  // namespace patchsec::ctmc
