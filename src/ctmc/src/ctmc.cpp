#include "patchsec/ctmc/ctmc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "patchsec/linalg/stationary_solver.hpp"

namespace patchsec::ctmc {

namespace {

RateRows bucket_by_source(std::size_t states, const std::vector<RateTransition>& transitions) {
  RateRows rows;
  rows.offsets.assign(states + 1, 0);
  for (const RateTransition& t : transitions) {
    if (t.from >= states) throw std::out_of_range("Ctmc: state out of range");
    ++rows.offsets[t.from + 1];
  }
  for (std::size_t r = 0; r < states; ++r) rows.offsets[r + 1] += rows.offsets[r];
  std::vector<std::size_t> cursor(rows.offsets.begin(), rows.offsets.end() - 1);
  rows.entries.resize(transitions.size());
  for (const RateTransition& t : transitions) rows.entries[cursor[t.from]++] = {t.to, t.rate};
  return rows;
}

}  // namespace

Ctmc::Ctmc(std::size_t states, const std::vector<RateTransition>& transitions)
    : Ctmc(bucket_by_source(states, transitions)) {}

Ctmc::Ctmc(RateRows rows) {
  const std::vector<std::size_t>& offsets = rows.offsets;
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != rows.entries.size()) {
    throw std::invalid_argument("Ctmc: row offsets do not span the entries");
  }
  const std::size_t states = offsets.size() - 1;
  exit_rates_.assign(states, 0.0);
  std::vector<std::size_t> q_offsets(states + 1, 0);
  std::vector<std::size_t> col_indices;
  std::vector<double> values;
  col_indices.reserve(rows.entries.size() + states);
  values.reserve(rows.entries.size() + states);
  for (std::size_t r = 0; r < states; ++r) {
    if (offsets[r] > offsets[r + 1] || offsets[r + 1] > rows.entries.size()) {
      throw std::invalid_argument("Ctmc: row offsets do not span the entries");
    }
    const auto begin = rows.entries.begin() + static_cast<std::ptrdiff_t>(offsets[r]);
    const auto end = rows.entries.begin() + static_cast<std::ptrdiff_t>(offsets[r + 1]);
    for (auto it = begin; it != end; ++it) {
      if (it->first >= states) throw std::out_of_range("Ctmc: state out of range");
      if (it->first == r) throw std::invalid_argument("Ctmc: self loop");
      if (!(it->second > 0.0) || !std::isfinite(it->second)) {
        throw std::invalid_argument("Ctmc: rate must be positive and finite");
      }
      exit_rates_[r] += it->second;  // in the given order
    }
    // Sort the (tiny) row by column, merge parallel edges, and splice the
    // diagonal -sum(rates) in at its sorted position: O(nnz) plus per-row
    // micro-sorts, no global triplet sort.
    std::sort(begin, end);
    double exit_rate = 0.0;
    std::size_t diagonal = 0;
    bool diag_emitted = begin == end;  // a state without exits stores nothing
    for (auto it = begin; it != end; ++it) {
      double rate = it->second;
      while (it + 1 != end && (it + 1)->first == it->first) {
        ++it;
        rate += it->second;
      }
      exit_rate += rate;
      if (!diag_emitted && it->first > r) {
        diagonal = values.size();
        col_indices.push_back(r);
        values.push_back(0.0);
        diag_emitted = true;
      }
      col_indices.push_back(it->first);
      values.push_back(rate);
    }
    if (!diag_emitted) {
      diagonal = values.size();
      col_indices.push_back(r);
      values.push_back(0.0);
    }
    if (begin != end) values[diagonal] = -exit_rate;
    q_offsets[r + 1] = values.size();
  }
  generator_ = linalg::CsrMatrix::from_sorted(states, states, std::move(q_offsets),
                                              std::move(col_indices), std::move(values));
}

std::size_t Ctmc::transition_count() const noexcept {
  const std::vector<std::size_t>& offsets = generator_.row_offsets();
  std::size_t diagonals = 0;
  for (std::size_t r = 0; r < state_count(); ++r) diagonals += offsets[r + 1] > offsets[r] ? 1 : 0;
  return generator_.nnz() - diagonals;
}

linalg::SteadyStateResult Ctmc::steady_state(const linalg::SteadyStateOptions& options) const {
  if (state_count() == 0) throw std::logic_error("Ctmc::steady_state: empty chain");
  return linalg::solve_steady_state(generator_, options);
}

linalg::SteadyStateResult Ctmc::steady_state(linalg::StationarySolver& workspace,
                                             const linalg::SteadyStateOptions& options) const {
  if (state_count() == 0) throw std::logic_error("Ctmc::steady_state: empty chain");
  return workspace.solve(generator_, options);
}

}  // namespace patchsec::ctmc
