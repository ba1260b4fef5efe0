#include "patchsec/ctmc/ctmc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
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
  rows.columns.resize(transitions.size());
  rows.rates.resize(transitions.size());
  for (const RateTransition& t : transitions) {
    rows.columns[cursor[t.from]] = t.to;
    rows.rates[cursor[t.from]++] = t.rate;
  }
  return rows;
}

}  // namespace

GeneratorPattern::GeneratorPattern(const RateRows& rows) : entry_offsets_(rows.offsets) {
  const std::vector<std::size_t>& offsets = rows.offsets;
  const std::size_t entries = rows.columns.size();
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != entries ||
      rows.rates.size() != entries) {
    throw std::invalid_argument("Ctmc: row offsets do not span the entries");
  }
  const std::size_t states = offsets.size() - 1;
  if (std::max(entries, states) > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("Ctmc: too many states or rates");
  }
  sorted_.resize(entries);
  columns_.resize(entries);
  const auto by_column_then_rate = [&rows](std::uint32_t a, std::uint32_t b) {
    return std::pair(rows.columns[a], rows.rates[a]) < std::pair(rows.columns[b], rows.rates[b]);
  };
  for (std::size_t r = 0; r < states; ++r) {
    const std::size_t begin = offsets[r];
    const std::size_t end = offsets[r + 1];
    if (begin > end || end > entries) {
      throw std::invalid_argument("Ctmc: row offsets do not span the entries");
    }
    for (std::size_t k = begin; k < end; ++k) {
      if (rows.columns[k] >= states) throw std::out_of_range("Ctmc: state out of range");
      if (rows.columns[k] == r) throw std::invalid_argument("Ctmc: self loop");
      sorted_[k] = static_cast<std::uint32_t>(k);
    }
    // Sort the (tiny) row by (column, rate), the pair order: O(nnz) plus
    // per-row micro-sorts, no global triplet sort.
    std::sort(sorted_.begin() + static_cast<std::ptrdiff_t>(begin),
              sorted_.begin() + static_cast<std::ptrdiff_t>(end), by_column_then_rate);
    for (std::size_t k = begin; k < end; ++k) {
      columns_[k] = static_cast<std::uint32_t>(rows.columns[sorted_[k]]);
    }
  }
}

Ctmc::Ctmc(std::size_t states, const std::vector<RateTransition>& transitions)
    : Ctmc(bucket_by_source(states, transitions)) {}

Ctmc::Ctmc(const RateRows& rows) : Ctmc(GeneratorPattern(rows), rows.rates) {}

Ctmc::Ctmc(const GeneratorPattern& pattern, std::span<const double> rates) {
  if (rates.size() != pattern.entry_count()) {
    throw std::invalid_argument("Ctmc: rate count does not match the pattern");
  }
  const std::vector<std::size_t>& offsets = pattern.entry_offsets_;
  const std::size_t states = offsets.size() - 1;
  exit_rates_.assign(states, 0.0);
  std::vector<std::size_t> q_offsets(states + 1, 0);
  std::vector<std::size_t> col_indices;
  std::vector<double> values;
  col_indices.reserve(rates.size() + states);
  values.reserve(rates.size() + states);
  for (std::size_t r = 0; r < states; ++r) {
    const std::size_t begin = offsets[r];
    const std::size_t end = offsets[r + 1];
    for (std::size_t k = begin; k < end; ++k) {
      if (!(rates[k] > 0.0) || !std::isfinite(rates[k])) {
        throw std::invalid_argument("Ctmc: rate must be positive and finite");
      }
      exit_rates_[r] += rates[k];  // in the given order
    }
    // Merge each run of one column in sorted order, and splice the diagonal
    // -sum(rates) in at its sorted position.
    double exit_rate = 0.0;
    std::size_t diagonal = 0;
    bool diag_emitted = begin == end;  // a state without exits stores nothing
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t column = pattern.columns_[k];
      double rate = rates[pattern.sorted_[k]];
      while (k + 1 < end && pattern.columns_[k + 1] == column) rate += rates[pattern.sorted_[++k]];
      exit_rate += rate;
      if (!diag_emitted && column > r) {
        diagonal = values.size();
        col_indices.push_back(r);
        values.push_back(0.0);
        diag_emitted = true;
      }
      col_indices.push_back(column);
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
