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
  // Slots index the generator, which adds a diagonal per row.
  if (entries + states > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("Ctmc: too many states or rates");
  }
  sorted_.resize(entries);
  slots_.resize(entries);
  diagonals_.assign(states, 0);
  std::vector<std::size_t> q_offsets(states + 1, 0);
  std::vector<std::size_t> q_columns;
  q_columns.reserve(entries + states);
  const auto by_column_then_rate = [&rows](std::uint32_t a, std::uint32_t b) {
    return std::pair(rows.columns[a], rows.rates[a]) < std::pair(rows.columns[b], rows.rates[b]);
  };
  const auto emit = [&q_columns](std::size_t column) {
    q_columns.push_back(column);
    return static_cast<std::uint32_t>(q_columns.size() - 1);
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
    // One generator entry per run of one column, and the diagonal spliced in
    // at its sorted position; a state without exits stores nothing.
    bool diagonal_emitted = begin == end;
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t column = rows.columns[sorted_[k]];
      if (!diagonal_emitted && column > r) {
        diagonals_[r] = emit(r);
        diagonal_emitted = true;
      }
      const bool merged = k > begin && rows.columns[sorted_[k - 1]] == column;
      slots_[k] = merged ? slots_[k - 1] : emit(column);
    }
    if (!diagonal_emitted) diagonals_[r] = emit(r);
    q_offsets[r + 1] = q_columns.size();
  }
  structure_ =
      linalg::CsrStructure::make(states, states, std::move(q_offsets), std::move(q_columns));
}

Ctmc::Ctmc(std::size_t states, const std::vector<RateTransition>& transitions)
    : Ctmc(bucket_by_source(states, transitions)) {}

Ctmc::Ctmc(const RateRows& rows) : Ctmc(GeneratorPattern(rows), rows.rates) {}

Ctmc::Ctmc(const GeneratorPattern& pattern, std::span<const double> rates) {
  if (rates.size() != pattern.entry_count()) {
    throw std::invalid_argument("Ctmc: rate count does not match the pattern");
  }
  if (pattern.structure_ == nullptr) return;  // the empty chain
  const std::vector<std::size_t>& offsets = pattern.entry_offsets_;
  const std::size_t states = offsets.size() - 1;
  exit_rates_.assign(states, 0.0);
  std::vector<double> values(pattern.structure_->nnz());
  for (std::size_t r = 0; r < states; ++r) {
    const std::size_t begin = offsets[r];
    const std::size_t end = offsets[r + 1];
    if (begin == end) continue;
    for (std::size_t k = begin; k < end; ++k) {
      if (!(rates[k] > 0.0) || !std::isfinite(rates[k])) {
        throw std::invalid_argument("Ctmc: rate must be positive and finite");
      }
      exit_rates_[r] += rates[k];  // in the given order
    }
    // Merge each run of one slot in sorted order; the diagonal is -sum of
    // the merged row in column order.
    double exit_rate = 0.0;
    for (std::size_t k = begin; k < end; ++k) {
      const std::uint32_t slot = pattern.slots_[k];
      double rate = rates[pattern.sorted_[k]];
      while (k + 1 < end && pattern.slots_[k + 1] == slot) rate += rates[pattern.sorted_[++k]];
      exit_rate += rate;
      values[slot] = rate;
    }
    values[pattern.diagonals_[r]] = -exit_rate;
  }
  generator_ = linalg::CsrMatrix::from_structure(pattern.structure_, std::move(values));
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
