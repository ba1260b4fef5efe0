#include "patchsec/ctmc/ctmc.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "patchsec/linalg/stationary_solver.hpp"

namespace patchsec::ctmc {

StateIndex Ctmc::add_state(std::string label) {
  labels_.push_back(std::move(label));
  return labels_.size() - 1;
}

StateIndex Ctmc::add_states(std::size_t n) {
  const StateIndex first = labels_.size();
  labels_.resize(labels_.size() + n);
  return first;
}

void Ctmc::reserve(std::size_t states, std::size_t transitions) {
  labels_.reserve(labels_.size() + states);
  transitions_.reserve(transitions_.size() + transitions);
}

void Ctmc::add_transition(StateIndex from, StateIndex to, double rate) {
  if (from >= state_count() || to >= state_count()) {
    throw std::out_of_range("Ctmc::add_transition: state out of range");
  }
  if (from == to) throw std::invalid_argument("Ctmc::add_transition: self loop");
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    throw std::invalid_argument("Ctmc::add_transition: rate must be positive and finite");
  }
  transitions_.push_back({from, to, rate});
}

linalg::CsrMatrix Ctmc::generator() const {
  const std::size_t n = state_count();
  // Counting assembly: gather each row's off-diagonal (to, rate) pairs into a
  // flat scratch, sort/merge the (tiny) rows, and append them to the final
  // CSR arrays with the diagonal -sum(rates) spliced in at its sorted
  // position.  O(nnz) plus per-row micro-sorts — no global triplet sort.
  std::vector<std::size_t> cursor(n + 1, 0);
  for (const RateTransition& t : transitions_) ++cursor[t.from + 1];
  for (std::size_t r = 0; r < n; ++r) cursor[r + 1] += cursor[r];
  std::vector<std::pair<std::size_t, double>> scratch(transitions_.size());
  for (const RateTransition& t : transitions_) scratch[cursor[t.from]++] = {t.to, t.rate};
  // cursor[r] now points one past row r's segment; row r spans
  // [r == 0 ? 0 : cursor[r-1], cursor[r]).

  std::vector<std::size_t> row_offsets(n + 1, 0);
  std::vector<std::size_t> col_indices;
  std::vector<double> values;
  col_indices.reserve(transitions_.size() + n);
  values.reserve(transitions_.size() + n);
  for (std::size_t r = 0; r < n; ++r) {
    const auto begin = scratch.begin() + static_cast<std::ptrdiff_t>(r == 0 ? 0 : cursor[r - 1]);
    const auto end = scratch.begin() + static_cast<std::ptrdiff_t>(cursor[r]);
    std::sort(begin, end);
    double exit_rate = 0.0;
    bool diag_emitted = begin == end;  // empty rows store nothing (matches the
                                       // triplet path, which dropped zero sums)
    const std::size_t row_begin = values.size();
    for (auto it = begin; it != end; ++it) {
      double rate = it->second;
      while (it + 1 != end && (it + 1)->first == it->first) {  // merge parallel edges
        ++it;
        rate += it->second;
      }
      exit_rate += rate;
      if (!diag_emitted && it->first > r) {
        col_indices.push_back(r);
        values.push_back(0.0);  // patched to -exit_rate below
        diag_emitted = true;
      }
      col_indices.push_back(it->first);
      values.push_back(rate);
    }
    if (!diag_emitted) {
      col_indices.push_back(r);
      values.push_back(0.0);
    }
    for (std::size_t k = row_begin; k < values.size(); ++k) {
      if (col_indices[k] == r) values[k] = -exit_rate;
    }
    row_offsets[r + 1] = values.size();
  }
  return linalg::CsrMatrix::from_sorted(n, n, std::move(row_offsets), std::move(col_indices),
                                        std::move(values));
}

linalg::SteadyStateResult Ctmc::steady_state(const linalg::SteadyStateOptions& options) const {
  if (state_count() == 0) throw std::logic_error("Ctmc::steady_state: empty chain");
  return linalg::solve_steady_state(generator(), options);
}

linalg::SteadyStateResult Ctmc::steady_state(linalg::StationarySolver& workspace,
                                             const linalg::SteadyStateOptions& options) const {
  if (state_count() == 0) throw std::logic_error("Ctmc::steady_state: empty chain");
  return workspace.solve(generator(), options);
}

std::vector<double> Ctmc::exit_rates() const {
  std::vector<double> rates(state_count(), 0.0);
  for (const RateTransition& t : transitions_) rates[t.from] += t.rate;
  return rates;
}

std::vector<bool> Ctmc::reachable_from(StateIndex start) const {
  if (start >= state_count()) throw std::out_of_range("Ctmc::reachable_from");
  std::vector<std::vector<StateIndex>> adjacency(state_count());
  for (const RateTransition& t : transitions_) adjacency[t.from].push_back(t.to);

  std::vector<bool> seen(state_count(), false);
  std::vector<StateIndex> stack{start};
  seen[start] = true;
  while (!stack.empty()) {
    const StateIndex s = stack.back();
    stack.pop_back();
    for (StateIndex next : adjacency[s]) {
      if (!seen[next]) {
        seen[next] = true;
        stack.push_back(next);
      }
    }
  }
  return seen;
}

bool Ctmc::is_irreducible() const {
  if (state_count() == 0) return false;
  const std::vector<bool> forward = reachable_from(0);
  for (bool b : forward) {
    if (!b) return false;
  }
  // Check the reverse direction on the transposed chain.
  Ctmc reversed;
  reversed.add_states(state_count());
  for (const RateTransition& t : transitions_) reversed.add_transition(t.to, t.from, t.rate);
  const std::vector<bool> backward = reversed.reachable_from(0);
  for (bool b : backward) {
    if (!b) return false;
  }
  return true;
}

}  // namespace patchsec::ctmc
