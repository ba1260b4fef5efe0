#include "patchsec/linalg/csr_matrix.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace patchsec::linalg {

namespace {

const std::shared_ptr<const CsrStructure>& empty_structure() {
  static const std::shared_ptr<const CsrStructure> empty =
      CsrStructure::make(0, 0, std::vector<std::size_t>{0}, {});
  return empty;
}

}  // namespace

std::shared_ptr<const CsrStructure> CsrStructure::make(std::size_t rows, std::size_t cols,
                                                       std::vector<std::size_t> row_offsets,
                                                       std::vector<std::size_t> col_indices) {
  if (row_offsets.size() != rows + 1 || row_offsets.front() != 0 ||
      row_offsets.back() != col_indices.size()) {
    throw std::invalid_argument("CsrStructure: inconsistent array shapes");
  }
  for (std::size_t r = 0; r < rows; ++r) {
    if (row_offsets[r] > row_offsets[r + 1]) {
      throw std::invalid_argument("CsrStructure: row offsets must be non-decreasing");
    }
    for (std::size_t k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
      if (col_indices[k] >= cols) {
        throw std::invalid_argument("CsrStructure: column index out of range");
      }
      if (k > row_offsets[r] && col_indices[k - 1] >= col_indices[k]) {
        throw std::invalid_argument("CsrStructure: row columns must be strictly increasing");
      }
    }
  }
  std::shared_ptr<CsrStructure> structure(new CsrStructure());
  structure->rows_ = rows;
  structure->cols_ = cols;
  structure->row_offsets_ = std::move(row_offsets);
  structure->col_indices_ = std::move(col_indices);
  return structure;
}

CsrMatrix::CsrMatrix() : structure_(empty_structure()) {}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols, std::vector<Triplet> entries) {
  for (const Triplet& t : entries) {
    if (t.row >= rows || t.col >= cols) {
      throw std::out_of_range("CsrMatrix: triplet outside matrix shape");
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });

  std::vector<std::size_t> row_offsets(rows + 1, 0);
  std::vector<std::size_t> col_indices;
  col_indices.reserve(entries.size());
  values_.reserve(entries.size());

  std::size_t i = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    row_offsets[r] = values_.size();
    while (i < entries.size() && entries[i].row == r) {
      const std::size_t c = entries[i].col;
      double v = 0.0;
      while (i < entries.size() && entries[i].row == r && entries[i].col == c) {
        v += entries[i].value;
        ++i;
      }
      if (v != 0.0) {
        col_indices.push_back(c);
        values_.push_back(v);
      }
    }
  }
  row_offsets[rows] = values_.size();
  structure_ = CsrStructure::make(rows, cols, std::move(row_offsets), std::move(col_indices));
}

void CsrMatrix::left_multiply(const std::vector<double>& x, std::vector<double>& y) const {
  const std::size_t rows = structure_->rows();
  if (x.size() != rows) throw std::invalid_argument("left_multiply: size mismatch");
  y.assign(structure_->cols(), 0.0);
  const std::size_t* row_offsets = structure_->row_offsets().data();
  const std::size_t* col_indices = structure_->col_indices().data();
  const double* values = values_.data();
  double* out = y.data();
  // No zero-skip here: the callers' iterates (probability vectors under
  // power/uniformization iteration) are dense, so the branch was a per-row
  // mispredict costing 7-20% of the sweep depending on row length (measured
  // on the k = 4 and k = 6 network generators).
  for (std::size_t r = 0; r < rows; ++r) {
    const double xr = x[r];
    for (std::size_t k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
      out[col_indices[k]] += xr * values[k];
    }
  }
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  if (row >= rows() || col >= cols()) throw std::out_of_range("CsrMatrix::at");
  const std::vector<std::size_t>& col_indices = structure_->col_indices();
  const auto begin = col_indices.begin() + static_cast<std::ptrdiff_t>(row_offsets()[row]);
  const auto end = col_indices.begin() + static_cast<std::ptrdiff_t>(row_offsets()[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_indices.begin())];
}

CsrMatrix CsrMatrix::from_sorted(std::size_t rows, std::size_t cols,
                                 std::vector<std::size_t> row_offsets,
                                 std::vector<std::size_t> col_indices,
                                 std::vector<double> values) {
  if (col_indices.size() != values.size()) {
    throw std::invalid_argument("CsrMatrix::from_sorted: inconsistent array shapes");
  }
  if (std::find(values.begin(), values.end(), 0.0) != values.end()) {
    throw std::invalid_argument("CsrMatrix::from_sorted: explicit zeros are not stored");
  }
  return from_structure(
      CsrStructure::make(rows, cols, std::move(row_offsets), std::move(col_indices)),
      std::move(values));
}

CsrMatrix CsrMatrix::from_structure(std::shared_ptr<const CsrStructure> structure,
                                    std::vector<double> values) {
  if (structure == nullptr || values.size() != structure->nnz()) {
    throw std::invalid_argument("CsrMatrix::from_structure: value count does not match");
  }
  CsrMatrix m;
  m.structure_ = std::move(structure);
  m.values_ = std::move(values);
  return m;
}

double CsrMatrix::row_sum(std::size_t row) const {
  if (row >= rows()) throw std::out_of_range("CsrMatrix::row_sum");
  double acc = 0.0;
  for (std::size_t k = row_offsets()[row]; k < row_offsets()[row + 1]; ++k) acc += values_[k];
  return acc;
}

}  // namespace patchsec::linalg
