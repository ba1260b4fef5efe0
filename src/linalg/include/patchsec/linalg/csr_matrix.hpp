#pragma once
// Compressed-sparse-row matrix plus a triplet builder.  The CTMC layer stores
// infinitesimal generators here; rows are CTMC source states.

#include <cstddef>
#include <vector>

namespace patchsec::linalg {

/// One (row, col, value) coordinate entry used while assembling a matrix.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

/// Immutable CSR matrix.  Duplicate triplets are summed during construction;
/// explicit zeros are dropped.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from coordinate entries.  `rows` x `cols` logical shape; any
  /// triplet out of range throws std::out_of_range.
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<Triplet> entries);

  /// Build directly from pre-assembled CSR arrays, skipping the triplet sort.
  /// The builder must provide rows already sorted by column with duplicates
  /// merged and explicit zeros dropped (the class invariants); the arrays are
  /// validated in one O(nnz) pass and std::invalid_argument is thrown on any
  /// violation.  This is the fast path for producers that naturally emit
  /// sorted rows (the counting transpose, the ctmc::Ctmc constructor).
  [[nodiscard]] static CsrMatrix from_sorted(std::size_t rows, std::size_t cols,
                                             std::vector<std::size_t> row_offsets,
                                             std::vector<std::size_t> col_indices,
                                             std::vector<double> values);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }

  /// y = x^T * A  (row-vector times matrix; the natural operation for
  /// probability vectors and generators).  y is resized to cols().  Tuned
  /// for DENSE x (no per-row zero test — the solvers' probability iterates
  /// fill in within a few steps, making the branch a pure mispredict).
  void left_multiply(const std::vector<double>& x, std::vector<double>& y) const;

  /// Element lookup (binary search within the row); 0.0 when absent.
  [[nodiscard]] double at(std::size_t row, std::size_t col) const;

  /// Row access for solvers.
  [[nodiscard]] const std::vector<std::size_t>& row_offsets() const noexcept { return row_offsets_; }
  [[nodiscard]] const std::vector<std::size_t>& col_indices() const noexcept { return col_indices_; }
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }

  /// Sum of a given row's entries (used to sanity-check generators).
  [[nodiscard]] double row_sum(std::size_t row) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;  // size rows_+1
  std::vector<std::size_t> col_indices_;
  std::vector<double> values_;
};

}  // namespace patchsec::linalg
