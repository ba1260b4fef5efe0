#pragma once
// Compressed-sparse-row matrix plus a triplet builder.  The CTMC layer stores
// infinitesimal generators here; rows are CTMC source states.

#include <cstddef>
#include <memory>
#include <vector>

namespace patchsec::linalg {

/// One (row, col, value) coordinate entry used while assembling a matrix.
struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

/// The sparsity structure of a CSR matrix: row r's entries sit at
/// [row_offsets[r], row_offsets[r + 1]) of col_indices, with strictly
/// increasing columns.  Immutable and validated once, when made.  Matrices
/// that differ only in their values share one (CsrMatrix::structure()), so a
/// workspace caching per-structure state recognises a repeat by pointer.
class CsrStructure {
 public:
  /// Throws std::invalid_argument unless `row_offsets` holds rows + 1
  /// non-decreasing entries from 0 to col_indices.size() and every row's
  /// columns are strictly increasing and below `cols`.  One O(nnz) pass.
  [[nodiscard]] static std::shared_ptr<const CsrStructure> make(
      std::size_t rows, std::size_t cols, std::vector<std::size_t> row_offsets,
      std::vector<std::size_t> col_indices);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return col_indices_.size(); }
  [[nodiscard]] const std::vector<std::size_t>& row_offsets() const noexcept { return row_offsets_; }
  [[nodiscard]] const std::vector<std::size_t>& col_indices() const noexcept { return col_indices_; }

  /// Same shape and arrays.
  [[nodiscard]] bool same_as(const CsrStructure& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_ && row_offsets_ == other.row_offsets_ &&
           col_indices_ == other.col_indices_;
  }

 private:
  CsrStructure() = default;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;  // size rows_+1
  std::vector<std::size_t> col_indices_;
};

/// Immutable CSR matrix: a shared CsrStructure plus one value per entry.
/// Duplicate triplets are summed during construction; explicit zeros are
/// dropped.
class CsrMatrix {
 public:
  CsrMatrix();

  /// Build from coordinate entries.  `rows` x `cols` logical shape; any
  /// triplet out of range throws std::out_of_range.
  CsrMatrix(std::size_t rows, std::size_t cols, std::vector<Triplet> entries);

  /// Build directly from pre-assembled CSR arrays, skipping the triplet sort.
  /// The builder must provide rows already sorted by column with duplicates
  /// merged and explicit zeros dropped (the class invariants); the arrays are
  /// validated in one O(nnz) pass and std::invalid_argument is thrown on any
  /// violation.  This is the fast path for producers that naturally emit
  /// sorted rows.
  [[nodiscard]] static CsrMatrix from_sorted(std::size_t rows, std::size_t cols,
                                             std::vector<std::size_t> row_offsets,
                                             std::vector<std::size_t> col_indices,
                                             std::vector<double> values);

  /// `values` in `structure`'s entry order, sharing the structure: nothing is
  /// validated but the value count (std::invalid_argument when it differs
  /// from structure->nnz() or the structure is null).  The caller keeps the
  /// no-explicit-zeros invariant; ctmc::Ctmc re-rates a generator this way.
  [[nodiscard]] static CsrMatrix from_structure(std::shared_ptr<const CsrStructure> structure,
                                                std::vector<double> values);

  [[nodiscard]] std::size_t rows() const noexcept { return structure_->rows(); }
  [[nodiscard]] std::size_t cols() const noexcept { return structure_->cols(); }
  [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }

  /// y = x^T * A  (row-vector times matrix; the natural operation for
  /// probability vectors and generators).  y is resized to cols().  Tuned
  /// for DENSE x (no per-row zero test — the solvers' probability iterates
  /// fill in within a few steps, making the branch a pure mispredict).
  void left_multiply(const std::vector<double>& x, std::vector<double>& y) const;

  /// Element lookup (binary search within the row); 0.0 when absent.
  [[nodiscard]] double at(std::size_t row, std::size_t col) const;

  /// Row access for solvers.
  [[nodiscard]] const std::vector<std::size_t>& row_offsets() const noexcept {
    return structure_->row_offsets();
  }
  [[nodiscard]] const std::vector<std::size_t>& col_indices() const noexcept {
    return structure_->col_indices();
  }
  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }

  /// The structure, shared with every matrix built from it (never null).
  [[nodiscard]] const std::shared_ptr<const CsrStructure>& structure() const noexcept {
    return structure_;
  }

  /// Sum of a given row's entries (used to sanity-check generators).
  [[nodiscard]] double row_sum(std::size_t row) const;

 private:
  std::shared_ptr<const CsrStructure> structure_;
  std::vector<double> values_;
};

}  // namespace patchsec::linalg
