#pragma once
/// \file spmv_kernel.hpp
/// \brief SIMD sparse kernel workspace for the uniformization hot path: a
/// square CSR matrix compiled once per sparsity structure into a 32-bit CSR
/// of its TRANSPOSE, swept by one fixed-width multi-RHS panel kernel.
///
/// Why the transpose: the probability iterates of uniformization advance by
/// y = x^T P (row-vector times matrix), which in CSR row order is a SCATTER
/// (y[col] += x[row] * v) — unvectorizable without conflict detection.  Over
/// the rows of P^T the same product is a GATHER (y[s] = sum_k v_k *
/// x[col_k]).  Column indices are 32-bit, halving index traffic.
///
/// Every panel is exactly kPanelWidth = 8 right-hand sides wide: element
/// (j, s) lives at x[s*8 + j], so one state's 8 values are one aligned
/// 64-byte line and every matrix entry issues one 8-wide FMA over it.  A
/// caller with fewer columns pads with zeros; one with more runs several
/// panels (ctmc::TransientSolver does both).  Each lane is an FMA chain in
/// transpose-row order, independent of the other lanes, so a column's bits
/// do not depend on what sits beside it.
///
/// The inner loop is runtime-dispatched, one compile-time-stride body per
/// ISA: AVX-512F (one vector per state), AVX2+FMA (two) and a portable
/// scalar pass (the always-available fallback; plain multiply-add, so its
/// bits differ from the FMA bodies by round-off; the oracle in tests is
/// CsrMatrix::left_multiply).  The AVX bodies hold FMA intrinsics only, so a
/// Debug and a Release build give the same bits, and AVX2 equals AVX-512
/// bit for bit.  Dispatch is decided once per process from CPUID; a kernel
/// may be pinned to a lower ISA at construction (tests run every variant
/// the host supports).
///
/// step_panel folds the reward reduction dots[j] = dot(X_j, r) of a
/// uniformization term into the same traversal that forms the next power,
/// saving a full pass over the iterate per expansion term.
///
/// An SpmvKernel is a workspace in the StationarySolver/TransientSolver
/// mold: compile() with a structurally identical matrix refreshes values in
/// place (allocation-free; structure_builds()/structure_reuses() expose the
/// contract).  Not thread-safe; hold one per thread.

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace patchsec::linalg {

/// Right-hand sides per panel: one state's lanes fill one 64-byte line.
inline constexpr std::size_t kPanelWidth = 8;
/// Required alignment of step_panel()/reduce_panel() panels, in bytes.
inline constexpr std::size_t kPanelAlignment = 64;

/// Which inner loop a kernel runs (ordered: a host that runs one runs every
/// lower one).
enum class SpmvIsa : std::uint8_t { kScalar, kAvx2, kAvx512 };

/// The dispatched ISA for this process ("panel-avx512" / "panel-avx2" /
/// "panel-scalar" in kernel-name form).
[[nodiscard]] SpmvIsa spmv_dispatched_isa() noexcept;
[[nodiscard]] const char* spmv_isa_name(SpmvIsa isa) noexcept;

/// Allocator of cache-line (64-byte) aligned storage for panels, so a
/// panel row is exactly one line and the kernel's aligned loads never split
/// two (default std::vector storage is only 16-byte aligned).
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlignment{kPanelAlignment};

  CacheLineAllocator() = default;
  template <class U>
  explicit CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlignment));
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept { ::operator delete(p, kAlignment); }

  friend bool operator==(const CacheLineAllocator&, const CacheLineAllocator&) noexcept {
    return true;
  }
};

/// Panel storage for step_panel()/reduce_panel() operands.
using PanelVector = std::vector<double, CacheLineAllocator<double>>;

class SpmvKernel {
 public:
  /// A kernel running `isa`'s inner loop (default: the dispatched one).
  /// Throws std::invalid_argument for an ISA above the dispatched one.
  explicit SpmvKernel(SpmvIsa isa = spmv_dispatched_isa());

  /// Compile (or, for an identical sparsity structure, value-refresh in
  /// place) the kernel layout from raw CSR arrays of a SQUARE matrix (the
  /// ctmc::TransientSolver path, whose cached uniformized matrix never
  /// materializes a CsrMatrix).  The arrays must satisfy the CsrMatrix
  /// invariants (sorted rows, merged duplicates).  Throws
  /// std::invalid_argument on an empty or non-square matrix, inconsistent
  /// arrays, or more than 2^32-1 rows/entries (the 32-bit index contract).
  void compile(std::size_t rows, std::size_t cols,
               const std::vector<std::size_t>& row_offsets,
               const std::vector<std::size_t>& col_indices, const std::vector<double>& values);

  [[nodiscard]] bool compiled() const noexcept { return n_ > 0; }
  /// Order of the compiled square matrix (a panel spans size() * 8 doubles).
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return nnz_; }

  /// Name of the inner loop ("panel-avx512", "panel-avx2", "panel-scalar").
  [[nodiscard]] const char* kernel_name() const noexcept { return spmv_isa_name(isa_); }
  [[nodiscard]] SpmvIsa isa() const noexcept { return isa_; }

  /// compile() calls that (re)built the layout / were served by the
  /// value-refresh fast path (the structure-reuse contract; the first build
  /// counts as one build).
  [[nodiscard]] std::size_t structure_builds() const noexcept { return builds_; }
  [[nodiscard]] std::size_t structure_reuses() const noexcept { return reuses_; }

  /// One uniformization term over one 8-wide panel (element (j, s) at
  /// x[s*8 + j]; x and y span size()*8 doubles and are 64-byte aligned, as
  /// PanelVector storage is): Y = X^T A per column and, when r and dots are
  /// non-null, dots[0..8) = dot(X_j, r) (overwritten, not accumulated) from
  /// the SAME traversal.  With null r and dots it is the plain product.
  /// Agreement with CsrMatrix::left_multiply is round-off only.  Throws
  /// std::logic_error when not compiled and std::invalid_argument on a
  /// misaligned panel or on exactly one of r/dots null.
  void step_panel(const double* x, double* y, const double* r, double* dots) const;

  /// The reduction half of step_panel() alone (the final expansion term
  /// needs the reward dots but no further power).  Throws as step_panel()
  /// does, and std::invalid_argument when r or dots is null.
  void reduce_panel(const double* x, const double* r, double* dots) const;

  /// Drop the compiled layout (counters are kept).
  void reset();

 private:
  void build_layout(const std::vector<std::size_t>& row_offsets,
                    const std::vector<std::size_t>& col_indices,
                    const std::vector<double>& values);
  void refresh_values(const std::vector<std::size_t>& row_offsets,
                      const std::vector<double>& values);
  /// The checked dispatch behind both entry points (null y: dots only).
  void sweep(const double* x, double* y, const double* r, double* dots) const;

  SpmvIsa isa_;

  std::size_t n_ = 0;  ///< order of A.
  std::size_t nnz_ = 0;

  // Input structure (32-bit), kept for the refresh comparison and as the
  // scatter map of the value-refresh pass.
  std::vector<std::uint32_t> a_row_offsets_;
  std::vector<std::uint32_t> a_col_indices_;

  // CSR of A^T (32-bit): the vectorization axis is the RHS dimension, so a
  // row-at-a-time walk is the right shape.
  std::vector<std::uint32_t> t_row_offsets_;
  std::vector<std::uint32_t> t_col_indices_;
  std::vector<double> t_values_;

  // Scratch of the transpose scatter (one slot cursor per row of A^T),
  // reused across builds.
  std::vector<std::uint32_t> fill_cursor_;

  std::size_t builds_ = 0;
  std::size_t reuses_ = 0;
};

}  // namespace patchsec::linalg
