#include "patchsec/linalg/spmv_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

// The SIMD variants are compiled (and dispatched at runtime from CPUID) only
// on x86-64 GCC/Clang; every other toolchain gets the portable scalar pass
// over the same storage.  Baseline codegen stays portable — the AVX bodies
// carry per-function target attributes, so no global -march is needed (see
// PATCHSEC_NATIVE_ARCH for local -march=native builds).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PATCHSEC_X86_SIMD 1
#include <immintrin.h>
#else
#define PATCHSEC_X86_SIMD 0
#endif

namespace patchsec::linalg {

namespace {

/// Borrowed view of the 32-bit CSR of A^T handed to the ISA variants.
struct TcsrView {
  const std::uint32_t* offsets;
  const std::uint32_t* cols;
  const double* vals;
  std::size_t n;  // order of A
};

// ---------------------------------------------------------------------------
// Scalar variants (always available; the portable fallback).
// ---------------------------------------------------------------------------

void panel_step_scalar(const TcsrView& t, const double* x, double* y, std::size_t m,
                       const double* r, double* dots) {
  const bool do_dots = r != nullptr && dots != nullptr;
  if (do_dots) std::memset(dots, 0, m * sizeof(double));
  for (std::size_t s = 0; s < t.n; ++s) {
    double* ys = y + s * m;
    std::memset(ys, 0, m * sizeof(double));
    for (std::uint32_t k = t.offsets[s]; k < t.offsets[s + 1]; ++k) {
      const double v = t.vals[k];
      const double* xc = x + std::size_t{t.cols[k]} * m;
      for (std::size_t j = 0; j < m; ++j) ys[j] += v * xc[j];
    }
    if (do_dots) {
      const double* xs = x + s * m;
      const double rs = r[s];
      for (std::size_t j = 0; j < m; ++j) dots[j] += rs * xs[j];
    }
  }
}

void panel_reduce_scalar(const double* x, std::size_t n, std::size_t m, const double* r,
                         double* dots) {
  std::memset(dots, 0, m * sizeof(double));
  for (std::size_t s = 0; s < n; ++s) {
    const double rs = r[s];
    const double* xs = x + s * m;
    for (std::size_t j = 0; j < m; ++j) dots[j] += rs * xs[j];
  }
}

#if PATCHSEC_X86_SIMD

// ---------------------------------------------------------------------------
// AVX2+FMA variants: 4 RHS per vector.  Full RHS blocks keep the dot
// accumulator in a register; the tail block falls back to scalar code.
// ---------------------------------------------------------------------------

__attribute__((target("avx2,fma"))) void panel_step_avx2(const TcsrView& t, const double* x,
                                                         double* y, std::size_t m,
                                                         const double* r, double* dots) {
  const bool do_dots = r != nullptr && dots != nullptr;
  for (std::size_t jb = 0; jb < m; jb += 4) {
    const std::size_t jw = std::min<std::size_t>(4, m - jb);
    if (jw == 4) {
      __m256d dacc = _mm256_setzero_pd();
      for (std::size_t s = 0; s < t.n; ++s) {
        __m256d acc = _mm256_setzero_pd();
        for (std::uint32_t k = t.offsets[s]; k < t.offsets[s + 1]; ++k) {
          const __m256d vv = _mm256_set1_pd(t.vals[k]);
          acc = _mm256_fmadd_pd(vv, _mm256_loadu_pd(x + std::size_t{t.cols[k]} * m + jb), acc);
        }
        _mm256_storeu_pd(y + s * m + jb, acc);
        if (do_dots) {
          dacc = _mm256_fmadd_pd(_mm256_set1_pd(r[s]), _mm256_loadu_pd(x + s * m + jb), dacc);
        }
      }
      if (do_dots) _mm256_storeu_pd(dots + jb, dacc);
    } else {
      if (do_dots) {
        for (std::size_t j = 0; j < jw; ++j) dots[jb + j] = 0.0;
      }
      for (std::size_t s = 0; s < t.n; ++s) {
        double acc[3] = {0.0, 0.0, 0.0};
        for (std::uint32_t k = t.offsets[s]; k < t.offsets[s + 1]; ++k) {
          const double v = t.vals[k];
          const double* xc = x + std::size_t{t.cols[k]} * m + jb;
          for (std::size_t j = 0; j < jw; ++j) acc[j] += v * xc[j];
        }
        double* ys = y + s * m + jb;
        for (std::size_t j = 0; j < jw; ++j) ys[j] = acc[j];
        if (do_dots) {
          const double* xs = x + s * m + jb;
          for (std::size_t j = 0; j < jw; ++j) dots[jb + j] += r[s] * xs[j];
        }
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void panel_reduce_avx2(const double* x, std::size_t n,
                                                           std::size_t m, const double* r,
                                                           double* dots) {
  std::memset(dots, 0, m * sizeof(double));
  for (std::size_t s = 0; s < n; ++s) {
    const __m256d rv = _mm256_set1_pd(r[s]);
    const double* xs = x + s * m;
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      _mm256_storeu_pd(dots + j,
                       _mm256_fmadd_pd(rv, _mm256_loadu_pd(xs + j), _mm256_loadu_pd(dots + j)));
    }
    for (; j < m; ++j) dots[j] += r[s] * xs[j];
  }
}

// ---------------------------------------------------------------------------
// AVX-512F variants: 8 RHS per vector, masked loads/stores on the tail block.
// ---------------------------------------------------------------------------

__attribute__((target("avx512f"))) void panel_step_avx512(const TcsrView& t, const double* x,
                                                          double* y, std::size_t m,
                                                          const double* r, double* dots) {
  const bool do_dots = r != nullptr && dots != nullptr;
  for (std::size_t jb = 0; jb < m; jb += 8) {
    const std::size_t jw = std::min<std::size_t>(8, m - jb);
    const __mmask8 mask = static_cast<__mmask8>((jw == 8) ? 0xffu : ((1u << jw) - 1u));
    __m512d dacc = _mm512_setzero_pd();
    for (std::size_t s = 0; s < t.n; ++s) {
      __m512d acc = _mm512_setzero_pd();
      for (std::uint32_t k = t.offsets[s]; k < t.offsets[s + 1]; ++k) {
        const __m512d vv = _mm512_set1_pd(t.vals[k]);
        const __m512d xv = _mm512_maskz_loadu_pd(mask, x + std::size_t{t.cols[k]} * m + jb);
        acc = _mm512_fmadd_pd(vv, xv, acc);
      }
      _mm512_mask_storeu_pd(y + s * m + jb, mask, acc);
      if (do_dots) {
        const __m512d xv = _mm512_maskz_loadu_pd(mask, x + s * m + jb);
        dacc = _mm512_fmadd_pd(_mm512_set1_pd(r[s]), xv, dacc);
      }
    }
    if (do_dots) _mm512_mask_storeu_pd(dots + jb, mask, dacc);
  }
}

__attribute__((target("avx512f"))) void panel_reduce_avx512(const double* x, std::size_t n,
                                                            std::size_t m, const double* r,
                                                            double* dots) {
  std::memset(dots, 0, m * sizeof(double));
  for (std::size_t s = 0; s < n; ++s) {
    const __m512d rv = _mm512_set1_pd(r[s]);
    const double* xs = x + s * m;
    std::size_t j = 0;
    for (; j + 8 <= m; j += 8) {
      _mm512_storeu_pd(dots + j,
                       _mm512_fmadd_pd(rv, _mm512_loadu_pd(xs + j), _mm512_loadu_pd(dots + j)));
    }
    for (; j < m; ++j) dots[j] += r[s] * xs[j];
  }
}

#endif  // PATCHSEC_X86_SIMD

SpmvIsa detect_isa() noexcept {
#if PATCHSEC_X86_SIMD
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return SpmvIsa::kAvx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return SpmvIsa::kAvx2;
#endif
  return SpmvIsa::kScalar;
}

}  // namespace

SpmvIsa spmv_dispatched_isa() noexcept {
  static const SpmvIsa isa = detect_isa();
  return isa;
}

const char* spmv_isa_name(SpmvIsa isa) noexcept {
  switch (isa) {
    case SpmvIsa::kAvx512:
      return "panel-avx512";
    case SpmvIsa::kAvx2:
      return "panel-avx2";
    case SpmvIsa::kScalar:
      break;
  }
  return "panel-scalar";
}

void SpmvKernel::compile(std::size_t rows, std::size_t cols,
                         const std::vector<std::size_t>& row_offsets,
                         const std::vector<std::size_t>& col_indices,
                         const std::vector<double>& values) {
  if (rows == 0 || cols == 0) throw std::invalid_argument("SpmvKernel: empty matrix");
  if (rows != cols) throw std::invalid_argument("SpmvKernel: matrix is not square");
  constexpr auto kIndexMax = std::numeric_limits<std::uint32_t>::max();
  if (rows >= kIndexMax || values.size() >= kIndexMax) {
    throw std::invalid_argument("SpmvKernel: matrix exceeds the 32-bit index layout");
  }
  if (row_offsets.size() != rows + 1 || col_indices.size() != values.size()) {
    throw std::invalid_argument("SpmvKernel: inconsistent CSR arrays");
  }

  const bool same_structure =
      compiled() && rows == n_ && values.size() == nnz_ &&
      std::equal(row_offsets.begin(), row_offsets.end(), a_row_offsets_.begin(),
                 [](std::size_t lhs, std::uint32_t rhs) { return lhs == rhs; }) &&
      std::equal(col_indices.begin(), col_indices.end(), a_col_indices_.begin(),
                 [](std::size_t lhs, std::uint32_t rhs) { return lhs == rhs; });
  if (same_structure) {
    ++reuses_;
    refresh_values(row_offsets, values);
    return;
  }
  ++builds_;
  n_ = rows;
  nnz_ = values.size();
  build_layout(row_offsets, col_indices, values);
}

void SpmvKernel::build_layout(const std::vector<std::size_t>& row_offsets,
                              const std::vector<std::size_t>& col_indices,
                              const std::vector<double>& values) {
  a_row_offsets_.assign(row_offsets.begin(), row_offsets.end());
  a_col_indices_.assign(col_indices.begin(), col_indices.end());

  // Counting transpose into the 32-bit CSR of A^T.  Source rows are walked
  // in ascending order, so each transpose row comes out sorted.
  t_row_offsets_.assign(n_ + 1, 0);
  for (std::uint32_t c : a_col_indices_) ++t_row_offsets_[c + 1];
  for (std::size_t s = 0; s < n_; ++s) t_row_offsets_[s + 1] += t_row_offsets_[s];
  t_col_indices_.resize(nnz_);
  t_values_.resize(nnz_);
  fill_cursor_.assign(t_row_offsets_.begin(), t_row_offsets_.end() - 1);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
      const std::uint32_t pos = fill_cursor_[col_indices[k]]++;
      t_col_indices_[pos] = static_cast<std::uint32_t>(r);
      t_values_[pos] = values[k];
    }
  }
}

void SpmvKernel::refresh_values(const std::vector<std::size_t>& row_offsets,
                                const std::vector<double>& values) {
  // Same structure: only the numeric payloads move.  The transpose scatter
  // reruns over the cached index arrays — no vector grows, so the path is
  // allocation-free.
  fill_cursor_.assign(t_row_offsets_.begin(), t_row_offsets_.end() - 1);
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
      t_values_[fill_cursor_[a_col_indices_[k]]++] = values[k];
    }
  }
}

void SpmvKernel::reset() {
  n_ = nnz_ = 0;
  a_row_offsets_.clear();
  a_col_indices_.clear();
  t_row_offsets_.clear();
  t_col_indices_.clear();
  t_values_.clear();
  fill_cursor_.clear();
}

void SpmvKernel::step_panel(const double* x, double* y, std::size_t m, const double* r,
                            double* dots) const {
  if (!compiled()) throw std::logic_error("SpmvKernel: compile() has not run");
  if (m == 0) throw std::invalid_argument("SpmvKernel: empty panel");
  const TcsrView view{t_row_offsets_.data(), t_col_indices_.data(), t_values_.data(), n_};
#if PATCHSEC_X86_SIMD
  switch (isa_) {
    case SpmvIsa::kAvx512:
      panel_step_avx512(view, x, y, m, r, dots);
      return;
    case SpmvIsa::kAvx2:
      panel_step_avx2(view, x, y, m, r, dots);
      return;
    case SpmvIsa::kScalar:
      break;
  }
#endif
  panel_step_scalar(view, x, y, m, r, dots);
}

void SpmvKernel::reduce_panel(const double* x, std::size_t m, const double* r,
                              double* dots) const {
#if PATCHSEC_X86_SIMD
  switch (isa_) {
    case SpmvIsa::kAvx512:
      panel_reduce_avx512(x, n_, m, r, dots);
      return;
    case SpmvIsa::kAvx2:
      panel_reduce_avx2(x, n_, m, r, dots);
      return;
    case SpmvIsa::kScalar:
      break;
  }
#endif
  panel_reduce_scalar(x, n_, m, r, dots);
}

}  // namespace patchsec::linalg
