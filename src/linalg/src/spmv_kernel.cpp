#include "patchsec/linalg/spmv_kernel.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

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

constexpr std::size_t kW = kPanelWidth;

/// Borrowed view of the 32-bit CSR of A^T handed to the ISA variants.  The
/// bodies copy it into locals first: read through the reference, every
/// panel store could alias it, and reloading it per row costs a sweep ~15%.
struct TcsrView {
  const std::uint32_t* offsets;
  const std::uint32_t* cols;
  const double* vals;
  std::size_t n;  // order of A
};

// One stride-8 sweep body per ISA.  Null y skips the product (the
// reduction alone); null r skips the reward dots.

// The scalar variant (always available; the portable fallback).  Plain
// multiply-add, so on a host without FMA its bits differ from the SIMD
// variants by round-off.
void panel_sweep_scalar(const TcsrView& t, const double* x, double* y, const double* r,
                        double* dots) {
  const auto [offsets, cols, vals, n] = t;
  double dacc[kW] = {};
  for (std::size_t s = 0; s < n; ++s) {
    if (y != nullptr) {
      double acc[kW] = {};
      for (std::uint32_t k = offsets[s]; k < offsets[s + 1]; ++k) {
        const double* xc = x + std::size_t{cols[k]} * kW;
        for (std::size_t j = 0; j < kW; ++j) acc[j] += vals[k] * xc[j];
      }
      std::copy_n(acc, kW, y + s * kW);
    }
    if (r != nullptr) {
      for (std::size_t j = 0; j < kW; ++j) dacc[j] += r[s] * x[s * kW + j];
    }
  }
  if (r != nullptr) std::copy_n(dacc, kW, dots);
}

#if PATCHSEC_X86_SIMD

// AVX2+FMA: one state's 8 lanes as two 4-wide vectors.  Every lane runs the
// same FMA chain as in the AVX-512 body, so the two are bit-identical.
__attribute__((target("avx2,fma"))) void panel_sweep_avx2(const TcsrView& t, const double* x,
                                                          double* y, const double* r,
                                                          double* dots) {
  const auto [offsets, cols, vals, n] = t;
  __m256d dlo = _mm256_setzero_pd();
  __m256d dhi = _mm256_setzero_pd();
  for (std::size_t s = 0; s < n; ++s) {
    if (y != nullptr) {
      __m256d lo = _mm256_setzero_pd();
      __m256d hi = _mm256_setzero_pd();
      for (std::uint32_t k = offsets[s]; k < offsets[s + 1]; ++k) {
        const __m256d vv = _mm256_broadcast_sd(vals + k);
        const double* xc = x + std::size_t{cols[k]} * kW;
        lo = _mm256_fmadd_pd(vv, _mm256_load_pd(xc), lo);
        hi = _mm256_fmadd_pd(vv, _mm256_load_pd(xc + 4), hi);
      }
      _mm256_store_pd(y + s * kW, lo);
      _mm256_store_pd(y + s * kW + 4, hi);
    }
    if (r != nullptr) {
      const __m256d rv = _mm256_broadcast_sd(r + s);
      dlo = _mm256_fmadd_pd(rv, _mm256_load_pd(x + s * kW), dlo);
      dhi = _mm256_fmadd_pd(rv, _mm256_load_pd(x + s * kW + 4), dhi);
    }
  }
  if (r != nullptr) {
    _mm256_storeu_pd(dots, dlo);
    _mm256_storeu_pd(dots + 4, dhi);
  }
}

// AVX-512F: one state's 8 lanes as one vector, one cache line.
__attribute__((target("avx512f"))) void panel_sweep_avx512(const TcsrView& t, const double* x,
                                                           double* y, const double* r,
                                                           double* dots) {
  const auto [offsets, cols, vals, n] = t;
  __m512d dacc = _mm512_setzero_pd();
  for (std::size_t s = 0; s < n; ++s) {
    if (y != nullptr) {
      __m512d acc = _mm512_setzero_pd();
      for (std::uint32_t k = offsets[s]; k < offsets[s + 1]; ++k) {
        acc = _mm512_fmadd_pd(_mm512_set1_pd(vals[k]),
                              _mm512_load_pd(x + std::size_t{cols[k]} * kW), acc);
      }
      _mm512_store_pd(y + s * kW, acc);
    }
    if (r != nullptr) {
      dacc = _mm512_fmadd_pd(_mm512_set1_pd(r[s]), _mm512_load_pd(x + s * kW), dacc);
    }
  }
  if (r != nullptr) _mm512_storeu_pd(dots, dacc);
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

bool line_aligned(const void* p) noexcept {
  return reinterpret_cast<std::uintptr_t>(p) % kPanelAlignment == 0;
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

SpmvKernel::SpmvKernel(SpmvIsa isa) : isa_(isa) {
  if (isa > spmv_dispatched_isa()) {
    throw std::invalid_argument(std::string("SpmvKernel: this host cannot run ") +
                                spmv_isa_name(isa));
  }
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

void SpmvKernel::step_panel(const double* x, double* y, const double* r, double* dots) const {
  if ((r == nullptr) != (dots == nullptr)) {
    throw std::invalid_argument("SpmvKernel: r and dots must both be set or both be null");
  }
  if (!line_aligned(y)) throw std::invalid_argument("SpmvKernel: panel is not cache-line aligned");
  sweep(x, y, r, dots);
}

void SpmvKernel::reduce_panel(const double* x, const double* r, double* dots) const {
  if (r == nullptr || dots == nullptr) {
    throw std::invalid_argument("SpmvKernel: reduce_panel needs r and dots");
  }
  sweep(x, nullptr, r, dots);
}

void SpmvKernel::sweep(const double* x, double* y, const double* r, double* dots) const {
  if (!compiled()) throw std::logic_error("SpmvKernel: compile() has not run");
  if (!line_aligned(x)) throw std::invalid_argument("SpmvKernel: panel is not cache-line aligned");
  const TcsrView view{t_row_offsets_.data(), t_col_indices_.data(), t_values_.data(), n_};
#if PATCHSEC_X86_SIMD
  switch (isa_) {
    case SpmvIsa::kAvx512:
      panel_sweep_avx512(view, x, y, r, dots);
      return;
    case SpmvIsa::kAvx2:
      panel_sweep_avx2(view, x, y, r, dots);
      return;
    case SpmvIsa::kScalar:
      break;
  }
#endif
  panel_sweep_scalar(view, x, y, r, dots);
}

}  // namespace patchsec::linalg
