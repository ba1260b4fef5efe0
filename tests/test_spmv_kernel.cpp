// Tests for the SIMD sparse-kernel layer (linalg::SpmvKernel) and its
// TransientSolver integration: scalar-oracle agreement (CsrMatrix::
// left_multiply is the reference, per docs/ARCHITECTURE.md §12) on paper
// nets and seeded random matrices, fused-step semantics, panel-vs-sequential
// equivalence, the structure-reuse contract, and panel-column bit-identity
// across panel widths.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "patchsec/avail/aggregation.hpp"
#include "patchsec/avail/network_srn.hpp"
#include "patchsec/ctmc/transient_solver.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/linalg/spmv_kernel.hpp"
#include "patchsec/petri/reachability.hpp"
#include "transient_oracle.hpp"

namespace av = patchsec::avail;
namespace ct = patchsec::ctmc;
namespace ent = patchsec::enterprise;
namespace la = patchsec::linalg;

namespace {

// Documented agreement bound of the SIMD paths against the scalar oracle:
// identical per-row accumulation order, but the SIMD lanes use explicit FMA
// (and the panel kernel a different association for reductions), so results
// differ by round-off only.
constexpr double kEps = 1e-13;

void expect_near_rel(const std::vector<double>& got, const std::vector<double>& want,
                     double eps, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double scale = std::max(1.0, std::abs(want[i]));
    EXPECT_NEAR(got[i], want[i], eps * scale) << what << " index " << i;
  }
}

const std::map<ent::ServerRole, av::AggregatedRates>& rates() {
  static const auto r = [] {
    std::map<ent::ServerRole, av::AggregatedRates> out;
    for (const auto& [role, spec] : ent::paper_server_specs()) {
      out.emplace(role, av::aggregate_server(spec));
    }
    return out;
  }();
  return r;
}

/// Upper-layer generator of a paper design (the matrix the uniformization
/// hot path actually sweeps).
la::CsrMatrix paper_generator(const ent::RedundancyDesign& design) {
  const av::NetworkSrn net = av::build_network_srn(design, rates());
  const auto graph = patchsec::petri::build_reachability_graph(net.model);
  return graph.chain.generator();
}

/// Seeded random CSR with a given per-row density profile; `dense_row` and
/// `empty_row` force the ragged edge cases the SELL padding must absorb.
la::CsrMatrix random_csr(std::size_t n, double density, std::uint32_t seed,
                         bool dense_row = false, bool empty_row = false) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> value(-2.0, 2.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<la::Triplet> entries;
  for (std::size_t r = 0; r < n; ++r) {
    if (empty_row && r == n / 2) continue;
    const bool dense = dense_row && r == n / 3;
    for (std::size_t c = 0; c < n; ++c) {
      if (dense || coin(rng) < density) entries.push_back({r, c, value(rng)});
    }
  }
  return la::CsrMatrix(n, n, std::move(entries));
}

std::vector<double> random_vector(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> value(-1.0, 1.0);
  std::vector<double> x(n);
  for (double& v : x) v = value(rng);
  return x;
}

void expect_kernel_matches_oracle(const la::CsrMatrix& a, std::uint32_t seed) {
  la::SpmvKernel kernel;
  kernel.compile(a);
  EXPECT_GE(kernel.padding_ratio(), 1.0);
  const std::vector<double> x = random_vector(a.rows(), seed);
  std::vector<double> want;
  std::vector<double> got;
  a.left_multiply(x, want);
  kernel.left_multiply(x, got);
  expect_near_rel(got, want, kEps, "kernel vs CsrMatrix::left_multiply");
}

ct::Ctmc up_down(double l, double mu) {
  ct::Ctmc c;
  c.add_states(2);
  c.add_transition(0, 1, l);
  c.add_transition(1, 0, mu);
  return c;
}

/// A birth-death chain big enough that the SIMD lanes and the panel all see
/// multiple chunks.
ct::Ctmc birth_death(std::size_t n, double up, double down) {
  ct::Ctmc c;
  c.add_states(n);
  for (std::size_t s = 0; s + 1 < n; ++s) {
    c.add_transition(s, s + 1, up * static_cast<double>(n - s));
    c.add_transition(s + 1, s, down * static_cast<double>(s + 1));
  }
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Scalar-oracle agreement
// ---------------------------------------------------------------------------

TEST(SpmvKernel, MatchesOracleOnPaperNets) {
  expect_kernel_matches_oracle(paper_generator(ent::example_network_design()), 11);
  expect_kernel_matches_oracle(paper_generator(ent::RedundancyDesign{{1, 1, 1, 1}}), 12);
  expect_kernel_matches_oracle(paper_generator(ent::RedundancyDesign{{1, 1, 2, 1}}), 13);
  expect_kernel_matches_oracle(paper_generator(ent::RedundancyDesign{{2, 2, 2, 2}}), 14);
}

TEST(SpmvKernel, MatchesOracleOnSeededRandomMatrices) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    expect_kernel_matches_oracle(random_csr(64 + seed * 7, 0.08, seed), seed * 100);
  }
}

TEST(SpmvKernel, HandlesEmptyAndDenseRows) {
  expect_kernel_matches_oracle(random_csr(50, 0.1, 42, /*dense_row=*/true), 1);
  expect_kernel_matches_oracle(random_csr(50, 0.1, 43, false, /*empty_row=*/true), 2);
  expect_kernel_matches_oracle(random_csr(50, 0.1, 44, true, true), 3);
}

TEST(SpmvKernel, OneStateMatrix) {
  la::CsrMatrix a(1, 1, {{0, 0, 0.5}});
  la::SpmvKernel kernel;
  kernel.compile(a);
  std::vector<double> y;
  kernel.left_multiply({3.0}, y);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_DOUBLE_EQ(y[0], 1.5);
}

TEST(SpmvKernel, NonSquareShapes) {
  // 3x9 and 9x3: the transpose/SELL bookkeeping must keep the two extents
  // straight (x spans rows, y spans cols).
  for (std::uint32_t seed : {7u, 8u}) {
    const std::size_t rows = seed == 7 ? 3 : 9;
    const std::size_t cols = seed == 7 ? 9 : 3;
    std::vector<la::Triplet> entries;
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> value(0.5, 1.5);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = r % 2; c < cols; c += 2) entries.push_back({r, c, value(rng)});
    }
    const la::CsrMatrix a(rows, cols, std::move(entries));
    la::SpmvKernel kernel;
    kernel.compile(a);
    const std::vector<double> x = random_vector(rows, seed);
    std::vector<double> want;
    std::vector<double> got;
    a.left_multiply(x, want);
    kernel.left_multiply(x, got);
    expect_near_rel(got, want, kEps, "non-square");
  }
}

TEST(SpmvKernel, SparseVariantOfCsrMatrixMatchesDense) {
  const la::CsrMatrix a = random_csr(40, 0.15, 77);
  std::vector<double> x = random_vector(40, 78);
  for (std::size_t i = 0; i < x.size(); i += 3) x[i] = 0.0;  // sparse-ish input
  std::vector<double> dense;
  std::vector<double> sparse;
  a.left_multiply(x, dense);
  a.left_multiply_sparse(x, sparse);
  ASSERT_EQ(dense.size(), sparse.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_DOUBLE_EQ(dense[i], sparse[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// Fused step semantics
// ---------------------------------------------------------------------------

TEST(SpmvKernel, FusedStepMatchesUnfusedPieces) {
  const la::CsrMatrix a = random_csr(60, 0.1, 5);
  la::SpmvKernel kernel;
  kernel.compile(a);
  const std::vector<double> x = random_vector(60, 6);
  const std::vector<double> r = random_vector(60, 7);
  std::vector<double> accum = random_vector(60, 8);
  std::vector<double> accum_ref = accum;
  const double weight = 0.37;

  std::vector<double> y(60);
  const double dot = kernel.step(x.data(), y.data(), weight, accum.data(), r.data());

  std::vector<double> y_ref;
  a.left_multiply(x, y_ref);
  double dot_ref = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    accum_ref[i] += weight * x[i];
    dot_ref += x[i] * r[i];
  }
  expect_near_rel(y, y_ref, kEps, "fused matvec");
  expect_near_rel(accum, accum_ref, kEps, "fused accumulate");
  EXPECT_NEAR(dot, dot_ref, kEps * std::max(1.0, std::abs(dot_ref)));

  // reduce() = the same step without the matvec; weight 0 must leave accum
  // bitwise untouched (the below-window terms of the expansion).
  std::vector<double> accum2 = accum;
  const double dot2 = kernel.reduce(x.data(), 0.0, accum2.data(), r.data());
  EXPECT_DOUBLE_EQ(dot2, dot);
  for (std::size_t i = 0; i < accum.size(); ++i) EXPECT_EQ(accum2[i], accum[i]) << i;
}

TEST(SpmvKernel, FusedStepNullArguments) {
  const la::CsrMatrix a = random_csr(30, 0.2, 9);
  la::SpmvKernel kernel;
  kernel.compile(a);
  const std::vector<double> x = random_vector(30, 10);
  std::vector<double> y(30);
  // No accumulator, no rewards: plain matvec, dot contract returns 0.
  EXPECT_DOUBLE_EQ(kernel.step(x.data(), y.data(), 0.5, nullptr, nullptr), 0.0);
  std::vector<double> want;
  a.left_multiply(x, want);
  expect_near_rel(y, want, kEps, "step without fusion arguments");
}

// ---------------------------------------------------------------------------
// Multi-RHS panel
// ---------------------------------------------------------------------------

TEST(SpmvKernel, PanelMatchesSequentialSingleVector) {
  const la::CsrMatrix a = random_csr(70, 0.1, 21);
  la::SpmvKernel kernel;
  kernel.compile(a);
  for (std::size_t m : {1u, 2u, 3u, 4u, 7u, 8u, 9u, 16u}) {
    std::vector<double> panel(70 * m);
    std::vector<std::vector<double>> columns(m);
    for (std::size_t b = 0; b < m; ++b) {
      columns[b] = random_vector(70, static_cast<std::uint32_t>(300 + m * 10 + b));
      for (std::size_t s = 0; s < 70; ++s) panel[s * m + b] = columns[b][s];
    }
    std::vector<double> panel_out(70 * m);
    kernel.left_multiply_panel(panel.data(), panel_out.data(), m);
    for (std::size_t b = 0; b < m; ++b) {
      std::vector<double> want;
      kernel.left_multiply(columns[b], want);
      std::vector<double> got(70);
      for (std::size_t s = 0; s < 70; ++s) got[s] = panel_out[s * m + b];
      expect_near_rel(got, want, kEps, "panel column vs single-vector");
    }
  }
}

TEST(SpmvKernel, FusedPanelStepMatchesUnfusedPieces) {
  const la::CsrMatrix a = random_csr(40, 0.15, 31);
  la::SpmvKernel kernel;
  kernel.compile(a);
  const std::size_t m = 5;
  const std::vector<double> x = random_vector(40 * m, 32);
  const std::vector<double> r = random_vector(40, 33);
  std::vector<double> accum(40 * m, 0.25);
  std::vector<double> accum_ref = accum;
  std::vector<double> dots(m);
  std::vector<double> y(40 * m);
  const double weight = 0.61;
  kernel.step_panel(x.data(), y.data(), m, weight, accum.data(), r.data(), dots.data());

  std::vector<double> y_ref(40 * m);
  kernel.left_multiply_panel(x.data(), y_ref.data(), m);
  std::vector<double> dots_ref(m, 0.0);
  for (std::size_t s = 0; s < 40; ++s) {
    for (std::size_t b = 0; b < m; ++b) {
      accum_ref[s * m + b] += weight * x[s * m + b];
      dots_ref[b] += x[s * m + b] * r[s];
    }
  }
  expect_near_rel(y, y_ref, kEps, "fused panel matvec");
  expect_near_rel(accum, accum_ref, kEps, "fused panel accumulate");
  expect_near_rel(dots, dots_ref, kEps, "fused panel dots");
}

// ---------------------------------------------------------------------------
// Structure-reuse contract
// ---------------------------------------------------------------------------

TEST(SpmvKernel, StructureReuseRefreshesValuesWithoutRebuild) {
  la::CsrMatrix a = random_csr(48, 0.12, 51);
  la::SpmvKernel kernel;
  kernel.compile(a);
  EXPECT_EQ(kernel.structure_builds(), 1u);
  EXPECT_EQ(kernel.structure_reuses(), 0u);

  // Same sparsity, scaled values: the refresh path must serve it — and the
  // refreshed kernel must compute with the NEW values.
  std::vector<double> scaled = a.values();
  for (double& v : scaled) v *= 3.0;
  const la::CsrMatrix b = la::CsrMatrix::from_sorted(
      a.rows(), a.cols(), a.row_offsets(), a.col_indices(), std::move(scaled));
  kernel.compile(b);
  EXPECT_EQ(kernel.structure_builds(), 1u);
  EXPECT_EQ(kernel.structure_reuses(), 1u);

  const std::vector<double> x = random_vector(48, 52);
  std::vector<double> want;
  std::vector<double> got;
  b.left_multiply(x, want);
  kernel.left_multiply(x, got);
  expect_near_rel(got, want, kEps, "refreshed values");

  // A different sparsity pattern forces a rebuild.
  kernel.compile(random_csr(48, 0.2, 53));
  EXPECT_EQ(kernel.structure_builds(), 2u);
  EXPECT_EQ(kernel.structure_reuses(), 1u);
}

TEST(SpmvKernel, ErrorsOnMisuse) {
  la::SpmvKernel kernel;
  std::vector<double> y;
  EXPECT_THROW(kernel.left_multiply({1.0}, y), std::logic_error);
  EXPECT_THROW(kernel.compile(la::CsrMatrix()), std::invalid_argument);
  kernel.compile(random_csr(10, 0.3, 61));
  EXPECT_THROW(kernel.left_multiply(std::vector<double>(9, 0.0), y), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// TransientSolver integration: the kernel paths vs the scalar reference
// (transient_oracle.hpp: plain CsrMatrix uniformization, no SIMD)
// ---------------------------------------------------------------------------

namespace {

/// r . pi(t_j) per grid point and the accumulated reward over [0, t_back],
/// both from the scalar reference.
std::pair<std::vector<double>, double> scalar_reference_curve(const ct::Ctmc& chain,
                                                             const std::vector<double>& initial,
                                                             const std::vector<double>& rewards,
                                                             const std::vector<double>& grid) {
  std::vector<double> curve;
  for (const double t : grid) {
    curve.push_back(la::dot(transient_oracle::naive_transient(chain, initial, t), rewards));
  }
  std::vector<double> occupancy;
  (void)transient_oracle::naive_transient(chain, initial, grid.back(), 1e-12, &occupancy);
  return {curve, la::dot(occupancy, rewards)};
}

}  // namespace

TEST(SpmvKernelTransient, AutoKernelMatchesScalarReference) {
  for (const ct::Ctmc& chain : {up_down(0.8, 2.5), birth_death(53, 0.4, 1.1)}) {
    const std::size_t n = chain.state_count();
    std::vector<double> initial(n, 0.0);
    initial[0] = 1.0;
    std::vector<double> rewards(n);
    for (std::size_t s = 0; s < n; ++s) rewards[s] = static_cast<double>(s) / double(n);
    const std::vector<double> grid{0.1, 0.5, 1.0, 2.0, 5.0};

    ct::TransientSolver solver;
    solver.prepare(chain);
    std::vector<double> curve;
    const double acc = solver.reward_curve(initial, rewards, grid, curve);
    EXPECT_EQ(solver.diagnostics().kernel, la::spmv_isa_name(la::spmv_dispatched_isa()));
    EXPECT_EQ(solver.diagnostics().rhs_count, 1u);

    const auto [scalar_curve, scalar_acc] = scalar_reference_curve(chain, initial, rewards, grid);
    expect_near_rel(curve, scalar_curve, 1e-11, "kernel vs scalar reference curve");
    EXPECT_NEAR(acc, scalar_acc, 1e-11 * std::max(1.0, std::abs(scalar_acc)));

    // Distributions agree too: an indicator reward reads off each pi_s(t).
    std::vector<double> pi(n);
    std::vector<double> indicator(n, 0.0);
    std::vector<double> point;
    for (std::size_t s = 0; s < n; ++s) {
      indicator[s] = 1.0;
      (void)solver.reward_curve(initial, indicator, {1.7}, point);
      pi[s] = point[0];
      indicator[s] = 0.0;
    }
    expect_near_rel(pi, transient_oracle::naive_transient(chain, initial, 1.7), 1e-11,
                    "kernel vs scalar reference distribution");
  }
}

TEST(SpmvKernelTransient, PanelCurveMatchesSequentialCurves) {
  const ct::Ctmc chain = birth_death(41, 0.6, 1.4);
  const std::size_t n = chain.state_count();
  std::vector<double> rewards(n);
  for (std::size_t s = 0; s < n; ++s) rewards[s] = 1.0 - static_cast<double>(s) / double(n);
  const std::vector<double> grid{0.25, 0.5, 1.0, 3.0};
  const std::size_t m = 6;
  std::vector<std::vector<double>> initials(m, std::vector<double>(n, 0.0));
  for (std::size_t b = 0; b < m; ++b) initials[b][b * 5 % n] = 1.0;

  ct::TransientSolver solver;
  solver.prepare(chain);
  std::vector<std::vector<double>> curves;
  const std::vector<double> accs = solver.reward_curve_multi(initials, rewards, grid, curves);
  ASSERT_EQ(curves.size(), m);
  ASSERT_EQ(accs.size(), m);
  EXPECT_EQ(solver.diagnostics().rhs_count, m);

  // A panel of width m costs ONE sweep per expansion term.
  const std::size_t panel_sweeps = solver.diagnostics().matvec_count;

  for (std::size_t b = 0; b < m; ++b) {
    ct::TransientSolver reference;
    reference.prepare(chain);
    std::vector<double> curve;
    const double acc = reference.reward_curve(initials[b], rewards, grid, curve);
    expect_near_rel(curves[b], curve, 1e-11, "panel column vs sequential curve");
    EXPECT_NEAR(accs[b], acc, 1e-11 * std::max(1.0, std::abs(acc)));
    // Window sizes are column-independent (same chain, same grid), so each
    // sequential solve alone sweeps as often as the whole panel did.
    EXPECT_EQ(reference.diagnostics().matvec_count, panel_sweeps);
  }
}

TEST(SpmvKernelTransient, PanelMatchesScalarReference) {
  const ct::Ctmc chain = birth_death(23, 0.9, 1.7);
  const std::size_t n = chain.state_count();
  std::vector<double> rewards(n, 1.0);
  rewards[0] = 0.0;
  const std::vector<double> grid{0.5, 2.0};
  std::vector<std::vector<double>> initials(3, std::vector<double>(n, 0.0));
  for (std::size_t b = 0; b < 3; ++b) initials[b][b] = 1.0;

  ct::TransientSolver solver;
  solver.prepare(chain);
  std::vector<std::vector<double>> curves;
  const auto accs = solver.reward_curve_multi(initials, rewards, grid, curves);
  EXPECT_EQ(solver.diagnostics().rhs_count, 3u);

  for (std::size_t b = 0; b < 3; ++b) {
    const auto [scalar_curve, scalar_acc] =
        scalar_reference_curve(chain, initials[b], rewards, grid);
    expect_near_rel(curves[b], scalar_curve, 1e-11, "panel vs scalar reference");
    EXPECT_NEAR(accs[b], scalar_acc, 1e-11 * std::max(1.0, std::abs(scalar_acc)));
  }
}

TEST(SpmvKernelTransient, PanelColumnIsBitIdenticalToWidthOnePanel) {
  // Every panel column's arithmetic (sweep, reward dot, window weighting) is
  // independent of the panel width, including widths that leave a partial
  // SIMD block — so a column must match its initial solved alone, bitwise.
  const ct::Ctmc chain = birth_death(37, 0.5, 1.2);
  const std::size_t n = chain.state_count();
  std::vector<double> rewards(n);
  for (std::size_t s = 0; s < n; ++s) rewards[s] = std::sin(static_cast<double>(s));
  const std::vector<double> grid{0.2, 0.9, 0.9, 2.5};
  ct::TransientSolver solver;
  solver.prepare(chain);
  for (std::size_t m : {1u, 3u, 8u, 11u}) {
    std::vector<std::vector<double>> initials(m, std::vector<double>(n, 0.0));
    for (std::size_t b = 0; b < m; ++b) initials[b][(b * 11) % n] = 1.0;
    std::vector<std::vector<double>> curves;
    const std::vector<double> accs = solver.reward_curve_multi(initials, rewards, grid, curves);
    for (std::size_t b = 0; b < m; ++b) {
      std::vector<std::vector<double>> solo;
      const std::vector<double> solo_acc =
          solver.reward_curve_multi({initials[b]}, rewards, grid, solo);
      ASSERT_EQ(curves[b], solo.front()) << "m=" << m << " column " << b;  // bitwise
      ASSERT_EQ(accs[b], solo_acc.front()) << "m=" << m << " column " << b;
    }
  }
}

TEST(SpmvKernelTransient, SolverReusesKernelAcrossValueRefresh) {
  ct::TransientSolver solver;
  EXPECT_EQ(solver.kernel_structure_builds(), 0u);  // lazy: nothing yet
  solver.prepare(up_down(0.5, 2.0));
  EXPECT_EQ(solver.kernel_structure_builds(), 0u);  // still lazy after prepare
  std::vector<double> out;
  (void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {1.0}, out);
  EXPECT_EQ(solver.kernel_structure_builds(), 1u);
  // Same structure, new rates: the solver refresh must carry the kernel's
  // value-refresh along (one layout build total).
  solver.prepare(up_down(0.7, 1.5));
  (void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {1.0}, out);
  EXPECT_EQ(solver.structure_builds(), 1u);
  EXPECT_EQ(solver.structure_reuses(), 1u);
  EXPECT_EQ(solver.kernel_structure_builds(), 1u);
  EXPECT_EQ(solver.kernel_structure_reuses(), 1u);
}
