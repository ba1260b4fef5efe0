// Tests for the SIMD sparse-kernel layer (linalg::SpmvKernel) and its
// TransientSolver integration: scalar-oracle agreement (CsrMatrix::
// left_multiply is the reference, per docs/ARCHITECTURE.md §12) on paper
// nets and seeded random matrices at panel widths 1 and > 1, the fused
// reward dots, panel-vs-width-1 equivalence, the structure-reuse contract,
// and panel-column bit-identity across panel widths (a single curve is the
// width-1 panel).

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
/// `empty_row` force the ragged rows of the transpose.
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

void compile(la::SpmvKernel& kernel, const la::CsrMatrix& a) {
  kernel.compile(a.rows(), a.cols(), a.row_offsets(), a.col_indices(), a.values());
}

/// m seeded random columns interleaved into a column-major panel (element
/// (b, s) at panel[s*m + b]).
std::pair<std::vector<double>, std::vector<std::vector<double>>> random_panel(
    std::size_t n, std::size_t m, std::uint32_t seed) {
  std::vector<double> panel(n * m);
  std::vector<std::vector<double>> columns(m);
  for (std::size_t b = 0; b < m; ++b) {
    columns[b] = random_vector(n, static_cast<std::uint32_t>(seed + b));
    for (std::size_t s = 0; s < n; ++s) panel[s * m + b] = columns[b][s];
  }
  return {panel, columns};
}

std::vector<double> panel_column(const std::vector<double>& panel, std::size_t m, std::size_t b) {
  std::vector<double> column(panel.size() / m);
  for (std::size_t s = 0; s < column.size(); ++s) column[s] = panel[s * m + b];
  return column;
}

/// The plain product (step_panel with null r/dots) at m = 1 and m = 5,
/// every column against CsrMatrix::left_multiply.
void expect_kernel_matches_oracle(const la::CsrMatrix& a, std::uint32_t seed) {
  la::SpmvKernel kernel;
  compile(kernel, a);
  const std::size_t n = a.rows();
  for (std::size_t m : {1u, 5u}) {
    const auto [x, columns] = random_panel(n, m, seed);
    std::vector<double> y(n * m);
    kernel.step_panel(x.data(), y.data(), m, nullptr, nullptr);
    for (std::size_t b = 0; b < m; ++b) {
      std::vector<double> want;
      a.left_multiply(columns[b], want);
      expect_near_rel(panel_column(y, m, b), want, kEps, "kernel vs CsrMatrix::left_multiply");
    }
  }
}

ct::Ctmc up_down(double l, double mu) { return ct::Ctmc(2, {{0, 1, l}, {1, 0, mu}}); }

/// A birth-death chain wider than one SIMD block of the panel.
ct::Ctmc birth_death(std::size_t n, double up, double down) {
  std::vector<ct::RateTransition> transitions;
  for (std::size_t s = 0; s + 1 < n; ++s) {
    transitions.push_back({s, s + 1, up * static_cast<double>(n - s)});
    transitions.push_back({s + 1, s, down * static_cast<double>(s + 1)});
  }
  return ct::Ctmc(n, transitions);
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
  la::SpmvKernel kernel;
  compile(kernel, la::CsrMatrix(1, 1, {{0, 0, 0.5}}));
  const double x = 3.0;
  double y = 0.0;
  kernel.step_panel(&x, &y, 1, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(y, 1.5);
}

// ---------------------------------------------------------------------------
// Fused reward dots and the multi-RHS panel
// ---------------------------------------------------------------------------

TEST(SpmvKernel, StepPanelDotsMatchSequentialDot) {
  const la::CsrMatrix a = random_csr(60, 0.1, 5);
  la::SpmvKernel kernel;
  compile(kernel, a);
  const std::vector<double> r = random_vector(60, 7);
  for (std::size_t m : {1u, 5u}) {
    const auto [x, columns] = random_panel(60, m, 6);
    std::vector<double> y(60 * m);
    std::vector<double> dots(m, -1.0);  // overwritten, not accumulated
    kernel.step_panel(x.data(), y.data(), m, r.data(), dots.data());
    std::vector<double> reduced(m, -1.0);
    kernel.reduce_panel(x.data(), m, r.data(), reduced.data());
    for (std::size_t b = 0; b < m; ++b) {
      std::vector<double> y_ref;
      a.left_multiply(columns[b], y_ref);
      expect_near_rel(panel_column(y, m, b), y_ref, kEps, "fused matvec");
      double dot_ref = 0.0;
      for (std::size_t i = 0; i < 60; ++i) dot_ref += columns[b][i] * r[i];
      EXPECT_NEAR(dots[b], dot_ref, kEps * std::max(1.0, std::abs(dot_ref))) << "m=" << m;
      // reduce_panel() = the same dots without the matvec.
      EXPECT_NEAR(reduced[b], dots[b], kEps * std::max(1.0, std::abs(dot_ref))) << "m=" << m;
    }
  }
}

TEST(SpmvKernel, PanelMatchesSequentialSingleVector) {
  const la::CsrMatrix a = random_csr(70, 0.1, 21);
  la::SpmvKernel kernel;
  compile(kernel, a);
  for (std::size_t m : {1u, 2u, 3u, 4u, 7u, 8u, 9u, 16u}) {
    const auto [panel, columns] = random_panel(70, m, static_cast<std::uint32_t>(300 + m * 10));
    std::vector<double> panel_out(70 * m);
    kernel.step_panel(panel.data(), panel_out.data(), m, nullptr, nullptr);
    for (std::size_t b = 0; b < m; ++b) {
      std::vector<double> want(70);
      kernel.step_panel(columns[b].data(), want.data(), 1, nullptr, nullptr);
      expect_near_rel(panel_column(panel_out, m, b), want, kEps, "panel column vs width 1");
    }
  }
}

TEST(SpmvKernel, FusedPanelStepMatchesUnfusedPieces) {
  const la::CsrMatrix a = random_csr(40, 0.15, 31);
  la::SpmvKernel kernel;
  compile(kernel, a);
  const std::size_t m = 5;
  const std::vector<double> x = random_vector(40 * m, 32);
  const std::vector<double> r = random_vector(40, 33);
  std::vector<double> dots(m);
  std::vector<double> y(40 * m);
  kernel.step_panel(x.data(), y.data(), m, r.data(), dots.data());

  std::vector<double> y_ref(40 * m);
  kernel.step_panel(x.data(), y_ref.data(), m, nullptr, nullptr);
  std::vector<double> dots_ref(m, 0.0);
  for (std::size_t s = 0; s < 40; ++s) {
    for (std::size_t b = 0; b < m; ++b) dots_ref[b] += x[s * m + b] * r[s];
  }
  expect_near_rel(y, y_ref, kEps, "fused panel matvec");
  expect_near_rel(dots, dots_ref, kEps, "fused panel dots");
}

// ---------------------------------------------------------------------------
// Structure-reuse contract
// ---------------------------------------------------------------------------

TEST(SpmvKernel, StructureReuseRefreshesValuesWithoutRebuild) {
  la::CsrMatrix a = random_csr(48, 0.12, 51);
  la::SpmvKernel kernel;
  compile(kernel, a);
  EXPECT_EQ(kernel.structure_builds(), 1u);
  EXPECT_EQ(kernel.structure_reuses(), 0u);

  // Same sparsity, scaled values: the refresh path must serve it — and the
  // refreshed kernel must compute with the NEW values.
  std::vector<double> scaled = a.values();
  for (double& v : scaled) v *= 3.0;
  const la::CsrMatrix b = la::CsrMatrix::from_sorted(
      a.rows(), a.cols(), a.row_offsets(), a.col_indices(), std::move(scaled));
  compile(kernel, b);
  EXPECT_EQ(kernel.structure_builds(), 1u);
  EXPECT_EQ(kernel.structure_reuses(), 1u);

  const std::vector<double> x = random_vector(48, 52);
  std::vector<double> want;
  std::vector<double> got(48);
  b.left_multiply(x, want);
  kernel.step_panel(x.data(), got.data(), 1, nullptr, nullptr);
  expect_near_rel(got, want, kEps, "refreshed values");

  // A different sparsity pattern forces a rebuild.
  compile(kernel, random_csr(48, 0.2, 53));
  EXPECT_EQ(kernel.structure_builds(), 2u);
  EXPECT_EQ(kernel.structure_reuses(), 1u);
}

TEST(SpmvKernel, ErrorsOnMisuse) {
  la::SpmvKernel kernel;
  const double x = 1.0;
  double y = 0.0;
  EXPECT_THROW(kernel.step_panel(&x, &y, 1, nullptr, nullptr), std::logic_error);
  EXPECT_THROW(compile(kernel, la::CsrMatrix()), std::invalid_argument);
  // The layout serves the square uniformized matrix only.
  EXPECT_THROW(compile(kernel, la::CsrMatrix(3, 9, {{0, 4, 1.0}, {2, 8, 0.5}})),
               std::invalid_argument);
  EXPECT_THROW(compile(kernel, la::CsrMatrix(9, 3, {{4, 0, 1.0}, {8, 2, 0.5}})),
               std::invalid_argument);
  EXPECT_FALSE(kernel.compiled());
  compile(kernel, random_csr(10, 0.3, 61));
  EXPECT_THROW(kernel.step_panel(&x, &y, 0, nullptr, nullptr), std::invalid_argument);
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

TEST(SpmvKernelTransient, SingleCurveIsColumnZeroOfThePanelOnPaperNets) {
  // reward_curve runs the width-1 panel, so it must equal the first column
  // of a wider panel bit for bit (curve and accumulated reward).
  for (const ent::RedundancyDesign& design :
       {ent::example_network_design(), ent::RedundancyDesign{{1, 1, 1, 1}},
        ent::RedundancyDesign{{1, 1, 2, 1}}, ent::RedundancyDesign{{2, 2, 2, 2}}}) {
    const av::NetworkSrn net = av::build_network_srn(design, rates());
    const auto graph = patchsec::petri::build_reachability_graph(net.model);
    const std::size_t n = graph.tangible_count();
    std::vector<double> rewards;
    for (const auto& marking : graph.tangible_markings) rewards.push_back(net.coa_reward()(marking));
    std::vector<std::vector<double>> initials(3, std::vector<double>(n, 0.0));
    initials[0][0] = 1.0;
    initials[1][n / 2] = 1.0;
    initials[2][n - 1] = 1.0;
    const std::vector<double> grid{0.5, 4.0, 24.0, 96.0};

    ct::TransientSolver solver;
    solver.prepare(graph.chain);
    std::vector<std::vector<double>> curves;
    const std::vector<double> accs = solver.reward_curve_multi(initials, rewards, grid, curves);
    std::vector<double> curve;
    const double acc = solver.reward_curve(initials[0], rewards, grid, curve);
    ASSERT_EQ(curve, curves[0]) << "n=" << n;  // bitwise
    ASSERT_EQ(acc, accs[0]) << "n=" << n;
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
