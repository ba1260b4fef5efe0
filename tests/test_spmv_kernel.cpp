// Tests for the SIMD sparse-kernel layer (linalg::SpmvKernel) and its
// TransientSolver integration: scalar-oracle agreement (CsrMatrix::
// left_multiply is the reference, per docs/ARCHITECTURE.md §12) on paper
// nets and seeded random matrices for every kernel variant the host runs,
// the fused reward dots, zero-padded columns, the structure-reuse contract,
// AVX2-vs-AVX-512 bit-identity, panel-column bit-identity across batch
// widths (a single curve is column 0 of a padded panel), and bit pins of the
// kernel and of the transient path.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bit_hash.hpp"
#include "patchsec/avail/aggregation.hpp"
#include "patchsec/avail/network_srn.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/ctmc/transient_solver.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/linalg/spmv_kernel.hpp"
#include "patchsec/petri/reachability.hpp"
#include "transient_oracle.hpp"

namespace av = patchsec::avail;
namespace core = patchsec::core;
namespace ct = patchsec::ctmc;
namespace ent = patchsec::enterprise;
namespace la = patchsec::linalg;

namespace {

constexpr std::size_t kW = la::kPanelWidth;

// Documented agreement bound of every kernel variant against the scalar
// oracle: identical per-row accumulation order, but the SIMD lanes use
// explicit FMA (and the panel kernel a different association for
// reductions), so results differ by round-off only.
constexpr double kEps = 1e-13;

void expect_near_rel(const std::vector<double>& got, const std::vector<double>& want,
                     double eps, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double scale = std::max(1.0, std::abs(want[i]));
    EXPECT_NEAR(got[i], want[i], eps * scale) << what << " index " << i;
  }
}

/// Every kernel variant this host can run, lowest first.
std::vector<la::SpmvIsa> host_isas() {
  std::vector<la::SpmvIsa> isas;
  for (const la::SpmvIsa isa : {la::SpmvIsa::kScalar, la::SpmvIsa::kAvx2, la::SpmvIsa::kAvx512}) {
    if (isa <= la::spmv_dispatched_isa()) isas.push_back(isa);
  }
  return isas;
}

/// The variants with FMA lanes (the ones the bit pins hold for).
std::vector<la::SpmvIsa> host_fma_isas() {
  std::vector<la::SpmvIsa> isas = host_isas();
  isas.erase(isas.begin());  // kScalar
  return isas;
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

/// m <= 8 columns interleaved into one 8-wide panel (element (b, s) at
/// panel[s*8 + b]); columns m..7 are zero.
la::PanelVector to_panel(const std::vector<std::vector<double>>& columns, std::size_t n) {
  la::PanelVector panel(n * kW, 0.0);
  for (std::size_t b = 0; b < columns.size(); ++b) {
    for (std::size_t s = 0; s < n; ++s) panel[s * kW + b] = columns[b][s];
  }
  return panel;
}

/// m seeded random columns and their zero-padded panel.
std::pair<la::PanelVector, std::vector<std::vector<double>>> random_panel(std::size_t n,
                                                                         std::size_t m,
                                                                         std::uint32_t seed) {
  std::vector<std::vector<double>> columns(m);
  for (std::size_t b = 0; b < m; ++b) {
    columns[b] = random_vector(n, static_cast<std::uint32_t>(seed + b));
  }
  return {to_panel(columns, n), columns};
}

std::vector<double> panel_column(const la::PanelVector& panel, std::size_t b) {
  std::vector<double> column(panel.size() / kW);
  for (std::size_t s = 0; s < column.size(); ++s) column[s] = panel[s * kW + b];
  return column;
}

/// The plain product (step_panel with null r/dots) with 1 and 5 real
/// columns, every column against CsrMatrix::left_multiply and every padding
/// column exactly zero, on every host variant.
void expect_kernel_matches_oracle(const la::CsrMatrix& a, std::uint32_t seed) {
  const std::size_t n = a.rows();
  for (const la::SpmvIsa isa : host_isas()) {
    SCOPED_TRACE(la::spmv_isa_name(isa));
    la::SpmvKernel kernel(isa);
    compile(kernel, a);
    for (std::size_t m : {1u, 5u}) {
      const auto [x, columns] = random_panel(n, m, seed);
      la::PanelVector y(n * kW);
      kernel.step_panel(x.data(), y.data(), nullptr, nullptr);
      for (std::size_t b = 0; b < kW; ++b) {
        std::vector<double> want(n, 0.0);
        if (b < m) a.left_multiply(columns[b], want);
        expect_near_rel(panel_column(y, b), want, b < m ? kEps : 0.0,
                        "kernel vs CsrMatrix::left_multiply");
      }
    }
  }
}

ct::Ctmc up_down(double l, double mu) { return ct::Ctmc(2, {{0, 1, l}, {1, 0, mu}}); }

/// A birth-death chain wider than one panel row.
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
  for (const la::SpmvIsa isa : host_isas()) {
    la::SpmvKernel kernel(isa);
    compile(kernel, la::CsrMatrix(1, 1, {{0, 0, 0.5}}));
    la::PanelVector x(kW, 0.0);
    x[0] = 3.0;
    la::PanelVector y(kW, -1.0);
    kernel.step_panel(x.data(), y.data(), nullptr, nullptr);
    EXPECT_DOUBLE_EQ(y[0], 1.5) << la::spmv_isa_name(isa);
    for (std::size_t b = 1; b < kW; ++b) EXPECT_EQ(y[b], 0.0) << la::spmv_isa_name(isa);
  }
}

// ---------------------------------------------------------------------------
// Fused reward dots and the panel
// ---------------------------------------------------------------------------

TEST(SpmvKernel, StepPanelDotsMatchSequentialDot) {
  const la::CsrMatrix a = random_csr(60, 0.1, 5);
  const std::vector<double> r = random_vector(60, 7);
  for (const la::SpmvIsa isa : host_isas()) {
    SCOPED_TRACE(la::spmv_isa_name(isa));
    la::SpmvKernel kernel(isa);
    compile(kernel, a);
    for (std::size_t m : {1u, 5u, 8u}) {
      const auto [x, columns] = random_panel(60, m, 6);
      la::PanelVector y(60 * kW);
      std::vector<double> dots(kW, -1.0);  // overwritten, not accumulated
      kernel.step_panel(x.data(), y.data(), r.data(), dots.data());
      std::vector<double> reduced(kW, -1.0);
      kernel.reduce_panel(x.data(), r.data(), reduced.data());
      for (std::size_t b = 0; b < kW; ++b) {
        if (b >= m) {  // a zero padding column has a zero dot
          EXPECT_EQ(dots[b], 0.0);
          EXPECT_EQ(reduced[b], 0.0);
          continue;
        }
        std::vector<double> y_ref;
        a.left_multiply(columns[b], y_ref);
        expect_near_rel(panel_column(y, b), y_ref, kEps, "fused matvec");
        double dot_ref = 0.0;
        for (std::size_t i = 0; i < 60; ++i) dot_ref += columns[b][i] * r[i];
        EXPECT_NEAR(dots[b], dot_ref, kEps * std::max(1.0, std::abs(dot_ref))) << "m=" << m;
        // reduce_panel() = the same dots without the matvec, bit for bit.
        EXPECT_EQ(reduced[b], dots[b]) << "m=" << m;
      }
      // Folding the dots in leaves the product's bits alone.
      la::PanelVector unfused(60 * kW);
      kernel.step_panel(x.data(), unfused.data(), nullptr, nullptr);
      EXPECT_EQ(y, unfused) << "m=" << m;
    }
  }
}

TEST(SpmvKernel, PanelColumnIsBitIdenticalToItsColumnAlone) {
  // Lanes never mix: a column's product and dot do not depend on what the
  // other seven columns hold, on every variant.
  const la::CsrMatrix a = random_csr(70, 0.1, 21);
  const std::vector<double> r = random_vector(70, 22);
  for (const la::SpmvIsa isa : host_isas()) {
    SCOPED_TRACE(la::spmv_isa_name(isa));
    la::SpmvKernel kernel(isa);
    compile(kernel, a);
    const auto [panel, columns] = random_panel(70, kW, 300);
    la::PanelVector panel_out(70 * kW);
    std::vector<double> panel_dots(kW);
    kernel.step_panel(panel.data(), panel_out.data(), r.data(), panel_dots.data());
    for (std::size_t b = 0; b < kW; ++b) {
      la::PanelVector alone(70 * kW, 0.0);
      for (std::size_t s = 0; s < 70; ++s) alone[s * kW + b] = columns[b][s];
      la::PanelVector alone_out(70 * kW);
      std::vector<double> alone_dots(kW);
      kernel.step_panel(alone.data(), alone_out.data(), r.data(), alone_dots.data());
      EXPECT_EQ(panel_column(panel_out, b), panel_column(alone_out, b)) << "column " << b;
      EXPECT_EQ(panel_dots[b], alone_dots[b]) << "column " << b;
    }
  }
}

TEST(SpmvKernel, FmaVariantsAreBitIdentical) {
  // AVX2 runs each lane's FMA chain exactly as AVX-512 does.
  if (la::spmv_dispatched_isa() != la::SpmvIsa::kAvx512) {
    GTEST_SKIP() << "needs an AVX-512 host to compare against AVX2";
  }
  for (const la::CsrMatrix& a :
       {paper_generator(ent::example_network_design()), random_csr(90, 0.1, 71, true, true)}) {
    const std::size_t n = a.rows();
    const std::vector<double> r = random_vector(n, 72);
    const auto [x, columns] = random_panel(n, kW, 73);
    std::vector<la::PanelVector> y;
    std::vector<std::vector<double>> dots;
    std::vector<std::vector<double>> reduced;
    for (const la::SpmvIsa isa : {la::SpmvIsa::kAvx2, la::SpmvIsa::kAvx512}) {
      la::SpmvKernel kernel(isa);
      compile(kernel, a);
      y.emplace_back(n * kW);
      dots.emplace_back(kW);
      reduced.emplace_back(kW);
      kernel.step_panel(x.data(), y.back().data(), r.data(), dots.back().data());
      kernel.reduce_panel(x.data(), r.data(), reduced.back().data());
    }
    EXPECT_EQ(y[0], y[1]);
    EXPECT_EQ(dots[0], dots[1]);
    EXPECT_EQ(reduced[0], reduced[1]);
  }
}

// ---------------------------------------------------------------------------
// Structure-reuse contract and misuse
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
  la::PanelVector got(48 * kW);
  b.left_multiply(x, want);
  kernel.step_panel(to_panel({x}, 48).data(), got.data(), nullptr, nullptr);
  expect_near_rel(panel_column(got, 0), want, kEps, "refreshed values");

  // A different sparsity pattern forces a rebuild.
  compile(kernel, random_csr(48, 0.2, 53));
  EXPECT_EQ(kernel.structure_builds(), 2u);
  EXPECT_EQ(kernel.structure_reuses(), 1u);
}

TEST(SpmvKernel, ErrorsOnMisuse) {
  la::SpmvKernel kernel;
  EXPECT_EQ(kernel.isa(), la::spmv_dispatched_isa());
  la::PanelVector x(kW, 1.0);
  la::PanelVector y(kW, 0.0);
  std::vector<double> r(1, 1.0);
  std::vector<double> dots(kW, 0.0);
  EXPECT_THROW(kernel.step_panel(x.data(), y.data(), nullptr, nullptr), std::logic_error);
  EXPECT_THROW(kernel.reduce_panel(x.data(), r.data(), dots.data()), std::logic_error);
  EXPECT_THROW(compile(kernel, la::CsrMatrix()), std::invalid_argument);
  // The layout serves the square uniformized matrix only.
  EXPECT_THROW(compile(kernel, la::CsrMatrix(3, 9, {{0, 4, 1.0}, {2, 8, 0.5}})),
               std::invalid_argument);
  EXPECT_THROW(compile(kernel, la::CsrMatrix(9, 3, {{4, 0, 1.0}, {8, 2, 0.5}})),
               std::invalid_argument);
  EXPECT_FALSE(kernel.compiled());
  compile(kernel, la::CsrMatrix(1, 1, {{0, 0, 0.5}}));
  // The aligned loads need cache-line panels.
  la::PanelVector wide(2 * kW, 0.0);
  EXPECT_THROW(kernel.step_panel(wide.data() + 1, y.data(), nullptr, nullptr),
               std::invalid_argument);
  EXPECT_THROW(kernel.step_panel(x.data(), wide.data() + 1, nullptr, nullptr),
               std::invalid_argument);
  EXPECT_THROW(kernel.reduce_panel(wide.data() + 1, r.data(), dots.data()),
               std::invalid_argument);
  // The reduction needs both of its operands; the fused step neither or both.
  EXPECT_THROW(kernel.reduce_panel(x.data(), nullptr, dots.data()), std::invalid_argument);
  EXPECT_THROW(kernel.reduce_panel(x.data(), r.data(), nullptr), std::invalid_argument);
  EXPECT_THROW(kernel.step_panel(x.data(), y.data(), r.data(), nullptr), std::invalid_argument);
  kernel.reduce_panel(x.data(), r.data(), dots.data());
  EXPECT_EQ(dots[0], 1.0);
}

TEST(SpmvKernel, VariantsAboveTheHostAreRefused) {
  for (const la::SpmvIsa isa : {la::SpmvIsa::kScalar, la::SpmvIsa::kAvx2, la::SpmvIsa::kAvx512}) {
    if (isa <= la::spmv_dispatched_isa()) {
      EXPECT_EQ(la::SpmvKernel(isa).isa(), isa);
      EXPECT_STREQ(la::SpmvKernel(isa).kernel_name(), la::spmv_isa_name(isa));
    } else {
      EXPECT_THROW(la::SpmvKernel{isa}, std::invalid_argument) << la::spmv_isa_name(isa);
    }
  }
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

TEST(SpmvKernelTransient, WideBatchesRunAsFullWidthPanels) {
  // B initials run as ceil(B/8) zero-padded panels: the sweep count is that
  // many single-panel expansions, and rhs_count records the columns asked
  // for, not the padding.
  const ct::Ctmc chain = birth_death(29, 0.7, 1.3);
  const std::size_t n = chain.state_count();
  const std::vector<double> rewards(n, 1.0);
  const std::vector<double> grid{0.5, 3.0};
  std::vector<double> one(n, 0.0);
  one[0] = 1.0;
  ct::TransientSolver single;
  single.prepare(chain);
  std::vector<double> curve;
  (void)single.reward_curve(one, rewards, grid, curve);
  const std::size_t sweeps = single.diagnostics().matvec_count;
  ASSERT_GT(sweeps, 0u);
  for (std::size_t m : {1u, 5u, 8u, 9u, 16u, 17u}) {
    ct::TransientSolver solver;
    solver.prepare(chain);
    std::vector<std::vector<double>> curves;
    (void)solver.reward_curve_multi(std::vector<std::vector<double>>(m, one), rewards, grid,
                                    curves);
    EXPECT_EQ(solver.diagnostics().matvec_count, sweeps * ((m + kW - 1) / kW)) << "m=" << m;
    EXPECT_EQ(solver.diagnostics().rhs_count, m);
    for (const std::vector<double>& c : curves) EXPECT_EQ(c, curve) << "m=" << m;  // bitwise
  }
}

// ---------------------------------------------------------------------------
// Bit pins.  Captured from the runtime-width kernel this fixed-width one
// replaced, on AVX-512: every FMA variant must keep every bit of the kernel
// and of the transient curves.  The scalar variant rounds a multiply and an
// add separately, so the pins do not hold for it; nor for -march=native
// builds, whose FMA contraction moves the rates' bits upstream.
// ---------------------------------------------------------------------------

namespace {

using Wave = std::map<ent::ServerRole, unsigned>;

constexpr double kPinCadence = 720.0;

/// FNV-1a over every curve value and accumulated reward of a batch.
std::uint64_t hash_reports(const std::vector<core::EvalReport>& reports) {
  patchsec::testing::Fnv1a h;
  for (const core::EvalReport& report : reports) {
    for (const double v : report.transient.coa) h.real(v);
    h.real(report.transient.accumulated_coa_hours);
  }
  return h.value();
}

/// Eight fixed patch waves on the {4,5,6,6} design (the patch_window shape).
std::vector<Wave> patch_window_waves() {
  using R = ent::ServerRole;
  return {{},
          {{R::kDns, 1}},
          {{R::kWeb, 2}},
          {{R::kApp, 3}, {R::kDb, 1}},
          {{R::kDb, 6}},
          {{R::kDns, 4}, {R::kWeb, 5}, {R::kApp, 6}, {R::kDb, 6}},
          {{R::kWeb, 1}, {R::kApp, 1}},
          {{R::kDns, 2}, {R::kDb, 3}}};
}

/// m distinct waves on the {2,2,2,2} design: wave i downs the base-3 digits
/// of (5 i mod 81) on DNS, web, app and DB.
std::vector<Wave> uniform_two_waves(std::size_t m) {
  std::vector<Wave> waves;
  for (std::size_t i = 0; i < m; ++i) {
    std::size_t code = (i * 5) % 81;
    Wave wave;
    for (ent::ServerRole role : {ent::ServerRole::kDns, ent::ServerRole::kWeb,
                                 ent::ServerRole::kApp, ent::ServerRole::kDb}) {
      wave[role] = static_cast<unsigned>(code % 3);
      code /= 3;
    }
    waves.push_back(std::move(wave));
  }
  return waves;
}

/// P = I + Q/Lambda of the {4,5,6,6} network net at the pin cadence
/// (Lambda = 1.02 x the largest exit rate, as TransientSolver takes it).
la::CsrMatrix uniformized_4566() {
  const core::Session session(core::Scenario::paper_case_study());
  const av::NetworkSrn net = av::build_network_srn(ent::RedundancyDesign{{4, 5, 6, 6}},
                                                   session.aggregated_rates(kPinCadence));
  const auto graph = patchsec::petri::build_reachability_graph(net.model);
  const la::CsrMatrix& q = graph.chain.generator();
  double max_exit = 0.0;
  for (std::size_t row = 0; row < q.rows(); ++row) {
    for (std::size_t k = q.row_offsets()[row]; k < q.row_offsets()[row + 1]; ++k) {
      if (q.col_indices()[k] == row) max_exit = std::max(max_exit, -q.values()[k]);
    }
  }
  const double lambda = 1.02 * max_exit;
  std::vector<la::Triplet> entries;
  for (std::size_t row = 0; row < q.rows(); ++row) {
    double diagonal = 1.0;
    for (std::size_t k = q.row_offsets()[row]; k < q.row_offsets()[row + 1]; ++k) {
      const std::size_t col = q.col_indices()[k];
      if (col == row) {
        diagonal += q.values()[k] / lambda;
      } else {
        entries.push_back({row, col, q.values()[k] / lambda});
      }
    }
    entries.push_back({row, row, diagonal});
  }
  return la::CsrMatrix(q.rows(), q.cols(), std::move(entries));
}

/// Why the pins cannot hold on this host or build; empty when they hold.
std::string pin_skip_reason() {
  if (host_fma_isas().empty()) return "scalar kernel: the pins hold for FMA lanes";
#if defined(__FMA__)
  return "FMA contraction may move rate bits; pins hold for portable builds";
#else
  return {};
#endif
}

}  // namespace

TEST(SpmvKernelPin, KernelChainKeepsEveryBit) {
  if (const std::string why = pin_skip_reason(); !why.empty()) GTEST_SKIP() << why;
  // 64 fused steps and a final reduce over 8 delta columns of the
  // uniformized {4,5,6,6} net (1,470 states), hashing every dot and the
  // last iterate, on every FMA variant the host runs.
  const la::CsrMatrix p = uniformized_4566();
  const std::size_t n = p.rows();
  ASSERT_EQ(n, 1470u);
  std::vector<double> r(n);
  for (std::size_t s = 0; s < n; ++s) r[s] = 1.0 / static_cast<double>(1 + s % 7);
  for (const la::SpmvIsa isa : host_fma_isas()) {
    la::SpmvKernel kernel(isa);
    compile(kernel, p);
    la::PanelVector x(n * kW, 0.0);
    la::PanelVector y(n * kW, 0.0);
    for (std::size_t b = 0; b < kW; ++b) x[((b * 181) % n) * kW + b] = 1.0;
    std::vector<double> dots(kW);
    patchsec::testing::Fnv1a h;
    for (int k = 0; k < 64; ++k) {
      kernel.step_panel(x.data(), y.data(), r.data(), dots.data());
      for (const double d : dots) h.real(d);
      x.swap(y);
    }
    kernel.reduce_panel(x.data(), r.data(), dots.data());
    for (const double d : dots) h.real(d);
    for (const double v : x) h.real(v);
    EXPECT_EQ(h.value(), 0x3303cfe74c11f05full) << la::spmv_isa_name(isa);
  }
}

TEST(SpmvKernelPin, PatchWindowBatchKeepsEveryBit) {
  if (const std::string why = pin_skip_reason(); !why.empty()) GTEST_SKIP() << why;
  const core::Session session(core::Scenario::paper_case_study());
  const std::vector<core::EvalReport> reports = session.evaluate_transient_batch(
      ent::RedundancyDesign{{4, 5, 6, 6}}, patch_window_waves(), kPinCadence);
  ASSERT_EQ(reports.size(), 8u);
  EXPECT_EQ(hash_reports(reports), 0x2b0180e1dcde3273ull);
}

TEST(SpmvKernelPin, EveryBatchWidthKeepsEveryBit) {
  if (const std::string why = pin_skip_reason(); !why.empty()) GTEST_SKIP() << why;
  const std::map<std::size_t, std::uint64_t> expected = {
      {1, 0x11b2285273f95ffbull}, {3, 0xf1b4bfe835baba67ull},  {5, 0xc46cbb83bfa36306ull},
      {8, 0x091159e7a49c99a8ull}, {11, 0x9baaabe72e1b7ba6ull}, {16, 0xae0138eeae7bffc9ull}};
  const core::Session session(core::Scenario::paper_case_study());
  for (const auto& [m, hash] : expected) {
    EXPECT_EQ(hash_reports(session.evaluate_transient_batch(
                  ent::RedundancyDesign{{2, 2, 2, 2}}, uniform_two_waves(m), kPinCadence)),
              hash)
        << "width " << m;
  }
}
