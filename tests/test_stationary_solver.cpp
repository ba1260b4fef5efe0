// Solver-equivalence suite for the StationarySolver workspace rewrite.
//
// The old solver (triplet-sort transpose, per-sweep prev copy + normalize,
// kAuto exhausting the full Gauss-Seidel budget before falling back) is kept
// here verbatim as a reference oracle.  The suite asserts the rebuilt path
// produces the same distributions (to 1e-10), the same converged flags, and
// never more iterations than the reference on birth-death oracles, the paper
// case-study SRNs and a randomized generator fuzz set — so neither the
// workspace caching, the in-sweep convergence test nor the kAuto stall
// detection can silently change numerics or degrade convergence.
//
// The paper network nets also pin every bit of a kAuto solve (iterations,
// distribution, residual), so a faster convergence test must keep the
// trajectory exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "patchsec/avail/aggregation.hpp"
#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/server_srn.hpp"
#include "patchsec/core/scenario.hpp"
#include "patchsec/core/session.hpp"
#include "patchsec/ctmc/ctmc.hpp"
#include "patchsec/linalg/csr_matrix.hpp"
#include "patchsec/linalg/stationary_solver.hpp"
#include "patchsec/linalg/steady_state.hpp"
#include "patchsec/linalg/vector_ops.hpp"
#include "patchsec/petri/reachability.hpp"
#include "bit_hash.hpp"

namespace {

namespace av = patchsec::avail;
namespace core = patchsec::core;
namespace ent = patchsec::enterprise;
namespace la = patchsec::linalg;
namespace pt = patchsec::petri;

// ---------------------------------------------------------------------------
// Reference implementation: the pre-workspace solver, kept verbatim.
// ---------------------------------------------------------------------------

double ref_max_exit_rate(const la::CsrMatrix& q) {
  double m = 0.0;
  for (std::size_t r = 0; r < q.rows(); ++r) m = std::max(m, std::abs(q.at(r, r)));
  return m;
}

la::SteadyStateResult ref_power_iteration(const la::CsrMatrix& q,
                                          const la::SteadyStateOptions& opt) {
  const std::size_t n = q.rows();
  const double lambda = std::max(ref_max_exit_rate(q) * 1.02, 1e-12);
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> piq(n);
  la::SteadyStateResult result;
  for (std::size_t it = 1; it <= opt.max_iterations; ++it) {
    q.left_multiply(pi, piq);
    double diff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double next = pi[i] + piq[i] / lambda;
      diff = std::max(diff, std::abs(next - pi[i]));
      pi[i] = next;
    }
    la::normalize_probability(pi);
    if (diff < opt.tolerance) {
      result.converged = true;
      result.iterations = it;
      break;
    }
    result.iterations = it;
  }
  q.left_multiply(pi, piq);
  result.residual = la::norm_inf(piq);
  result.distribution = std::move(pi);
  return result;
}

/// Qᵀ built through the triplet constructor, independent of the solver's
/// own counting transpose.
la::CsrMatrix triplet_transpose(const la::CsrMatrix& q) {
  std::vector<la::Triplet> entries;
  for (std::size_t r = 0; r < q.rows(); ++r) {
    for (std::size_t k = q.row_offsets()[r]; k < q.row_offsets()[r + 1]; ++k) {
      entries.push_back({q.col_indices()[k], r, q.values()[k]});
    }
  }
  return la::CsrMatrix(q.cols(), q.rows(), std::move(entries));
}

la::SteadyStateResult ref_gauss_seidel(const la::CsrMatrix& q,
                                       const la::SteadyStateOptions& opt) {
  const std::size_t n = q.rows();
  const la::CsrMatrix qt = triplet_transpose(q);
  const auto& off = qt.row_offsets();
  const auto& col = qt.col_indices();
  const auto& val = qt.values();

  std::vector<double> diag(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) diag[i] = q.at(i, i);

  std::vector<double> x(n, 1.0 / static_cast<double>(n));
  std::vector<double> prev(n);
  la::SteadyStateResult result;
  for (std::size_t it = 1; it <= opt.max_iterations; ++it) {
    prev = x;
    for (std::size_t i = 0; i < n; ++i) {
      if (diag[i] == 0.0) continue;
      double acc = 0.0;
      for (std::size_t k = off[i]; k < off[i + 1]; ++k) {
        const std::size_t j = col[k];
        if (j == i) continue;
        acc += val[k] * x[j];
      }
      x[i] = -acc / diag[i];
      if (x[i] < 0.0) x[i] = 0.0;
    }
    la::normalize_probability(x);
    result.iterations = it;
    if (la::max_abs_diff(x, prev) < opt.tolerance) {
      result.converged = true;
      break;
    }
  }
  std::vector<double> xq;
  q.left_multiply(x, xq);
  result.residual = la::norm_inf(xq);
  result.distribution = std::move(x);
  return result;
}

la::SteadyStateResult ref_solve(const la::CsrMatrix& q, const la::SteadyStateOptions& opt) {
  if (q.rows() == 1) {
    return {.distribution = {1.0}, .iterations = 0, .residual = 0.0, .converged = true};
  }
  switch (opt.method) {
    case la::SteadyStateMethod::kPower:
      return ref_power_iteration(q, opt);
    case la::SteadyStateMethod::kGaussSeidel:
      return ref_gauss_seidel(q, opt);
    case la::SteadyStateMethod::kAuto: {
      la::SteadyStateResult gs = ref_gauss_seidel(q, opt);
      if (gs.converged && gs.residual < 1e-8) return gs;
      la::SteadyStateResult pw = ref_power_iteration(q, opt);
      return (pw.residual < gs.residual) ? pw : gs;
    }
  }
  throw std::logic_error("unknown method");
}

// ---------------------------------------------------------------------------
// Generator factories.
// ---------------------------------------------------------------------------

la::CsrMatrix random_ergodic_generator(std::uint64_t seed) {
  // Ring (guarantees irreducibility) plus random extra edges; rates within
  // two orders of magnitude so Gauss-Seidel converges healthily.
  std::mt19937_64 rng(seed * 6364136223846793005ull + 1442695040888963407ull);
  std::uniform_int_distribution<std::size_t> size(2, 24);
  std::uniform_real_distribution<double> rate(0.05, 20.0);
  const std::size_t n = size(rng);
  std::vector<la::Triplet> entries;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = rate(rng);
    entries.push_back({i, (i + 1) % n, r});
    entries.push_back({i, i, -r});
  }
  std::uniform_int_distribution<std::size_t> pick(0, n - 1);
  for (std::size_t k = 0; k < 2 * n; ++k) {
    const std::size_t i = pick(rng);
    std::size_t j = pick(rng);
    if (i == j) j = (j + 1) % n;
    const double r = rate(rng);
    entries.push_back({i, j, r});
    entries.push_back({i, i, -r});
  }
  return la::CsrMatrix(n, n, entries);
}

la::CsrMatrix birth_death_generator(const std::vector<double>& birth,
                                    const std::vector<double>& death) {
  std::vector<patchsec::ctmc::RateTransition> transitions;
  for (std::size_t i = 0; i < birth.size(); ++i) {
    transitions.push_back({i, i + 1, birth[i]});
    transitions.push_back({i + 1, i, death[i]});
  }
  return patchsec::ctmc::Ctmc(birth.size() + 1, transitions).generator();
}

la::CsrMatrix network_generator(const core::Session& session, unsigned k) {
  const av::NetworkSrn net =
      av::build_network_srn(ent::RedundancyDesign{{k, k, k, k}}, session.aggregated_rates());
  return pt::build_reachability_graph(net.model).chain.generator();
}

std::vector<la::CsrMatrix> paper_generators() {
  // The lower-layer server SRNs of every role with a spec plus the
  // upper-layer network SRNs of the five Sec. IV candidate designs and the
  // stress configuration {6,6,6,6}.
  std::vector<la::CsrMatrix> generators;
  const core::Scenario scenario = core::Scenario::paper_case_study();
  const core::Session session(scenario);
  for (const auto& [role, spec] : scenario.specs()) {
    av::ServerSrnOptions options;
    const av::ServerSrn srn = av::build_server_srn(spec, options);
    generators.push_back(pt::build_reachability_graph(srn.model).chain.generator());
  }
  for (const ent::RedundancyDesign& design : scenario.designs()) {
    const av::NetworkSrn net = av::build_network_srn(design, session.aggregated_rates());
    generators.push_back(pt::build_reachability_graph(net.model).chain.generator());
  }
  generators.push_back(network_generator(session, 6));
  return generators;
}

// `iteration_slack` is 0 (strict parity-or-fewer) everywhere except the
// deliberately slow high-iteration chains, where the tolerance crossing moves
// by well under the per-sweep rounding noise and a one-sweep wobble in either
// direction is numerically meaningless.
void expect_equivalent(const la::CsrMatrix& q, const la::SteadyStateOptions& opt,
                       const std::string& label, std::size_t iteration_slack = 0) {
  const la::SteadyStateResult ref = ref_solve(q, opt);
  la::StationarySolver solver;
  const la::SteadyStateResult got = solver.solve(q, opt);
  ASSERT_EQ(got.distribution.size(), ref.distribution.size()) << label;
  EXPECT_LT(la::max_abs_diff(got.distribution, ref.distribution), 1e-10) << label;
  EXPECT_EQ(got.converged, ref.converged) << label;
  EXPECT_LE(got.iterations, ref.iterations + iteration_slack)
      << label << ": the rewrite must never need more iterations than the classical solver";
  EXPECT_FALSE(got.stalled) << label;
  // The wrapper runs the identical path.
  const la::SteadyStateResult wrapped = la::solve_steady_state(q, opt);
  EXPECT_EQ(wrapped.iterations, got.iterations) << label;
  EXPECT_LT(la::max_abs_diff(wrapped.distribution, got.distribution), 1e-15) << label;
}

// ---------------------------------------------------------------------------
// CSR construction.
// ---------------------------------------------------------------------------

TEST(CsrFastPaths, FromSortedMatchesTripletConstruction) {
  const la::CsrMatrix q = random_ergodic_generator(7);
  const la::CsrMatrix direct = la::CsrMatrix::from_sorted(
      q.rows(), q.cols(), q.row_offsets(), q.col_indices(), q.values());
  EXPECT_EQ(direct.row_offsets(), q.row_offsets());
  EXPECT_EQ(direct.col_indices(), q.col_indices());
  EXPECT_EQ(direct.values(), q.values());
}

TEST(CsrFastPaths, FromSortedValidatesInvariants) {
  using Offsets = std::vector<std::size_t>;
  using Cols = std::vector<std::size_t>;
  using Vals = std::vector<double>;
  // Shape mismatch.
  EXPECT_THROW((void)la::CsrMatrix::from_sorted(2, 2, Offsets{0, 1}, Cols{0}, Vals{1.0}),
               std::invalid_argument);
  // Offsets not ending at nnz.
  EXPECT_THROW((void)la::CsrMatrix::from_sorted(2, 2, Offsets{0, 1, 3}, Cols{0, 1}, Vals{1.0, 2.0}),
               std::invalid_argument);
  // Unsorted / duplicate columns within a row.
  EXPECT_THROW(
      (void)la::CsrMatrix::from_sorted(1, 3, Offsets{0, 2}, Cols{2, 1}, Vals{1.0, 2.0}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)la::CsrMatrix::from_sorted(1, 3, Offsets{0, 2}, Cols{1, 1}, Vals{1.0, 2.0}),
      std::invalid_argument);
  // Column out of range.
  EXPECT_THROW((void)la::CsrMatrix::from_sorted(1, 2, Offsets{0, 1}, Cols{2}, Vals{1.0}),
               std::invalid_argument);
  // Explicit zero.
  EXPECT_THROW((void)la::CsrMatrix::from_sorted(1, 2, Offsets{0, 1}, Cols{0}, Vals{0.0}),
               std::invalid_argument);
}

TEST(CsrFastPaths, CtmcGeneratorAssemblyMatchesTripletPath) {
  // Parallel edges, out-of-order insertion, a state with no exits: the
  // counting assembly must reproduce the triplet path exactly.
  const std::vector<patchsec::ctmc::RateTransition> transitions{
      {2, 0, 0.5}, {0, 2, 1.5}, {0, 1, 2.0}, {0, 1, 3.0} /* parallel edge: merged */, {1, 0, 4.0}};
  const patchsec::ctmc::Ctmc chain(4, transitions);
  const la::CsrMatrix& q = chain.generator();

  std::vector<la::Triplet> entries;
  for (const auto& t : transitions) {
    entries.push_back({t.from, t.to, t.rate});
    entries.push_back({t.from, t.from, -t.rate});
  }
  const la::CsrMatrix ref(4, 4, entries);
  EXPECT_EQ(q.row_offsets(), ref.row_offsets());
  EXPECT_EQ(q.col_indices(), ref.col_indices());
  EXPECT_EQ(q.values(), ref.values());
  EXPECT_DOUBLE_EQ(q.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(q.at(0, 0), -6.5);
  EXPECT_DOUBLE_EQ(q.row_sum(0), 0.0);
  EXPECT_EQ(q.at(3, 3), 0.0);  // exit-free state stores no diagonal
}

// ---------------------------------------------------------------------------
// Solver equivalence.
// ---------------------------------------------------------------------------

TEST(StationarySolverEquivalence, BirthDeathOracles) {
  std::mt19937_64 rng(2017);
  std::uniform_real_distribution<double> rate(0.2, 5.0);
  for (std::size_t n : {1u, 2u, 5u, 12u, 40u}) {
    std::vector<double> birth(n), death(n);
    for (std::size_t i = 0; i < n; ++i) {
      birth[i] = rate(rng);
      death[i] = rate(rng);
    }
    const la::CsrMatrix q = birth_death_generator(birth, death);
    const std::vector<double> oracle = la::birth_death_steady_state(birth, death);
    la::StationarySolver solver;
    for (la::SteadyStateMethod method :
         {la::SteadyStateMethod::kAuto, la::SteadyStateMethod::kGaussSeidel,
          la::SteadyStateMethod::kPower}) {
      la::SteadyStateOptions opt;
      opt.method = method;
      // The successive-diff stopping rule leaves ~diff/(1-rate) absolute
      // error; 1e-14 keeps the longest chain comfortably inside the 1e-10
      // oracle bar for both the reference and the rewrite.
      opt.tolerance = 1e-14;
      const la::SteadyStateResult got = solver.solve(q, opt);
      EXPECT_TRUE(got.converged);
      EXPECT_LT(la::max_abs_diff(got.distribution, oracle), 1e-10)
          << "n=" << n << " method=" << static_cast<int>(method);
      // And old-vs-new equivalence on the same chain (one sweep of slack:
      // the longest chains take >10k sweeps and the final crossing sits
      // below rounding noise).
      expect_equivalent(q, opt,
                        "birth-death n=" + std::to_string(n) + " method " +
                            std::to_string(static_cast<int>(method)),
                        /*iteration_slack=*/1);
    }
  }
}

TEST(StationarySolverEquivalence, RandomGeneratorFuzz) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const la::CsrMatrix q = random_ergodic_generator(seed);
    for (la::SteadyStateMethod method :
         {la::SteadyStateMethod::kAuto, la::SteadyStateMethod::kGaussSeidel,
          la::SteadyStateMethod::kPower}) {
      la::SteadyStateOptions opt;
      opt.method = method;
      expect_equivalent(q, opt,
                        "seed " + std::to_string(seed) + " method " +
                            std::to_string(static_cast<int>(method)));
    }
  }
}

TEST(StationarySolverEquivalence, PaperCaseStudyIterationGuard) {
  // The acceptance bar: identical distributions (1e-10), identical converged
  // flags, and never more solver iterations than the classical path on every
  // SRN the paper pipeline solves.
  std::size_t index = 0;
  for (const la::CsrMatrix& q : paper_generators()) {
    expect_equivalent(q, la::SteadyStateOptions{}, "paper generator " + std::to_string(index++));
  }
}

TEST(StationarySolverEquivalence, TightAndLooseTolerances) {
  const la::CsrMatrix q = random_ergodic_generator(11);
  for (double tolerance : {1e-8, 1e-10, 1e-14}) {
    la::SteadyStateOptions opt;
    opt.tolerance = tolerance;
    expect_equivalent(q, opt, "tolerance " + std::to_string(tolerance));
  }
  // Exhausted budget: both paths report non-convergence the same way.
  la::SteadyStateOptions opt;
  opt.method = la::SteadyStateMethod::kGaussSeidel;
  opt.max_iterations = 2;
  const la::SteadyStateResult ref = ref_solve(q, opt);
  la::StationarySolver solver;
  const la::SteadyStateResult got = solver.solve(q, opt);
  EXPECT_FALSE(got.converged);
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_LT(la::max_abs_diff(got.distribution, ref.distribution), 1e-12);
}

// ---------------------------------------------------------------------------
// Bit pins.
// ---------------------------------------------------------------------------

struct SolvePin {
  std::size_t iterations = 0;
  std::uint64_t hash = 0;  ///< FNV-1a over the distribution and the residual.
};

/// kAuto on the k = 1..6 uniform network nets and the {3,4,5,6} and
/// {4,5,6,6} ones at three cadences, keyed "<hours>/<counts>".
std::map<std::string, SolvePin> network_solve_pins() {
  const core::Session session(core::Scenario::paper_case_study());
  std::vector<ent::RedundancyDesign> designs;
  for (unsigned k = 1; k <= 6; ++k) designs.push_back({{k, k, k, k}});
  designs.push_back({{3, 4, 5, 6}});
  designs.push_back({{4, 5, 6, 6}});
  std::map<std::string, SolvePin> pins;
  for (const double hours : {168.0, 720.0, 1440.0}) {
    for (const ent::RedundancyDesign& design : designs) {
      const av::NetworkSrn net = av::build_network_srn(design, session.aggregated_rates(hours));
      la::StationarySolver solver;
      const la::SteadyStateResult r =
          solver.solve(pt::build_reachability_graph(net.model).chain.generator());
      patchsec::testing::Fnv1a h;
      for (const double p : r.distribution) h.real(p);
      h.real(r.residual);
      std::string key = std::to_string(static_cast<int>(hours)) + "/";
      for (const unsigned c : design.counts) key += std::to_string(c);
      pins[key] = {r.iterations, h.value()};
    }
  }
  return pins;
}

TEST(StationarySolverPin, NetworkSolvesKeepEveryBit) {
#if defined(__FMA__)
  GTEST_SKIP() << "FMA contraction may move rate bits; pins hold for portable builds";
#endif
  // Captured before the exact tail stopped at the first component at or
  // above the tolerance.
  // clang-format off
  const std::map<std::string, SolvePin> expected = {
      {"1440/1111", {7, 0x80016c32fb94a259ull}},
      {"1440/2222", {12, 0xa72f7c9edefba14bull}},
      {"1440/3333", {16, 0xe8252ee97abd9597ull}},
      {"1440/3456", {22, 0xd3e8293a0fd3c2e3ull}},
      {"1440/4444", {20, 0x9489d2daac327b82ull}},
      {"1440/4566", {25, 0xbb84435a87187815ull}},
      {"1440/5555", {24, 0x13a99f76a6d5d100ull}},
      {"1440/6666", {29, 0x6ea39e900dfe727eull}},
      {"168/1111", {9, 0xddfaac9e419ada6cull}},
      {"168/2222", {14, 0xfa7ee55665bed2faull}},
      {"168/3333", {19, 0xbbf22538ffe86cdfull}},
      {"168/3456", {26, 0x3c54b4613947e0a6ull}},
      {"168/4444", {24, 0xc9bb0b7cfcb9e7d1ull}},
      {"168/4566", {30, 0x00c0b9b87b4c16afull}},
      {"168/5555", {29, 0xc2539de204dabf1eull}},
      {"168/6666", {33, 0x47873081194be9c5ull}},
      {"720/1111", {8, 0x5060bb8458c8a1dcull}},
      {"720/2222", {12, 0xd98586314c81c806ull}},
      {"720/3333", {17, 0xe2d82d2a9d610862ull}},
      {"720/3456", {23, 0x85696e66cae37ce4ull}},
      {"720/4444", {21, 0x3ca580dd14eeacb9ull}},
      {"720/4566", {26, 0xd8915d1523fc07f5ull}},
      {"720/5555", {25, 0x8a1b152adf9560d8ull}},
      {"720/6666", {30, 0x1c5d9cb03db2bec1ull}},
  };
  // clang-format on
  const std::map<std::string, SolvePin> actual = network_solve_pins();
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [key, pin] : expected) {
    const auto it = actual.find(key);
    ASSERT_NE(it, actual.end()) << key;
    EXPECT_EQ(it->second.iterations, pin.iterations) << key;
    EXPECT_EQ(it->second.hash, pin.hash) << key;
  }
}

// ---------------------------------------------------------------------------
// Workspace reuse.
// ---------------------------------------------------------------------------

TEST(StationarySolverWorkspace, ReusesTransposeAcrossSameStructureSolves) {
  const core::Session session(core::Scenario::paper_case_study());
  const la::CsrMatrix q4 = network_generator(session, 4);

  la::StationarySolver solver;
  const la::SteadyStateResult first = solver.solve(q4);
  const la::SteadyStateResult second = solver.solve(q4);
  EXPECT_TRUE(first.converged);
  EXPECT_TRUE(second.converged);
  EXPECT_EQ(solver.solve_count(), 2u);
  EXPECT_EQ(solver.transpose_rebuilds(), 1u) << "identical structure must hit the cache";
  EXPECT_EQ(solver.identity_reuses(), 1u) << "the same matrix shares its structure object";
  EXPECT_EQ(solver.content_reuses(), 0u);
  EXPECT_EQ(first.iterations, second.iterations);
  EXPECT_EQ(first.distribution, second.distribution);

  // Same sparsity, different values (another cadence): still a cache hit,
  // and the result matches a fresh solver exactly.
  const auto& rates = session.aggregated_rates(24.0 * 7);
  const av::NetworkSrn net = av::build_network_srn(ent::RedundancyDesign{{4, 4, 4, 4}}, rates);
  const la::CsrMatrix q4_weekly = pt::build_reachability_graph(net.model).chain.generator();
  ASSERT_EQ(q4_weekly.col_indices(), q4.col_indices());
  const la::SteadyStateResult warm = solver.solve(q4_weekly);
  EXPECT_TRUE(warm.converged);
  EXPECT_EQ(solver.transpose_rebuilds(), 1u);
  EXPECT_EQ(solver.content_reuses(), 1u) << "a separate exploration is compared by content";
  la::StationarySolver fresh;
  const la::SteadyStateResult cold = fresh.solve(q4_weekly);
  EXPECT_EQ(warm.iterations, cold.iterations);
  EXPECT_EQ(warm.distribution, cold.distribution);

  // A re-rate of that exploration shares its structure: recognised by pointer.
  const pt::ReachabilityGraph explored = pt::explore_for_rerate(net.model);
  (void)solver.solve(explored.chain.generator());
  EXPECT_EQ(solver.content_reuses(), 2u);
  const av::NetworkSrn monthly =
      av::build_network_srn(ent::RedundancyDesign{{4, 4, 4, 4}}, session.aggregated_rates());
  const patchsec::ctmc::Ctmc rerated = pt::rerate(explored, monthly.model);
  const la::SteadyStateResult by_identity = solver.solve(rerated.generator());
  EXPECT_EQ(solver.identity_reuses(), 2u);
  EXPECT_EQ(solver.content_reuses(), 2u);
  EXPECT_EQ(solver.transpose_rebuilds(), 1u);
  EXPECT_EQ(by_identity.iterations, first.iterations);
  EXPECT_EQ(by_identity.distribution, first.distribution);

  // A different structure rebuilds.
  const la::CsrMatrix q3 = network_generator(session, 3);
  (void)solver.solve(q3);
  EXPECT_EQ(solver.transpose_rebuilds(), 2u);
  EXPECT_EQ(solver.identity_reuses() + solver.content_reuses() + solver.transpose_rebuilds(),
            solver.solve_count());

  // reset() drops the cache.
  solver.reset();
  (void)solver.solve(q3);
  EXPECT_EQ(solver.transpose_rebuilds(), 3u);
}

TEST(StationarySolverWorkspace, TrivialAndInvalidShapes) {
  la::StationarySolver solver;
  EXPECT_THROW((void)solver.solve(la::CsrMatrix()), std::invalid_argument);
  EXPECT_THROW((void)solver.solve(la::CsrMatrix(2, 3, {})), std::invalid_argument);
  const la::CsrMatrix one(1, 1, {});
  const la::SteadyStateResult r = solver.solve(one);
  EXPECT_TRUE(r.converged);
  ASSERT_EQ(r.distribution.size(), 1u);
  EXPECT_DOUBLE_EQ(r.distribution[0], 1.0);
}

// ---------------------------------------------------------------------------
// Stall detection.
// ---------------------------------------------------------------------------

TEST(StationarySolverStall, AbandonsHopelessGaussSeidelUnderAuto) {
  // A long, nearly-symmetric birth-death chain: the Gauss-Seidel spectral
  // radius is ~cos^2(pi/n) -> thousands of sweeps to 1e-12, far beyond the
  // budget below.  The classical kAuto burned max_iterations twice; the
  // rewrite must detect the plateau, abandon the sweep early and fall back.
  const std::size_t n = 64;
  std::vector<double> birth(n - 1, 1.0), death(n - 1, 1.08);
  const la::CsrMatrix q = birth_death_generator(birth, death);

  la::SteadyStateOptions opt;
  opt.method = la::SteadyStateMethod::kAuto;
  opt.max_iterations = 2000;
  const la::SteadyStateResult ref = ref_solve(q, opt);
  ASSERT_FALSE(ref.converged) << "test construction: budget must be insufficient";

  la::StationarySolver solver;
  const la::SteadyStateResult got = solver.solve(q, opt);
  EXPECT_FALSE(got.converged);
  EXPECT_TRUE(got.stalled);
  EXPECT_EQ(solver.stall_events(), 1u);
  // The early bail trades the abandoned Gauss-Seidel burn for the power
  // fallback, so the best-effort answer is never worse than power iteration
  // alone under the same budget.
  la::SteadyStateOptions power_only = opt;
  power_only.method = la::SteadyStateMethod::kPower;
  const la::SteadyStateResult pw = ref_solve(q, power_only);
  EXPECT_LE(got.residual, pw.residual * (1.0 + 1e-9));

  // With a budget that suffices, stall detection must stay quiet and the
  // solve must converge to the oracle.
  la::SteadyStateOptions generous;
  generous.method = la::SteadyStateMethod::kAuto;
  generous.max_iterations = 200000;
  const la::SteadyStateResult full = solver.solve(q, generous);
  EXPECT_TRUE(full.converged);
  EXPECT_FALSE(full.stalled);
  EXPECT_LT(la::max_abs_diff(full.distribution, la::birth_death_steady_state(birth, death)),
            1e-9);
}

}  // namespace
