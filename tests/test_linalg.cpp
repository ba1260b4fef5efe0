// Unit and property tests for the linalg module: vector ops, CSR matrices
// and the steady-state solvers.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "patchsec/linalg/csr_matrix.hpp"
#include "patchsec/linalg/steady_state.hpp"
#include "patchsec/linalg/vector_ops.hpp"

namespace la = patchsec::linalg;

// ---------- vector ops -------------------------------------------------------

TEST(VectorOps, AxpyAddsScaledVector) {
  std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> y{10.0, 20.0, 30.0};
  la::axpy(0.5, y, x);
  EXPECT_DOUBLE_EQ(x[0], 6.0);
  EXPECT_DOUBLE_EQ(x[1], 12.0);
  EXPECT_DOUBLE_EQ(x[2], 18.0);
}

TEST(VectorOps, AxpySizeMismatchThrows) {
  std::vector<double> x{1.0};
  const std::vector<double> y{1.0, 2.0};
  EXPECT_THROW(la::axpy(1.0, y, x), std::invalid_argument);
}

TEST(VectorOps, DotProduct) {
  EXPECT_DOUBLE_EQ(la::dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0);
}

TEST(VectorOps, Norms) {
  const std::vector<double> v{3.0, -4.0};
  EXPECT_DOUBLE_EQ(la::norm1(v), 7.0);
  EXPECT_DOUBLE_EQ(la::norm2(v), 5.0);
  EXPECT_DOUBLE_EQ(la::norm_inf(v), 4.0);
}

TEST(VectorOps, MaxAbsDiff) {
  EXPECT_DOUBLE_EQ(la::max_abs_diff({1.0, 5.0}, {1.5, 4.0}), 1.0);
}

TEST(VectorOps, NormalizeProbability) {
  std::vector<double> v{1.0, 3.0};
  la::normalize_probability(v);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
}

TEST(VectorOps, NormalizeZeroVectorThrows) {
  std::vector<double> v{0.0, 0.0};
  EXPECT_THROW(la::normalize_probability(v), std::domain_error);
}

TEST(VectorOps, NormalizeNegativeSumThrows) {
  std::vector<double> v{-1.0, 0.5};
  EXPECT_THROW(la::normalize_probability(v), std::domain_error);
}

TEST(VectorOps, AllFiniteDetectsNan) {
  EXPECT_TRUE(la::all_finite({1.0, 2.0}));
  EXPECT_FALSE(la::all_finite({1.0, std::nan("")}));
  EXPECT_FALSE(la::all_finite({1.0, INFINITY}));
}

// ---------- CSR matrix -------------------------------------------------------

TEST(CsrMatrix, BuildsAndLooksUp) {
  const la::CsrMatrix m(2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 3.0);
}

TEST(CsrMatrix, DuplicateTripletsAreSummed) {
  const la::CsrMatrix m(1, 1, {{0, 0, 1.0}, {0, 0, 2.5}});
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_EQ(m.nnz(), 1u);
}

TEST(CsrMatrix, ExplicitZerosDropped) {
  const la::CsrMatrix m(1, 2, {{0, 0, 1.0}, {0, 1, -1.0}, {0, 1, 1.0}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
}

TEST(CsrMatrix, OutOfRangeTripletThrows) {
  EXPECT_THROW(la::CsrMatrix(1, 1, {{0, 1, 1.0}}), std::out_of_range);
  EXPECT_THROW(la::CsrMatrix(1, 1, {{1, 0, 1.0}}), std::out_of_range);
}

TEST(CsrMatrix, LeftMultiply) {
  const la::CsrMatrix m(2, 2, {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 3.0}, {1, 1, 4.0}});
  std::vector<double> y;
  m.left_multiply({1.0, 1.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(CsrMatrix, MultiplySizeMismatchThrows) {
  const la::CsrMatrix m(2, 3, {});
  std::vector<double> y;
  EXPECT_THROW(m.left_multiply({1.0}, y), std::invalid_argument);
}

TEST(CsrMatrix, RowSum) {
  const la::CsrMatrix m(2, 2, {{0, 0, -3.0}, {0, 1, 3.0}});
  EXPECT_DOUBLE_EQ(m.row_sum(0), 0.0);
  EXPECT_DOUBLE_EQ(m.row_sum(1), 0.0);
}

// ---------- steady-state solvers ---------------------------------------------

namespace {

la::CsrMatrix two_state_generator(double a, double b) {
  return la::CsrMatrix(2, 2, {{0, 0, -a}, {0, 1, a}, {1, 0, b}, {1, 1, -b}});
}

}  // namespace

class SteadyStateMethods : public ::testing::TestWithParam<la::SteadyStateMethod> {};

TEST_P(SteadyStateMethods, TwoStateChainMatchesClosedForm) {
  const double a = 0.003, b = 1.7;
  la::SteadyStateOptions opt;
  opt.method = GetParam();
  const la::SteadyStateResult r = la::solve_steady_state(two_state_generator(a, b), opt);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.distribution[0], b / (a + b), 1e-9);
  EXPECT_NEAR(r.distribution[1], a / (a + b), 1e-9);
  EXPECT_LT(r.residual, 1e-8);
}

TEST_P(SteadyStateMethods, StiffRatesStillConverge) {
  // Rates spanning 8 orders of magnitude, like patch models.
  const double a = 1e-5, b = 1e3;
  la::SteadyStateOptions opt;
  opt.method = GetParam();
  const la::SteadyStateResult r = la::solve_steady_state(two_state_generator(a, b), opt);
  EXPECT_NEAR(r.distribution[0], b / (a + b), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SteadyStateMethods,
                         ::testing::Values(la::SteadyStateMethod::kPower,
                                           la::SteadyStateMethod::kGaussSeidel,
                                           la::SteadyStateMethod::kAuto));

TEST(SteadyState, SingleStateChain) {
  const la::CsrMatrix q(1, 1, {});
  const la::SteadyStateResult r = la::solve_steady_state(q);
  EXPECT_DOUBLE_EQ(r.distribution[0], 1.0);
  EXPECT_TRUE(r.converged);
}

TEST(SteadyState, EmptyGeneratorThrows) {
  const la::CsrMatrix q;
  EXPECT_THROW(la::solve_steady_state(q), std::invalid_argument);
}

TEST(SteadyState, NonSquareThrows) {
  const la::CsrMatrix q(2, 3, {});
  EXPECT_THROW(la::solve_steady_state(q), std::invalid_argument);
}

TEST(SteadyState, CyclicChainUniform) {
  // 0 -> 1 -> 2 -> 0 all at rate 1: uniform stationary distribution.
  const la::CsrMatrix q(3, 3,
                        {{0, 0, -1.0}, {0, 1, 1.0}, {1, 1, -1.0}, {1, 2, 1.0},
                         {2, 2, -1.0}, {2, 0, 1.0}});
  const la::SteadyStateResult r = la::solve_steady_state(q);
  for (double p : r.distribution) EXPECT_NEAR(p, 1.0 / 3.0, 1e-9);
}

TEST(SteadyState, RandomBirthDeathMatchesClosedForm) {
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> u(0.01, 10.0);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial % 6);
    std::vector<double> birth(n), death(n);
    for (std::size_t i = 0; i < n; ++i) {
      birth[i] = u(rng);
      death[i] = u(rng);
    }
    const std::vector<double> pi_closed = la::birth_death_steady_state(birth, death);

    std::vector<la::Triplet> entries;
    for (std::size_t i = 0; i < n; ++i) {
      entries.push_back({i, i + 1, birth[i]});
      entries.push_back({i, i, -birth[i]});
      entries.push_back({i + 1, i, death[i]});
      entries.push_back({i + 1, i + 1, -death[i]});
    }
    const la::CsrMatrix q(n + 1, n + 1, entries);
    const la::SteadyStateResult r = la::solve_steady_state(q);
    ASSERT_EQ(r.distribution.size(), pi_closed.size());
    for (std::size_t i = 0; i <= n; ++i) EXPECT_NEAR(r.distribution[i], pi_closed[i], 1e-8);
  }
}

TEST(BirthDeath, SizesMustMatch) {
  EXPECT_THROW(la::birth_death_steady_state({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(BirthDeath, ZeroDeathRateThrows) {
  EXPECT_THROW(la::birth_death_steady_state({1.0}, {0.0}), std::domain_error);
}

TEST(BirthDeath, TwoStateClosedForm) {
  const std::vector<double> pi = la::birth_death_steady_state({2.0}, {6.0});
  EXPECT_NEAR(pi[0], 0.75, 1e-12);
  EXPECT_NEAR(pi[1], 0.25, 1e-12);
}
