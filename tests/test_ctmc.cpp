// Tests for the CTMC layer: model construction, steady state, rewards,
// transient uniformization against closed forms.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "patchsec/ctmc/ctmc.hpp"
#include "patchsec/ctmc/transient_solver.hpp"
#include "structural_oracle.hpp"
#include "transient_oracle.hpp"

namespace ct = patchsec::ctmc;

namespace {

/// Up/down chain: 0=up fails at rate a, 1=down repairs at rate b.
ct::Ctmc up_down(double a, double b) { return ct::Ctmc(2, {{0, 1, a}, {1, 0, b}}); }

}  // namespace

TEST(Ctmc, Construction) {
  EXPECT_EQ(ct::Ctmc().state_count(), 0u);
  const ct::Ctmc c(3, {{0, 1, 1.0}});
  EXPECT_EQ(c.state_count(), 3u);
  EXPECT_EQ(c.generator().rows(), 3u);
  EXPECT_EQ(c.transition_count(), 1u);
  // States without exits store empty generator rows.
  EXPECT_EQ(c.generator().nnz(), 2u);
}

TEST(Ctmc, RejectsBadTransitions) {
  EXPECT_THROW(ct::Ctmc(2, {{0, 0, 1.0}}), std::invalid_argument);  // self loop
  EXPECT_THROW(ct::Ctmc(2, {{0, 1, 0.0}}), std::invalid_argument);  // zero rate
  EXPECT_THROW(ct::Ctmc(2, {{0, 1, -2.0}}), std::invalid_argument);
  EXPECT_THROW(ct::Ctmc(2, {{0, 1, std::nan("")}}), std::invalid_argument);
  EXPECT_THROW(ct::Ctmc(2, {{0, 5, 1.0}}), std::out_of_range);
  EXPECT_THROW(ct::Ctmc(2, {{5, 0, 1.0}}), std::out_of_range);
}

TEST(Ctmc, GeneratorRowsSumToZero) {
  const ct::Ctmc c = up_down(0.25, 4.0);
  const auto& q = c.generator();
  EXPECT_NEAR(q.row_sum(0), 0.0, 1e-15);
  EXPECT_NEAR(q.row_sum(1), 0.0, 1e-15);
  EXPECT_DOUBLE_EQ(q.at(0, 1), 0.25);
  EXPECT_DOUBLE_EQ(q.at(1, 0), 4.0);
}

TEST(Ctmc, SteadyStateAvailability) {
  const double lambda = 1.0 / 336.0, mu = 2.0;
  const ct::Ctmc c = up_down(lambda, mu);
  const auto ss = c.steady_state();
  EXPECT_NEAR(ss.distribution[0], mu / (mu + lambda), 1e-10);
}

TEST(Ctmc, ExitRate) {
  const ct::Ctmc c(3, {{0, 1, 2.0}, {0, 2, 3.0}});
  const std::vector<double>& exits = c.exit_rates();
  ASSERT_EQ(exits.size(), 3u);
  EXPECT_DOUBLE_EQ(exits[0], 5.0);
  EXPECT_DOUBLE_EQ(exits[1], 0.0);
}

TEST(Ctmc, ExitRatesSumInGivenOrderAndTheDiagonalInColumnOrder) {
  // 0.1 + 0.2 + 0.3 rounds differently from 0.3 + 0.2 + 0.1: exit_rates()
  // adds in the given order, the diagonal adds the column-sorted row.
  const ct::Ctmc c(4, {{0, 3, 0.1}, {0, 2, 0.2}, {0, 1, 0.3}});
  EXPECT_EQ(c.exit_rates()[0], (0.1 + 0.2) + 0.3);
  EXPECT_EQ(c.generator().at(0, 0), -((0.3 + 0.2) + 0.1));
  EXPECT_NE(c.exit_rates()[0], -c.generator().at(0, 0));
}

TEST(Ctmc, UngroupedTransitionsAssembleLikeGrouped) {
  // Rows interleaved, a parallel edge and a diagonal that sorts mid-row: the
  // bucket pass keeps each row's order, so both inputs give the same bits.
  const std::vector<ct::RateTransition> grouped{
      {0, 2, 1.5}, {0, 1, 2.0}, {0, 1, 3.0}, {1, 0, 4.0}, {2, 3, 0.5}, {2, 0, 0.25}};
  const std::vector<ct::RateTransition> interleaved{
      {2, 3, 0.5}, {0, 2, 1.5}, {1, 0, 4.0}, {0, 1, 2.0}, {2, 0, 0.25}, {0, 1, 3.0}};
  const ct::Ctmc a(4, grouped);
  const ct::Ctmc b(4, interleaved);
  EXPECT_EQ(a.generator().row_offsets(), b.generator().row_offsets());
  EXPECT_EQ(a.generator().col_indices(), b.generator().col_indices());
  EXPECT_EQ(a.generator().values(), b.generator().values());
  EXPECT_EQ(a.exit_rates(), b.exit_rates());
  EXPECT_EQ(a.transition_count(), 5u);  // the parallel 0 -> 1 edges merge
  EXPECT_DOUBLE_EQ(a.generator().at(0, 1), 5.0);
  EXPECT_EQ(a.generator().col_indices(),
            (std::vector<std::size_t>{0, 1, 2, 0, 1, 0, 2, 3}));
}

TEST(Ctmc, ParallelEdgesMergeBitIdenticallyThroughTheValuesOnlyFill) {
  // Row 0 holds two parallel edge groups out of order; rates like 0.1, 0.2,
  // 0.3 round differently in another order.  The pattern sorts each row by
  // (column, rate) once; a fill merges in that order and writes values only.
  ct::RateRows rows;
  rows.offsets = {0, 5, 6, 6};
  rows.columns = {2, 1, 2, 2, 1, 0};
  rows.rates = {0.3, 0.1, 0.1, 0.2, 0.7, 1.0};
  const ct::GeneratorPattern pattern(rows);
  ASSERT_EQ(pattern.entry_count(), 6u);
  const ct::Ctmc explored(pattern, rows.rates);
  const ct::Ctmc direct(rows);
  EXPECT_EQ(explored.generator().values(), direct.generator().values());
  EXPECT_EQ(explored.exit_rates(), direct.exit_rates());
  const auto& q = explored.generator();
  EXPECT_EQ(q.row_offsets(), (std::vector<std::size_t>{0, 3, 5, 5}));
  EXPECT_EQ(q.col_indices(), (std::vector<std::size_t>{0, 1, 2, 0, 1}));
  const double col1 = 0.1 + 0.7;
  const double col2 = (0.1 + 0.2) + 0.3;
  EXPECT_EQ(q.values(), (std::vector<double>{-(col1 + col2), col1, col2, 1.0, -1.0}));
  EXPECT_EQ(explored.exit_rates()[0], (((0.3 + 0.1) + 0.1) + 0.2) + 0.7);

  // New rates in entry order merge in the pattern's order, into the same
  // structure object.
  const std::vector<double> rerated{0.2, 0.3, 0.1, 0.6, 0.05, 2.5};
  const ct::Ctmc refilled(pattern, rerated);
  EXPECT_EQ(refilled.generator().structure(), q.structure());
  const double r1 = 0.3 + 0.05;
  const double r2 = (0.1 + 0.6) + 0.2;
  EXPECT_EQ(refilled.generator().values(), (std::vector<double>{-(r1 + r2), r1, r2, 2.5, -2.5}));
  EXPECT_EQ(refilled.exit_rates(),
            (std::vector<double>{(((0.2 + 0.3) + 0.1) + 0.6) + 0.05, 2.5, 0.0}));
  EXPECT_EQ(refilled.transition_count(), 3u);

  EXPECT_THROW(ct::Ctmc(pattern, std::vector<double>(5, 1.0)), std::invalid_argument);
  EXPECT_THROW(ct::Ctmc(pattern, std::vector<double>{0.2, 0.3, 0.0, 0.6, 0.05, 2.5}),
               std::invalid_argument);
}

TEST(Ctmc, IrreducibilityOracle) {
  EXPECT_FALSE(structural_oracle::is_irreducible(ct::Ctmc(3, {{0, 1, 1.0}, {1, 0, 1.0}})));
  EXPECT_TRUE(structural_oracle::is_irreducible(
      ct::Ctmc(3, {{0, 1, 1.0}, {1, 0, 1.0}, {1, 2, 1.0}, {2, 0, 1.0}})));
  EXPECT_FALSE(structural_oracle::is_irreducible(ct::Ctmc()));
}

// ---------- transient --------------------------------------------------------

TEST(Transient, TwoStateClosedForm) {
  // pi_up(t) = mu/(l+mu) + l/(l+mu) e^{-(l+mu)t} starting from up.
  const double l = 0.7, mu = 1.3;
  ct::TransientSolver solver;
  solver.prepare(up_down(l, mu));
  // Indicator rewards read off pi_up(t) and pi_down(t).
  const std::vector<double> grid{0.0, 0.1, 0.5, 1.0, 3.0, 10.0};
  std::vector<double> up, down;
  (void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, grid, up);
  (void)solver.reward_curve({1.0, 0.0}, {0.0, 1.0}, grid, down);
  for (std::size_t j = 0; j < grid.size(); ++j) {
    const double t = grid[j];
    const double expected = mu / (l + mu) + l / (l + mu) * std::exp(-(l + mu) * t);
    EXPECT_NEAR(up[j], expected, 1e-9) << "t=" << t;
    EXPECT_NEAR(up[j] + down[j], 1.0, 1e-12);
  }
}

TEST(Transient, ConvergesToSteadyState) {
  ct::TransientSolver solver;
  solver.prepare(up_down(0.4, 0.6));
  std::vector<double> up, down;
  (void)solver.reward_curve({0.0, 1.0}, {1.0, 0.0}, {200.0}, up);
  (void)solver.reward_curve({0.0, 1.0}, {0.0, 1.0}, {200.0}, down);
  EXPECT_NEAR(up[0], 0.6, 1e-8);
  EXPECT_NEAR(down[0], 0.4, 1e-8);
}

TEST(Transient, ZeroTimeReturnsInitial) {
  ct::TransientSolver solver;
  solver.prepare(up_down(1.0, 1.0));
  std::vector<double> up;
  (void)solver.reward_curve({0.25, 0.75}, {1.0, 0.0}, {0.0}, up);
  EXPECT_DOUBLE_EQ(up[0], 0.25);
}

TEST(Transient, NegativeTimeThrows) {
  ct::TransientSolver solver;
  solver.prepare(up_down(1.0, 1.0));
  std::vector<double> values;
  EXPECT_THROW((void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {-1.0}, values),
               std::invalid_argument);
}

TEST(Transient, InitialSizeMismatchThrows) {
  ct::TransientSolver solver;
  solver.prepare(up_down(1.0, 1.0));
  std::vector<double> values;
  EXPECT_THROW((void)solver.reward_curve({1.0}, {1.0, 0.0}, {1.0}, values),
               std::invalid_argument);
}

TEST(Transient, StiffChainStaysStochastic) {
  ct::TransientSolver solver;
  solver.prepare(up_down(1e-4, 1e3));
  std::vector<double> up, down;
  (void)solver.reward_curve({0.0, 1.0}, {1.0, 0.0}, {0.01}, up);
  (void)solver.reward_curve({0.0, 1.0}, {0.0, 1.0}, {0.01}, down);
  EXPECT_NEAR(up[0] + down[0], 1.0, 1e-12);
  EXPECT_GT(up[0], 0.99);  // repair rate 1e3: nearly surely up after 0.01
}

TEST(Transient, InstantaneousRewardMatchesDistribution) {
  const ct::Ctmc c = up_down(0.5, 1.5);
  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> values;
  (void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {0.8}, values);
  const std::vector<double> pi = transient_oracle::naive_transient(c, {1.0, 0.0}, 0.8);
  EXPECT_NEAR(values[0], pi[0], 1e-12);
}

TEST(Transient, AccumulatedRewardIntervalAvailability) {
  // With no repair (mu -> 0 unreachable here, use tiny), expected uptime over
  // [0,t] of a failing component ~ (1 - e^{-lt})/l.
  const double l = 0.3;
  const ct::Ctmc c(2, {{0, 1, l}});
  const double t = 2.0;
  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> values;
  const double up_time = solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {t}, values);
  const double expected = (1.0 - std::exp(-l * t)) / l;
  EXPECT_NEAR(up_time, expected, 1e-4);
}
