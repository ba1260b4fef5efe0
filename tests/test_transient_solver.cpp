// Tests for the uniformization workspace (ctmc::TransientSolver): closed
// forms, the naive-uniformization oracle (transient_oracle.hpp, the
// pre-workspace algorithm kept as reference), Fox-Glynn window behaviour,
// the exact accumulated-reward series, the single-expansion curve path and its
// sweep/prepare guards, and workspace reuse.  A state's probability pi_s(t)
// is read off a one-point curve with the indicator reward of s.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "patchsec/ctmc/transient_solver.hpp"
#include "transient_oracle.hpp"

namespace ct = patchsec::ctmc;
using transient_oracle::naive_transient;

namespace {

ct::Ctmc up_down(double l, double mu) { return ct::Ctmc(2, {{0, 1, l}, {1, 0, mu}}); }

// A randomized irreducible chain (fixed seed; ring backbone plus extra
// random arcs with rates spanning several decades).
ct::Ctmc random_chain(std::size_t states, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> log_rate(-2.0, 2.0);
  std::uniform_int_distribution<std::size_t> pick(0, states - 1);
  std::vector<ct::RateTransition> transitions;
  for (std::size_t s = 0; s < states; ++s) {
    transitions.push_back({s, (s + 1) % states, std::pow(10.0, log_rate(rng))});
  }
  for (std::size_t extra = 0; extra < 2 * states; ++extra) {
    const std::size_t from = pick(rng);
    std::size_t to = pick(rng);
    if (to == from) to = (to + 1) % states;
    transitions.push_back({from, to, std::pow(10.0, log_rate(rng))});
  }
  return ct::Ctmc(states, transitions);
}

// pi(t) state by state: one one-point curve per state's indicator reward.
std::vector<double> distribution(ct::TransientSolver& solver, const std::vector<double>& initial,
                                 double t) {
  std::vector<double> pi(initial.size());
  std::vector<double> indicator(initial.size(), 0.0);
  std::vector<double> point;
  for (std::size_t s = 0; s < initial.size(); ++s) {
    indicator[s] = 1.0;
    (void)solver.reward_curve(initial, indicator, {t}, point);
    pi[s] = point[0];
    indicator[s] = 0.0;
  }
  return pi;
}

}  // namespace

TEST(TransientSolver, RequiresPrepare) {
  ct::TransientSolver solver;
  EXPECT_FALSE(solver.prepared());
  std::vector<double> values;
  EXPECT_THROW((void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {1.0}, values),
               std::logic_error);
  ct::Ctmc empty;
  EXPECT_THROW(solver.prepare(empty), std::invalid_argument);
}

TEST(TransientSolver, TwoStateClosedForm) {
  const double l = 0.7, mu = 1.3;
  const ct::Ctmc c = up_down(l, mu);
  ct::TransientSolver solver;
  solver.prepare(c);
  for (double t : {0.0, 0.1, 0.5, 1.0, 3.0, 10.0}) {
    const std::vector<double> pi = distribution(solver, {1.0, 0.0}, t);
    const double expected = mu / (l + mu) + l / (l + mu) * std::exp(-(l + mu) * t);
    EXPECT_NEAR(pi[0], expected, 1e-9) << "t=" << t;
    EXPECT_NEAR(pi[0] + pi[1], 1.0, 1e-12);
  }
}

TEST(TransientSolver, MatchesNaiveOracleOnRandomChains) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const ct::Ctmc c = random_chain(9, seed);
    ct::TransientSolver solver;
    solver.prepare(c);
    std::vector<double> initial(9, 0.0);
    initial[seed % 9] = 1.0;
    for (double t : {0.05, 0.4, 2.0, 17.0}) {
      const std::vector<double> pi = distribution(solver, initial, t);
      const std::vector<double> oracle = naive_transient(c, initial, t);
      for (std::size_t s = 0; s < 9; ++s) {
        EXPECT_NEAR(pi[s], oracle[s], 1e-10) << "seed=" << seed << " t=" << t << " s=" << s;
      }
    }
  }
}

TEST(TransientSolver, AccumulatedRewardClosedForm) {
  // Pure death at rate l from the up state: E[uptime over [0,t]] =
  // (1 - e^{-lt})/l.  Exercises both the exact series and the inserted
  // diagonal of the absorbing state's empty generator row.
  const double l = 0.3;
  const ct::Ctmc c(2, {{0, 1, l}});
  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> values;
  for (double t : {0.5, 2.0, 9.0}) {
    const double expected = (1.0 - std::exp(-l * t)) / l;
    EXPECT_NEAR(solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {t}, values), expected, 1e-10)
        << "t=" << t;
  }
  // The absorbing distribution itself.
  (void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {4.0}, values);
  EXPECT_NEAR(values[0], std::exp(-l * 4.0), 1e-10);
}

TEST(TransientSolver, AccumulatedMatchesFineQuadratureOfInstantaneous) {
  const ct::Ctmc c = random_chain(7, 21);
  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> initial(7, 0.0);
  initial[0] = 1.0;
  std::vector<double> rewards(7);
  for (std::size_t s = 0; s < 7; ++s) rewards[s] = static_cast<double>(s) / 7.0;
  const double t = 3.0;
  // Trapezoid over 4096 panels of the instantaneous reward, every node
  // evaluated from t = 0 by the oracle.
  const std::size_t panels = 4096;
  const auto oracle_reward = [&](double s) {
    double r = 0.0;
    const std::vector<double> pi = naive_transient(c, initial, s);
    for (std::size_t i = 0; i < 7; ++i) r += pi[i] * rewards[i];
    return r;
  };
  double quad = 0.0;
  double prev = oracle_reward(0.0);
  for (std::size_t k = 1; k <= panels; ++k) {
    const double cur = oracle_reward(t * static_cast<double>(k) / panels);
    quad += 0.5 * (prev + cur) * (t / panels);
    prev = cur;
  }
  std::vector<double> values;
  EXPECT_NEAR(solver.reward_curve(initial, rewards, {t}, values), quad, 1e-6);
}

TEST(TransientSolver, CurveMatchesIndependentPointEvaluations) {
  // The one-expansion curve must agree with evaluating each point from
  // t = 0 on its own.
  const ct::Ctmc c = random_chain(8, 5);
  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> initial(8, 0.0);
  initial[3] = 1.0;
  std::vector<double> rewards(8, 0.0);
  rewards[0] = rewards[1] = 1.0;
  const std::vector<double> grid = {0.0, 0.2, 0.9, 0.9, 4.5};  // duplicate allowed
  std::vector<double> values;
  const double accumulated = solver.reward_curve(initial, rewards, grid, values);
  ASSERT_EQ(values.size(), grid.size());
  const auto dot = [&rewards](const std::vector<double>& v) {
    double r = 0.0;
    for (std::size_t s = 0; s < v.size(); ++s) r += v[s] * rewards[s];
    return r;
  };
  for (std::size_t j = 0; j < grid.size(); ++j) {
    EXPECT_NEAR(values[j], dot(naive_transient(c, initial, grid[j])), 1e-9) << "j=" << j;
  }
  std::vector<double> occupancy;
  (void)naive_transient(c, initial, grid.back(), 1e-12, &occupancy);
  EXPECT_NEAR(accumulated, dot(occupancy), 1e-9);
}

TEST(TransientSolver, CurveValidation) {
  const ct::Ctmc c = up_down(1.0, 1.0);
  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> values;
  EXPECT_THROW((void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {}, values),
               std::invalid_argument);
  EXPECT_THROW((void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {1.0, 0.5}, values),
               std::invalid_argument);
  EXPECT_THROW((void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {-1.0, 0.5}, values),
               std::invalid_argument);
  EXPECT_THROW((void)solver.reward_curve({1.0}, {1.0, 0.0}, {1.0}, values),
               std::invalid_argument);
}

TEST(TransientSolver, NonFiniteTimesAreRejected) {
  // NaN fails every ordered comparison and +inf passes them.  Unchecked,
  // NaN sizes a ~2^63-term Poisson window, +inf returns the initial
  // distribution, and a NaN grid point reads 0.
  ct::TransientSolver solver;
  solver.prepare(up_down(1.0, 1.0));
  const std::vector<double> initial{1.0, 0.0};
  const std::vector<double> rewards{1.0, 0.0};
  std::vector<double> out;
  std::vector<std::vector<double>> curves;
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW((void)solver.reward_curve(initial, rewards, {bad}, out),
                 std::invalid_argument);
    EXPECT_THROW((void)solver.reward_curve(initial, rewards, {0.0, bad, 2.0}, out),
                 std::invalid_argument);
    EXPECT_THROW((void)solver.reward_curve(initial, rewards, {0.0, 1.0, bad}, out),
                 std::invalid_argument);
    EXPECT_THROW((void)solver.reward_curve_multi({initial}, rewards, {bad}, curves),
                 std::invalid_argument);
  }
  EXPECT_EQ(solver.diagnostics().matvec_count, 0u);  // refused before any sweep
}

TEST(TransientSolver, HugeFiniteTimesExceedMaxTerms) {
  // Lambda*t ~ 1e30 is finite but beyond size_t: refused as a too-long
  // expansion before the Poisson mode is converted to an integer.
  ct::TransientSolver solver;
  solver.prepare(up_down(1.0, 1.0));
  const std::vector<double> initial{1.0, 0.0};
  std::vector<double> out;
  EXPECT_THROW((void)solver.reward_curve(initial, {1.0, 0.0}, {1e30}, out), std::runtime_error);
  EXPECT_THROW((void)solver.reward_curve(initial, {1.0, 0.0}, {0.0, 1e30}, out),
               std::runtime_error);
  EXPECT_EQ(solver.diagnostics().matvec_count, 0u);
}

TEST(TransientSolver, FoxGlynnWindowSkipsTheLeftTail) {
  // Lambda*t ~ 2000: the window must start far right of k = 0 and still
  // reproduce the (here: steady-state) answer.
  const ct::Ctmc c = up_down(100.0, 100.0);
  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> up;
  (void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {10.0}, up);
  EXPECT_NEAR(up[0], 0.5, 1e-9);
  const ct::TransientDiagnostics& d = solver.diagnostics();
  EXPECT_GT(d.left_point, 0u);
  EXPECT_GT(d.right_point, d.left_point);
  EXPECT_GE(d.poisson_mass, 1.0 - 1e-9);
  EXPECT_NEAR(d.uniformization_rate, 102.0, 1e-9);  // 1.02 * max exit rate
}

TEST(TransientSolver, MaxTermsOverflowThrows) {
  const ct::Ctmc c = up_down(1000.0, 1000.0);
  ct::TransientOptions options;
  options.max_terms = 8;
  ct::TransientSolver solver(options);
  solver.prepare(c);
  std::vector<double> values;
  EXPECT_THROW((void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {10.0}, values),
               std::runtime_error);
}

TEST(TransientSolver, MaxTermsBoundsACurveLikeItsLastPoint) {
  // One expansion of the t_G window serves the whole curve, so max_terms
  // caps a curve exactly where it caps a one-point curve at t_G, however
  // short the gaps between its grid points.
  ct::TransientOptions options;
  options.max_terms = 60;
  ct::TransientSolver solver(options);
  solver.prepare(up_down(1.0, 1.0));
  const auto unit_grid = [](double horizon) {
    std::vector<double> grid;
    for (double t = 1.0; t <= horizon; t += 1.0) grid.push_back(t);
    return grid;
  };
  std::vector<double> values;
  EXPECT_NO_THROW((void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {5.0}, values));
  EXPECT_NO_THROW((void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, unit_grid(5.0), values));
  EXPECT_THROW((void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {40.0}, values),
               std::runtime_error);
  EXPECT_THROW((void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, unit_grid(40.0), values),
               std::runtime_error);
}

TEST(TransientSolver, CurveSweepsDoNotGrowWithTheGrid) {
  // Asymptotic guard, by counter: one Poisson expansion serves the whole
  // grid, so 2-, 16- and 161-point grids over the same horizon sweep the
  // matrix exactly right_point(Lambda * t_G) times — the cost of a one-point
  // curve at t_G alone.
  const ct::Ctmc c = random_chain(9, 7);
  std::vector<double> initial(9, 0.0);
  initial[4] = 1.0;
  std::vector<double> rewards(9, 0.0);
  rewards[0] = rewards[2] = 1.0;
  const double horizon = 24.0;

  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> point;
  (void)solver.reward_curve(initial, rewards, {horizon}, point);
  const std::size_t right_point = solver.diagnostics().right_point;
  ASSERT_EQ(solver.diagnostics().matvec_count, right_point);
  ASSERT_GT(right_point, 100u);

  for (std::size_t points : {2u, 16u, 161u}) {
    std::vector<double> grid(points);
    for (std::size_t j = 0; j < points; ++j) {
      grid[j] = horizon * static_cast<double>(j) / static_cast<double>(points - 1);
    }
    solver.prepare(c);  // resets the counters
    std::vector<double> values;
    (void)solver.reward_curve(initial, rewards, grid, values);
    EXPECT_EQ(solver.diagnostics().matvec_count, right_point) << points << " points";
    EXPECT_EQ(solver.diagnostics().right_point, right_point) << points << " points";

    solver.prepare(c);
    std::vector<std::vector<double>> curves;
    (void)solver.reward_curve_multi({initial, initial, initial}, rewards, grid, curves);
    EXPECT_EQ(solver.diagnostics().matvec_count, right_point) << points << "-point panel";
  }
}

TEST(TransientSolver, PrepareIsLinearInTransitions) {
  // Asymptotic guard: the chain assembles its generator and exit rates in
  // one pass over the transition list, and prepare() reads them once.  A
  // per-state scan of that list would make ~5e11 transition visits on this
  // chain, far past the suite's timeout.
  const std::size_t n = 500'000;
  std::vector<ct::RateTransition> transitions;
  transitions.reserve(2 * n);
  for (std::size_t s = 0; s + 1 < n; ++s) {
    transitions.push_back({s, s + 1, 1.0});
    transitions.push_back({s + 1, s, 2.0});
  }
  const ct::Ctmc c(n, transitions);
  ct::TransientSolver solver;
  solver.prepare(c);
  EXPECT_EQ(solver.state_count(), n);
  EXPECT_DOUBLE_EQ(solver.diagnostics().uniformization_rate, 3.0 * 1.02);
}

TEST(TransientSolver, WorkspaceReusesStructureAcrossRateChanges) {
  ct::TransientSolver solver;
  solver.prepare(up_down(0.5, 1.5));
  EXPECT_EQ(solver.structure_builds(), 1u);
  EXPECT_EQ(solver.structure_reuses(), 0u);

  // Same chain again: value-refresh fast path.
  solver.prepare(up_down(0.5, 1.5));
  EXPECT_EQ(solver.structure_builds(), 1u);
  EXPECT_EQ(solver.structure_reuses(), 1u);

  // Same structure, different rates: still the fast path, and the refreshed
  // values must answer for the NEW chain, not the cached one.
  const double l = 2.0, mu = 0.25;
  solver.prepare(up_down(l, mu));
  EXPECT_EQ(solver.structure_builds(), 1u);
  EXPECT_EQ(solver.structure_reuses(), 2u);
  std::vector<double> up;
  (void)solver.reward_curve({1.0, 0.0}, {1.0, 0.0}, {0.8}, up);
  const double expected = mu / (l + mu) + l / (l + mu) * std::exp(-(l + mu) * 0.8);
  EXPECT_NEAR(up[0], expected, 1e-9);

  // A different structure rebuilds.
  solver.prepare(random_chain(5, 3));
  EXPECT_EQ(solver.structure_builds(), 2u);
}

TEST(TransientSolver, ZeroHorizonAndFrozenChain) {
  const ct::Ctmc c = up_down(1.0, 1.0);
  ct::TransientSolver solver;
  solver.prepare(c);
  std::vector<double> values;
  EXPECT_DOUBLE_EQ(solver.reward_curve({0.25, 0.75}, {1.0, 0.0}, {0.0}, values), 0.0);
  EXPECT_DOUBLE_EQ(values[0], 0.25);

  // A chain with no transitions at all: pi(t) = pi(0), accumulated is linear.
  const ct::Ctmc frozen(3, {});
  ct::TransientSolver frozen_solver;
  frozen_solver.prepare(frozen);
  (void)frozen_solver.reward_curve({0.2, 0.3, 0.5}, {0.0, 1.0, 0.0}, {100.0}, values);
  EXPECT_DOUBLE_EQ(values[0], 0.3);
  EXPECT_NEAR(frozen_solver.reward_curve({0.2, 0.3, 0.5}, {1.0, 0.0, 0.0}, {10.0}, values), 2.0,
              1e-12);
}
