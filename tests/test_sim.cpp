// Monte-Carlo simulator tests: agreement with closed forms and with the
// analytic SRN solver on small nets (the independent-oracle property), the
// threaded independent-replication engine's determinism contract, and
// SimulationOptions validation.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "patchsec/petri/reachability.hpp"
#include "patchsec/sim/srn_simulator.hpp"

namespace pt = patchsec::petri;
namespace sm = patchsec::sim;

namespace {

pt::SrnModel up_down_net(double fail_rate, double repair_rate) {
  pt::SrnModel net;
  const auto up = net.add_place("up", 1);
  const auto down = net.add_place("down", 0);
  const auto fail = net.add_timed_transition("fail", fail_rate);
  net.add_input_arc(fail, up);
  net.add_output_arc(fail, down);
  const auto repair = net.add_timed_transition("repair", repair_rate);
  net.add_input_arc(repair, down);
  net.add_output_arc(repair, up);
  return net;
}

}  // namespace

TEST(Simulator, ImmediateBranchWeightsRespected) {
  // src -(timed)-> mid, mid resolves 1:3 into a/b; both return to src.
  pt::SrnModel net;
  const auto src = net.add_place("src", 1);
  const auto mid = net.add_place("mid", 0);
  const auto a = net.add_place("a", 0);
  const auto b = net.add_place("b", 0);
  const auto go = net.add_timed_transition("go", 1.0);
  net.add_input_arc(go, src);
  net.add_output_arc(go, mid);
  const auto pa = net.add_immediate_transition("pa", 1.0);
  net.add_input_arc(pa, mid);
  net.add_output_arc(pa, a);
  const auto pb = net.add_immediate_transition("pb", 3.0);
  net.add_input_arc(pb, mid);
  net.add_output_arc(pb, b);
  const auto ra = net.add_timed_transition("ra", 1.0);
  net.add_input_arc(ra, a);
  net.add_output_arc(ra, src);
  const auto rb = net.add_timed_transition("rb", 1.0);
  net.add_input_arc(rb, b);
  net.add_output_arc(rb, src);

  sm::SrnSimulator simulator(net);
  sm::SimulationOptions opt;
  opt.seed = 7;
  opt.warmup_hours = 50.0;
  opt.horizon_hours = 1000.0;
  opt.replications = 10;
  const auto pa_est = simulator.steady_state_probability_replicated(
      [a](const pt::Marking& m) { return m[a] == 1; }, opt);
  const auto pb_est = simulator.steady_state_probability_replicated(
      [b](const pt::Marking& m) { return m[b] == 1; }, opt);
  EXPECT_NEAR(pb_est.mean / pa_est.mean, 3.0, 0.35);
}

TEST(Simulator, DeadMarkingHoldsRewardForever) {
  // One-shot net: token drains and nothing else can fire; availability of
  // the drained state converges to ~1 over a long horizon.
  pt::SrnModel net;
  const auto p = net.add_place("p", 1);
  const auto q = net.add_place("q", 0);
  const auto t = net.add_timed_transition("t", 10.0);
  net.add_input_arc(t, p);
  net.add_output_arc(t, q);

  sm::SrnSimulator simulator(net);
  sm::SimulationOptions opt;
  opt.seed = 3;
  opt.warmup_hours = 10.0;
  opt.horizon_hours = 100.0;
  opt.replications = 4;
  const auto est = simulator.steady_state_probability_replicated(
      [q](const pt::Marking& m) { return m[q] == 1; }, opt);
  EXPECT_GT(est.mean, 0.999);
}

// Every unusable knob throws std::invalid_argument from validate() with a
// message naming the knob — one case per satellite requirement.
TEST(SimulationOptions, ValidateRejectsEachBadKnob) {
  const auto expect_throw = [](sm::SimulationOptions opt, const std::string& fragment) {
    try {
      opt.validate();
      FAIL() << "expected std::invalid_argument mentioning '" << fragment << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    }
  };
  sm::SimulationOptions opt;
  EXPECT_NO_THROW(opt.validate());

  opt = {};
  opt.warmup_hours = 0.0;
  expect_throw(opt, "warmup_hours");
  opt = {};
  opt.warmup_hours = -10.0;
  expect_throw(opt, "warmup_hours");
  opt = {};
  opt.warmup_hours = std::nan("");
  expect_throw(opt, "warmup_hours");
  opt = {};
  opt.warmup_hours = HUGE_VAL;
  expect_throw(opt, "warmup_hours");

  opt = {};
  opt.replications = 0;
  expect_throw(opt, "replications");
  opt = {};
  opt.replications = 1;
  expect_throw(opt, "replications");

  opt = {};
  opt.horizon_hours = 0.0;
  expect_throw(opt, "horizon_hours");
  opt = {};
  opt.horizon_hours = HUGE_VAL;
  expect_throw(opt, "horizon_hours");
}

TEST(SimulationOptions, ReplicatedEngineValidates) {
  const pt::SrnModel net = up_down_net(1.0, 1.0);
  sm::SrnSimulator simulator(net);
  sm::SimulationOptions opt;
  opt.replications = 0;
  EXPECT_THROW(
      (void)simulator.steady_state_reward_replicated([](const pt::Marking&) { return 1.0; }, opt),
      std::invalid_argument);
  EXPECT_THROW((void)simulator.steady_state_reward_replicated(nullptr, {}),
               std::invalid_argument);
  EXPECT_THROW((void)simulator.steady_state_probability_replicated(nullptr, {}),
               std::invalid_argument);
}

TEST(Simulator, TokenOverflowThrowsInsteadOfWrapping) {
  // Firing `pump` would put 5,000,000,000 tokens in `a`, past TokenCount.
  pt::SrnModel net;
  const auto a = net.add_place("a", 3'000'000'000u);
  const auto pump = net.add_timed_transition("pump", 1.0);
  net.add_output_arc(pump, a, 2'000'000'000u);
  sm::SrnSimulator simulator(net);
  sm::SimulationOptions opt;
  opt.replications = 2;
  opt.threads = 1;
  EXPECT_THROW(
      (void)simulator.steady_state_reward_replicated([](const pt::Marking&) { return 1.0; }, opt),
      std::overflow_error);
  EXPECT_THROW((void)simulator.transient_reward_curve([](const pt::Marking&) { return 1.0; },
                                                      {0.0, 100.0}, opt),
               std::overflow_error);
}

TEST(ReplicationEngine, UpDownAvailabilityWithinConfidenceInterval) {
  const double lambda = 0.05, mu = 0.45;
  const pt::SrnModel net = up_down_net(lambda, mu);
  sm::SrnSimulator simulator(net);
  sm::SimulationOptions opt;
  opt.seed = 1234;
  opt.warmup_hours = 200.0;
  opt.horizon_hours = 2000.0;
  opt.replications = 24;
  opt.threads = 1;
  const auto est = simulator.steady_state_probability_replicated(
      [&net](const pt::Marking& m) { return m[net.place("up")] == 1; }, opt);
  const double expected = mu / (lambda + mu);
  EXPECT_NEAR(est.mean, expected, 3.0 * std::max(est.half_width_95, 1e-3));
  EXPECT_GT(est.half_width_95, 0.0);
  EXPECT_EQ(est.diagnostics.replications, 24u);
  EXPECT_GT(est.diagnostics.events_fired, 0u);
  EXPECT_GE(est.diagnostics.wall_time_seconds, 0.0);
  EXPECT_EQ(est.diagnostics.threads_used, 1u);
}

// The determinism contract of the tentpole: for a fixed seed the replicated
// estimate (mean, half width, events) is bit-identical regardless of thread
// count, and repeated runs reproduce it.
TEST(ReplicationEngine, BitIdenticalAcrossThreadCounts) {
  const pt::SrnModel net = up_down_net(0.3, 1.1);
  sm::SrnSimulator simulator(net);
  sm::SimulationOptions opt;
  opt.seed = 77;
  opt.warmup_hours = 50.0;
  opt.horizon_hours = 500.0;
  opt.replications = 12;
  const auto reward = [&net](const pt::Marking& m) { return m[net.place("up")] == 1; };

  opt.threads = 1;
  const auto serial = simulator.steady_state_probability_replicated(reward, opt);
  const auto serial_again = simulator.steady_state_probability_replicated(reward, opt);
  for (unsigned threads : {2u, 3u, 8u}) {
    opt.threads = threads;
    const auto threaded = simulator.steady_state_probability_replicated(reward, opt);
    EXPECT_DOUBLE_EQ(threaded.mean, serial.mean) << threads << " threads";
    EXPECT_DOUBLE_EQ(threaded.half_width_95, serial.half_width_95) << threads << " threads";
    EXPECT_EQ(threaded.diagnostics.events_fired, serial.diagnostics.events_fired)
        << threads << " threads";
  }
  EXPECT_DOUBLE_EQ(serial_again.mean, serial.mean);
  EXPECT_DOUBLE_EQ(serial_again.half_width_95, serial.half_width_95);
}

TEST(ReplicationEngine, AgreesWithAnalyticSolverOnThreeStateNet) {
  pt::SrnModel net;
  const auto a = net.add_place("a", 1);
  const auto b = net.add_place("b", 0);
  const auto c = net.add_place("c", 0);
  const auto t1 = net.add_timed_transition("t1", 1.0);
  net.add_input_arc(t1, a);
  net.add_output_arc(t1, b);
  const auto t2 = net.add_timed_transition("t2", 2.0);
  net.add_input_arc(t2, b);
  net.add_output_arc(t2, c);
  const auto t3 = net.add_timed_transition("t3", 4.0);
  net.add_input_arc(t3, c);
  net.add_output_arc(t3, a);

  const pt::SrnAnalyzer analyzer(net);
  const double analytic = analyzer.probability([a](const pt::Marking& m) { return m[a] == 1; });

  sm::SrnSimulator simulator(net);
  sm::SimulationOptions opt;
  opt.seed = 99;
  opt.warmup_hours = 20.0;
  opt.horizon_hours = 400.0;
  opt.replications = 32;
  opt.threads = 2;
  const auto est = simulator.steady_state_probability_replicated(
      [a](const pt::Marking& m) { return m[a] == 1; }, opt);
  EXPECT_NEAR(est.mean, analytic, 3.0 * std::max(est.half_width_95, 1e-3));
  EXPECT_TRUE(est.contains(est.mean));
  EXPECT_TRUE(est.contains(est.mean + est.half_width_95 * 0.99));
  EXPECT_FALSE(est.contains(est.mean + est.half_width_95 * 1.01));
  // Rescaling the CI to a wider z admits more.
  EXPECT_TRUE(est.contains(est.mean + est.half_width_95 * 1.01, 3.0));
}

// ---------- finite-horizon transient curve estimator -------------------------

TEST(TransientCurve, MatchesClosedFormAtEveryGridPoint) {
  const double lambda = 0.8, mu = 1.6;
  const pt::SrnModel net = up_down_net(lambda, mu);
  sm::SrnSimulator simulator(net);
  const auto up_place = net.place("up");
  const auto reward = [up_place](const pt::Marking& m) { return m[up_place] == 1 ? 1.0 : 0.0; };
  sm::SimulationOptions opt;
  opt.seed = 99;
  opt.replications = 4000;
  const std::vector<double> grid = {0.0, 0.1, 0.5, 2.0, 5.0};
  const sm::TransientCurveEstimate est = simulator.transient_reward_curve(reward, grid, opt);
  ASSERT_EQ(est.mean.size(), grid.size());
  ASSERT_EQ(est.half_width_95.size(), grid.size());
  EXPECT_EQ(est.time_points, grid);
  for (std::size_t j = 0; j < grid.size(); ++j) {
    const double t = grid[j];
    const double closed =
        mu / (lambda + mu) + lambda / (lambda + mu) * std::exp(-(lambda + mu) * t);
    EXPECT_NEAR(est.mean[j], closed, 3.0 * std::max(est.half_width_95[j], 1e-3)) << "t=" << t;
  }
  // t = 0 is the (deterministic) start state.
  EXPECT_DOUBLE_EQ(est.mean[0], 1.0);
  // Interval availability over [0, 5]: (1/T) int_0^T P(up at s) ds, closed
  // form from integrating the expression above.
  const double t_back = grid.back();
  const double closed_interval =
      mu / (lambda + mu) +
      lambda / ((lambda + mu) * (lambda + mu) * t_back) *
          (1.0 - std::exp(-(lambda + mu) * t_back));
  EXPECT_NEAR(est.interval_mean, closed_interval,
              3.0 * std::max(est.interval_half_width_95, 1e-3));
  EXPECT_GT(est.diagnostics.events_fired, 0u);
  EXPECT_EQ(est.diagnostics.replications, 4000u);
}

TEST(TransientCurve, BitIdenticalAcrossThreadCounts) {
  const pt::SrnModel net = up_down_net(0.3, 0.9);
  sm::SrnSimulator simulator(net);
  const auto up_place = net.place("up");
  const auto reward = [up_place](const pt::Marking& m) { return m[up_place] == 1 ? 1.0 : 0.0; };
  sm::SimulationOptions opt;
  opt.seed = 20170626;
  opt.replications = 64;
  const std::vector<double> grid = {0.5, 1.5, 4.0};

  opt.threads = 1;
  const auto serial = simulator.transient_reward_curve(reward, grid, opt);
  for (unsigned threads : {2u, 4u, 8u}) {
    opt.threads = threads;
    const auto threaded = simulator.transient_reward_curve(reward, grid, opt);
    for (std::size_t j = 0; j < grid.size(); ++j) {
      EXPECT_EQ(serial.mean[j], threaded.mean[j]) << "threads=" << threads << " j=" << j;
      EXPECT_EQ(serial.half_width_95[j], threaded.half_width_95[j])
          << "threads=" << threads << " j=" << j;
    }
    EXPECT_EQ(serial.interval_mean, threaded.interval_mean) << "threads=" << threads;
    EXPECT_EQ(serial.diagnostics.events_fired, threaded.diagnostics.events_fired)
        << "threads=" << threads;
  }
}

TEST(TransientCurve, CustomStartMarkingIsHonored) {
  // Start from the down state instead of the net's initial (up) marking:
  // P(up at t) = (mu/(lambda+mu)) (1 - e^{-(lambda+mu)t}).
  const double lambda = 0.4, mu = 1.2;
  const pt::SrnModel net = up_down_net(lambda, mu);
  sm::SrnSimulator simulator(net);
  const auto up_place = net.place("up");
  const auto reward = [up_place](const pt::Marking& m) { return m[up_place] == 1 ? 1.0 : 0.0; };
  pt::Marking down_start = net.initial_marking();
  down_start[net.place("up")] = 0;
  down_start[net.place("down")] = 1;
  sm::SimulationOptions opt;
  opt.seed = 5;
  opt.replications = 4000;
  const auto est = simulator.transient_reward_curve(reward, {0.0, 1.0}, opt, &down_start);
  EXPECT_DOUBLE_EQ(est.mean[0], 0.0);
  const double closed = mu / (lambda + mu) * (1.0 - std::exp(-(lambda + mu) * 1.0));
  EXPECT_NEAR(est.mean[1], closed, 3.0 * std::max(est.half_width_95[1], 1e-3));
}

TEST(TransientCurve, DeadMarkingHoldsToTheHorizon) {
  // A net whose only transition dies after one firing: past the death the
  // reward must hold for every remaining grid point and the integral.
  pt::SrnModel net;
  const auto up = net.add_place("up", 1);
  const auto gone = net.add_place("gone", 0);
  const auto die = net.add_timed_transition("die", 1000.0);  // dies ~instantly
  net.add_input_arc(die, up);
  net.add_output_arc(die, gone);
  sm::SrnSimulator simulator(net);
  const auto reward = [up](const pt::Marking& m) { return m[up] == 1 ? 1.0 : 0.0; };
  sm::SimulationOptions opt;
  opt.seed = 11;
  opt.replications = 32;
  const auto est = simulator.transient_reward_curve(reward, {5.0, 50.0}, opt);
  EXPECT_DOUBLE_EQ(est.mean[0], 0.0);
  EXPECT_DOUBLE_EQ(est.mean[1], 0.0);
  EXPECT_NEAR(est.interval_mean, 0.0, 1e-3);  // ~1/1000 h of uptime over 50 h
}

TEST(TransientCurve, Validation) {
  const pt::SrnModel net = up_down_net(1.0, 1.0);
  sm::SrnSimulator simulator(net);
  const auto reward = [](const pt::Marking&) { return 1.0; };
  sm::SimulationOptions opt;
  EXPECT_THROW((void)simulator.transient_reward_curve(nullptr, {1.0}, opt),
               std::invalid_argument);
  EXPECT_THROW((void)simulator.transient_reward_curve(reward, {}, opt), std::invalid_argument);
  EXPECT_THROW((void)simulator.transient_reward_curve(reward, {1.0, 0.5}, opt),
               std::invalid_argument);
  EXPECT_THROW((void)simulator.transient_reward_curve(reward, {-1.0}, opt),
               std::invalid_argument);
  // Non-finite points: {1, +inf} would never return and {1, NaN} would pass
  // the ordered checks and report the t = 1 value for the NaN point.
  for (const double bad : {HUGE_VAL, std::nan("")}) {
    EXPECT_THROW((void)simulator.transient_reward_curve(reward, {1.0, bad}, opt),
                 std::invalid_argument);
  }
  opt.replications = 1;
  EXPECT_THROW((void)simulator.transient_reward_curve(reward, {1.0}, opt),
               std::invalid_argument);
  opt.replications = 32;
  pt::Marking bad_size;
  EXPECT_THROW((void)simulator.transient_reward_curve(reward, {1.0}, opt, &bad_size),
               std::invalid_argument);
}
