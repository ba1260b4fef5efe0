#include "patchsec/sim/srn_simulator.hpp"

#include "patchsec/sim/seed_stream.hpp"
#include "patchsec/sim/student_t.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

namespace patchsec::sim {

namespace {

using petri::CompiledNet;
using petri::CompiledTransition;
using petri::Marking;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Replication i's RNG stream is independent of i's neighbors and of which
// thread runs it (the shared counter-based derivation of seed_stream.hpp).
std::mt19937_64 replication_rng(std::uint64_t seed, std::uint64_t replication) {
  return std::mt19937_64(stream_seed(seed, replication));
}

// Reusable per-trajectory buffers: the event loop fires millions of
// transitions, so the enabled list, the per-transition rates, the
// double-buffered marking and the firing target are allocated once and
// recycled.  One workspace per thread; never shared.
struct EventLoopWorkspace {
  std::vector<const CompiledTransition*> enabled;
  std::vector<double> rates;
  Marking marking;
  Marking next;
  std::uint64_t events = 0;
};

// Follow immediate transitions until a tangible marking is reached, sampling
// among competing immediates by weight.  ws.marking is settled in place.
void settle(const CompiledNet& net, EventLoopWorkspace& ws, std::mt19937_64& rng,
            std::size_t max_depth) {
  if (!net.has_immediates()) return;
  for (std::size_t depth = 0; depth <= max_depth; ++depth) {
    net.enabled_immediates_into(ws.marking, ws.enabled);
    if (ws.enabled.empty()) return;
    double total = 0.0;
    for (const CompiledTransition* t : ws.enabled) total += t->weight;
    std::uniform_real_distribution<double> u(0.0, total);
    double pick = u(rng);
    const CompiledTransition* chosen = ws.enabled.back();
    for (const CompiledTransition* t : ws.enabled) {
      pick -= t->weight;
      if (pick <= 0.0) {
        chosen = t;
        break;
      }
    }
    net.fire_into(*chosen, ws.marking, ws.next);
    ws.marking.swap(ws.next);
    ++ws.events;
  }
  throw std::runtime_error("simulator: vanishing loop detected");
}

// The event-selection kernel shared by both trajectory loops (steady-state
// advance, transient curve).  Splitting it here is load-bearing for
// determinism: both loops must consume the RNG identically (one exponential
// draw per tangible sojourn, one uniform draw per firing), so the kernel
// lives in exactly one place.

// Collect the enabled timed transitions and their checked rates into the
// workspace; returns the total rate (0 when the marking is dead).
double collect_timed_rates(const CompiledNet& net, EventLoopWorkspace& ws) {
  net.enabled_timed_into(ws.marking, ws.enabled);
  ws.rates.clear();
  double total_rate = 0.0;
  for (const CompiledTransition* tr : ws.enabled) {
    const double r = net.checked_rate(*tr, ws.marking);
    ws.rates.push_back(r);
    total_rate += r;
  }
  return total_rate;
}

// Pick one collected transition by rate (consuming exactly one uniform
// draw), fire it and settle any immediates.
void fire_one(const CompiledNet& net, EventLoopWorkspace& ws, std::mt19937_64& rng,
              double total_rate, std::size_t max_depth) {
  std::uniform_real_distribution<double> u(0.0, total_rate);
  double pick = u(rng);
  const CompiledTransition* chosen = ws.enabled.back();
  for (std::size_t i = 0; i < ws.enabled.size(); ++i) {
    pick -= ws.rates[i];
    if (pick <= 0.0) {
      chosen = ws.enabled[i];
      break;
    }
  }
  net.fire_into(*chosen, ws.marking, ws.next);
  ws.marking.swap(ws.next);
  ++ws.events;
  settle(net, ws, rng, max_depth);
}

// Advance the trajectory by `horizon` model-time hours.  When `reward` is
// non-null, returns the integral of reward(marking) dt over the horizon;
// otherwise returns 0 (pure warmup).  ws.marking must be tangible on entry
// and is tangible on exit.
double advance(const CompiledNet& net, const petri::RewardFunction* reward, double horizon,
               EventLoopWorkspace& ws, std::mt19937_64& rng, std::size_t max_depth) {
  double reward_time = 0.0;
  double t = 0.0;
  while (t < horizon) {
    const double total_rate = collect_timed_rates(net, ws);
    if (ws.enabled.empty()) {
      // Dead marking: the reward holds for the remainder of the horizon.
      if (reward != nullptr) reward_time += (*reward)(ws.marking) * (horizon - t);
      return reward_time;
    }
    std::exponential_distribution<double> dwell_dist(total_rate);
    double dwell = dwell_dist(rng);
    if (t + dwell > horizon) dwell = horizon - t;
    if (reward != nullptr) reward_time += (*reward)(ws.marking) * dwell;
    t += dwell;
    if (t >= horizon) return reward_time;
    fire_one(net, ws, rng, total_rate, max_depth);
  }
  return reward_time;
}

// Sample mean and 95% CI half width of `values` (n >= 2), summed in index
// order so the result is independent of how the values were produced.
void mean_and_half_width(const std::vector<double>& values, double& mean, double& half_width) {
  const double n = static_cast<double>(values.size());
  double sum = 0.0;
  for (double v : values) sum += v;
  mean = sum / n;
  double var = 0.0;
  for (double v : values) var += (v - mean) * (v - mean);
  var /= n - 1.0;
  half_width = t_quantile_975(values.size() - 1) * std::sqrt(var / n);
}

petri::RewardFunction indicator(const std::function<bool(const Marking&)>& predicate) {
  return [&predicate](const Marking& m) { return predicate(m) ? 1.0 : 0.0; };
}

// The replication driver shared by every replicated estimator (steady-state
// and transient curve alike): run body(i, ws) for i in [0, n) over at most
// `threads_option` workers (0 = hardware concurrency), one EventLoopWorkspace
// per worker, failing fast on the first exception.  Each replication owns its
// counter-based RNG stream and writes into per-replication slots, so the
// threaded run computes exactly what the serial run computes, in any
// schedule; callers reduce the slots serially in index order, which makes
// every estimate bit-identical across thread counts.  Returns the worker
// count actually used (for SimDiagnostics::threads_used).
template <typename Body>
unsigned run_replications(std::size_t n, unsigned threads_option, const Body& body) {
  unsigned workers = threads_option != 0 ? threads_option : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  if (workers > n) workers = static_cast<unsigned>(n);

  if (workers <= 1) {
    EventLoopWorkspace ws;
    for (std::size_t i = 0; i < n; ++i) body(i, ws);
    return 1;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto worker = [&] {
    EventLoopWorkspace ws;
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      try {
        body(i, ws);
      } catch (...) {
        next.store(n);  // cancel the remaining queue: fail fast
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  try {
    for (unsigned t = 0; t < workers; ++t) threads.emplace_back(worker);
  } catch (...) {
    // Thread spawn failed partway (std::system_error): drain the queue so
    // already-running workers finish, join them, then propagate — a joinable
    // std::thread destructor would call std::terminate.
    next.store(n);
    for (std::thread& t : threads) t.join();
    throw;
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return workers;
}

}  // namespace

void SimulationOptions::validate() const {
  // An infinite horizon never returns, and NaN fails every ordered
  // comparison, so both hours must be finite as well as positive.
  if (!(warmup_hours > 0.0) || !std::isfinite(warmup_hours)) {
    throw std::invalid_argument("SimulationOptions: warmup_hours must be finite and positive");
  }
  if (replications < 2) {
    throw std::invalid_argument("SimulationOptions: need at least 2 replications");
  }
  if (!(horizon_hours > 0.0) || !std::isfinite(horizon_hours)) {
    throw std::invalid_argument("SimulationOptions: horizon_hours must be finite and positive");
  }
}

SrnSimulator::SrnSimulator(const petri::SrnModel& model) : model_(model), net_(model) {}

SimulationEstimate SrnSimulator::steady_state_reward_replicated(
    const petri::RewardFunction& reward, const SimulationOptions& options) const {
  if (!reward) throw std::invalid_argument("steady_state_reward_replicated: null reward");
  options.validate();

  const auto start = Clock::now();
  const std::size_t n = options.replications;
  std::vector<double> rep_means(n, 0.0);
  std::vector<std::uint64_t> rep_events(n, 0);

  const unsigned workers = run_replications(
      n, options.threads, [&](std::size_t i, EventLoopWorkspace& ws) {
        std::mt19937_64 rng = replication_rng(options.seed, i);
        const std::uint64_t events_before = ws.events;
        ws.marking = model_.initial_marking();
        settle(net_, ws, rng, options.max_vanishing_depth);
        (void)advance(net_, nullptr, options.warmup_hours, ws, rng, options.max_vanishing_depth);
        const double reward_time =
            advance(net_, &reward, options.horizon_hours, ws, rng, options.max_vanishing_depth);
        rep_means[i] = reward_time / options.horizon_hours;
        rep_events[i] = ws.events - events_before;
      });

  SimulationEstimate est;
  mean_and_half_width(rep_means, est.mean, est.half_width_95);
  est.diagnostics.replications = n;
  est.diagnostics.half_width_95 = est.half_width_95;
  for (std::uint64_t e : rep_events) est.diagnostics.events_fired += e;
  est.diagnostics.threads_used = workers;
  est.diagnostics.wall_time_seconds = seconds_since(start);
  return est;
}

TransientCurveEstimate SrnSimulator::transient_reward_curve(const petri::RewardFunction& reward,
                                                            const std::vector<double>& time_points,
                                                            const SimulationOptions& options,
                                                            const petri::Marking* start) const {
  if (!reward) throw std::invalid_argument("transient_reward_curve: null reward");
  if (time_points.empty()) throw std::invalid_argument("transient_reward_curve: empty time grid");
  double previous = 0.0;
  for (double t : time_points) {
    if (!std::isfinite(t)) {
      throw std::invalid_argument("transient_reward_curve: non-finite time point");
    }
    if (t < 0.0) throw std::invalid_argument("transient_reward_curve: negative time point");
    if (t < previous) {
      throw std::invalid_argument("transient_reward_curve: time grid must be ascending");
    }
    previous = t;
  }
  if (options.replications < 2) {
    throw std::invalid_argument("SimulationOptions: need at least 2 replications");
  }
  if (start != nullptr && start->size() != model_.place_count()) {
    throw std::invalid_argument("transient_reward_curve: start marking size mismatch");
  }

  const auto wall_start = Clock::now();
  const std::size_t n = options.replications;
  const std::size_t points = time_points.size();
  const double horizon = time_points.back();
  std::vector<double> rep_values(n * points, 0.0);  // row-major per replication
  std::vector<double> rep_interval(n, 0.0);
  std::vector<std::uint64_t> rep_events(n, 0);

  const unsigned workers = run_replications(
      n, options.threads, [&](std::size_t i, EventLoopWorkspace& ws) {
        std::mt19937_64 rng = replication_rng(options.seed, i);
        const std::uint64_t events_before = ws.events;
        ws.marking = start != nullptr ? *start : model_.initial_marking();
        settle(net_, ws, rng, options.max_vanishing_depth);

        double now = 0.0;
        double integral = 0.0;
        std::size_t g = 0;
        for (;;) {
          const double r = reward(ws.marking);
          const double total_rate = collect_timed_rates(net_, ws);
          double next_event = horizon;
          bool fires = false;
          if (!ws.enabled.empty()) {
            std::exponential_distribution<double> dwell(total_rate);
            next_event = now + dwell(rng);
            fires = next_event < horizon;
          }
          // The current marking holds on [now, next_event): record it at
          // every grid point in that window and accumulate its reward-time.
          const double hold_until = fires ? next_event : horizon;
          while (g < points && time_points[g] < hold_until) {
            rep_values[i * points + g] = r;
            ++g;
          }
          integral += r * (hold_until - now);
          if (!fires) {
            // Dead marking or the next event falls past the horizon: the
            // marking also covers any grid points at exactly the horizon.
            while (g < points) {
              rep_values[i * points + g] = r;
              ++g;
            }
            break;
          }
          now = next_event;
          fire_one(net_, ws, rng, total_rate, options.max_vanishing_depth);
        }
        rep_interval[i] = horizon > 0.0 ? integral / horizon : reward(ws.marking);
        rep_events[i] = ws.events - events_before;
      });

  TransientCurveEstimate est;
  est.time_points = time_points;
  est.mean.resize(points);
  est.half_width_95.resize(points);
  // Serial, index-ordered reductions (one column at a time): bit-identical
  // across thread counts.
  std::vector<double> column(n);
  for (std::size_t j = 0; j < points; ++j) {
    for (std::size_t i = 0; i < n; ++i) column[i] = rep_values[i * points + j];
    mean_and_half_width(column, est.mean[j], est.half_width_95[j]);
  }
  mean_and_half_width(rep_interval, est.interval_mean, est.interval_half_width_95);
  est.diagnostics.replications = n;
  est.diagnostics.half_width_95 = est.interval_half_width_95;
  for (std::uint64_t e : rep_events) est.diagnostics.events_fired += e;
  est.diagnostics.threads_used = workers;
  est.diagnostics.wall_time_seconds = seconds_since(wall_start);
  return est;
}

SimulationEstimate SrnSimulator::steady_state_probability_replicated(
    const std::function<bool(const petri::Marking&)>& predicate,
    const SimulationOptions& options) const {
  if (!predicate) {
    throw std::invalid_argument("steady_state_probability_replicated: null predicate");
  }
  return steady_state_reward_replicated(indicator(predicate), options);
}

}  // namespace patchsec::sim
