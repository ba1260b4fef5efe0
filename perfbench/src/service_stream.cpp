// service_stream — one EvalService request.  A single client thread
// pipelines a seeded request stream like eval_daemon does: up to 8 requests
// in flight against an EvalService with the daemon's 2 workers, replies taken
// in submit order.  The stream is built in blocks of 200 requests: 160
// repeats of recently submitted keys (cache hits, or coalesced when the key
// is still in flight), 30 cold steady requests, and 10 transient requests in
// two bursts of 4-6 waves that share one design and cadence, so the workers
// group them into panels.
//
// A request's latency is its submit() call plus, for replies that did not
// come from the cache, the reply's own queue wait and solve time.

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <optional>

#include "common.hpp"
#include "patchsec/service/eval_service.hpp"
#include "replay.hpp"

namespace perfbench {

namespace {

namespace core = patchsec::core;
namespace service = patchsec::service;

using Wave = std::map<ent::ServerRole, unsigned>;

/// 48 cadences, weekly (168 h) to 1,484 h in 28 h steps: with 1,296 steady
/// designs that is 62,208 cold steady keys, enough for a 25 s run at up to
/// ~16k requests/s (3x the rate measured when this was written) before the
/// walk wraps around.
const std::vector<double> kCadences = [] {
  std::vector<double> hours;
  for (int i = 0; i < 48; ++i) hours.push_back(168.0 + 28.0 * i);
  return hours;
}();
constexpr double kPrimeCadence = 2160.0;  // HARM priming; never requested by the stream
constexpr std::size_t kInFlight = 8;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kRepeatsPerBlock = 160;
constexpr std::size_t kColdPerBlock = 30;
constexpr std::size_t kTransientPerBlock = 10;
constexpr std::size_t kRecentKeys = 256;
constexpr unsigned kMaxSteadyTier = 6;
constexpr unsigned kMaxTransientTier = 4;
constexpr double kTailPercentile = 99.0;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kWarmupRequests = 2000;
constexpr std::size_t kCheckEvery = 97;  // sampled replies re-solved on a solo Session
constexpr std::size_t kProbeEvery = 500;  // requests per host-reference window

constexpr std::array<ent::ServerRole, ent::kRoleCount> kRoles{
    ent::ServerRole::kDns, ent::ServerRole::kWeb, ent::ServerRole::kApp, ent::ServerRole::kDb};

std::vector<ent::RedundancyDesign> designs_up_to(unsigned max_tier) {
  std::vector<ent::RedundancyDesign> designs;
  for (unsigned a = 1; a <= max_tier; ++a)
    for (unsigned b = 1; b <= max_tier; ++b)
      for (unsigned c = 1; c <= max_tier; ++c)
        for (unsigned d = 1; d <= max_tier; ++d) designs.push_back(ent::RedundancyDesign{{a, b, c, d}});
  return designs;
}

core::Scenario scenario() {
  core::EngineOptions engine;
  engine.parallel = false;
  return core::Scenario::paper_case_study().with_patch_schedule(kCadences).with_engine(engine);
}

/// The seeded request stream.  Cold steady keys are a seeded permutation of
/// every (design, cadence) pair with tiers of 1-6; transient bursts take a
/// seeded permutation of the (design, cadence) pairs with tiers of 1-4.
/// Both wrap around when used up.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : rng_(seed) {
    for (const ent::RedundancyDesign& d : designs_up_to(kMaxSteadyTier)) {
      for (double c : kCadences) steady_.push_back({d, c});
    }
    for (const ent::RedundancyDesign& d : designs_up_to(kMaxTransientTier)) {
      for (double c : kCadences) transient_.push_back({d, c});
    }
    rng_.shuffle(steady_);
    rng_.shuffle(transient_);
  }

  service::EvalRequest next() {
    if (block_.empty()) fill_block();
    service::EvalRequest request = std::move(block_.front());
    block_.pop_front();
    return request;
  }

 private:
  using Cell = std::pair<ent::RedundancyDesign, double>;

  void remember(const service::EvalRequest& request) {
    if (recent_.size() == kRecentKeys) recent_.pop_front();
    recent_.push_back(request);
  }

  service::EvalRequest cold() {
    const Cell& cell = steady_[steady_next_++ % steady_.size()];
    service::EvalRequest request;
    request.design = cell.first;
    request.patch_interval_hours = cell.second;
    remember(request);
    return request;
  }

  std::vector<service::EvalRequest> burst(std::size_t waves) {
    const Cell& cell = transient_[transient_next_++ % transient_.size()];
    std::vector<Wave> chosen;
    while (chosen.size() < waves) {
      Wave wave;
      for (ent::ServerRole role : kRoles) {
        wave[role] = static_cast<unsigned>(rng_.below(cell.first.count(role) + 1));
      }
      if (std::find(chosen.begin(), chosen.end(), wave) == chosen.end()) chosen.push_back(wave);
    }
    std::vector<service::EvalRequest> requests;
    for (Wave& wave : chosen) {
      service::EvalRequest request;
      request.design = cell.first;
      request.patch_interval_hours = cell.second;
      request.kind = service::RequestKind::kTransient;
      request.wave = std::move(wave);
      remember(request);
      requests.push_back(std::move(request));
    }
    return requests;
  }

  void fill_block() {
    // Slot plan: 'r' repeat, 'c' cold steady, 'b' burst (expanded in place).
    std::vector<char> slots(kRepeatsPerBlock, 'r');
    slots.insert(slots.end(), kColdPerBlock, 'c');
    slots.insert(slots.end(), 2, 'b');
    rng_.shuffle(slots);
    const std::size_t first = 4 + rng_.below(3);  // 4..6 waves; the pair sums to 10
    bool first_burst = true;
    for (char slot : slots) {
      if (slot == 'c' || (slot == 'r' && recent_.empty())) {
        block_.push_back(cold());
      } else if (slot == 'r') {
        block_.push_back(recent_[rng_.below(recent_.size())]);
      } else {
        for (auto& request : burst(first_burst ? first : kTransientPerBlock - first)) {
          block_.push_back(std::move(request));
        }
        first_burst = false;
      }
    }
  }

  Rng rng_;
  std::vector<Cell> steady_;
  std::vector<Cell> transient_;
  std::size_t steady_next_ = 0;
  std::size_t transient_next_ = 0;
  std::deque<service::EvalRequest> block_;
  std::deque<service::EvalRequest> recent_;
};

struct Sampled {
  service::EvalRequest request;
  core::EvalReport report;
};

/// What the client saw over one stretch of the stream.  Latencies and wall
/// time are host-scaled per window of kProbeEvery requests (see
/// reference_kernel_ms); the raw values are kept alongside.
struct StreamStats {
  std::vector<double> latency_ms;
  std::vector<double> raw_latency_ms;
  std::vector<double> host_factors;
  std::vector<double> submit_us;
  std::vector<double> queue_wait_ms;
  std::vector<double> solve_ms;
  std::size_t cache = 0;
  std::size_t coalesced = 0;
  std::size_t transient_solves = 0;
  std::size_t transient_width = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
  double raw_wall_s = 0.0;
  std::vector<Sampled> samples;
};

struct State {
  std::unique_ptr<service::EvalService> service;
  std::unique_ptr<Stream> stream;
};

/// Drive the stream for `seconds` (or exactly `requests` when non-zero).
/// With a trace, each client cycle (one submit, and one reply once the
/// window is full) is a root span with submit and reply-wait children;
/// generating the next request happens before the cycle opens.
StreamStats drive(State& st, double seconds, std::size_t requests, Trace* trace) {
  struct InFlight {
    std::future<service::ServiceReply> reply;
    service::EvalRequest request;
    double submit_s = 0.0;
  };
  StreamStats stats;
  std::deque<InFlight> window;
  std::size_t taken = 0;

  // Take the oldest reply: "service.wait" blocks on its future, then
  // "client.reply" consumes it (records it and releases the report).
  const auto take = [&] {
    InFlight front = std::move(window.front());
    window.pop_front();
    std::optional<service::ServiceReply> reply;
    {
      std::optional<Trace::Scope> span;
      if (trace != nullptr) span.emplace(*trace, "service.wait");
      try {
        reply.emplace(front.reply.get());
      } catch (...) {
        reply.reset();
      }
    }
    std::optional<Trace::Scope> span;
    if (trace != nullptr) span.emplace(*trace, "client.reply");
    if (!reply) {
      ++stats.failed;
      stats.raw_latency_ms.push_back(front.submit_s * 1000.0);
      return;
    }
    double latency_s = front.submit_s;
    if (reply->source == service::ReplySource::kCache) {
      ++stats.cache;
    } else {
      if (reply->source == service::ReplySource::kCoalesced) ++stats.coalesced;
      if (reply->source == service::ReplySource::kSolve &&
          front.request.kind == service::RequestKind::kTransient) {
        ++stats.transient_solves;
        stats.transient_width += reply->batch_width;
      }
      latency_s += reply->queue_wait_seconds + reply->solve_seconds;
      stats.queue_wait_ms.push_back(reply->queue_wait_seconds * 1000.0);
      stats.solve_ms.push_back(reply->solve_seconds * 1000.0);
    }
    stats.raw_latency_ms.push_back(latency_s * 1000.0);
    if (++taken % kCheckEvery == 0) {
      stats.samples.push_back({std::move(front.request), std::move(reply->report)});
    }
    reply.reset();
  };

  // Host-reference windows: a probe opens and closes each window, and the
  // window's latencies and wall time are scaled by the pair.  The window
  // drains first, so the probe runs while the workers are idle and measures
  // the host, not this process's own load.
  double probe = reference_kernel_ms();
  std::size_t window_begin = 0;
  auto window_start = Clock::now();
  const auto close_window = [&] {
    while (!window.empty()) take();
    const double wall = seconds_since(window_start);
    const double after = reference_kernel_ms();
    const double factor = host_factor(probe, after);
    for (std::size_t i = window_begin; i < stats.raw_latency_ms.size(); ++i) {
      stats.latency_ms.push_back(stats.raw_latency_ms[i] * factor);
    }
    window_begin = stats.raw_latency_ms.size();
    stats.wall_s += wall * factor;
    stats.raw_wall_s += wall;
    stats.host_factors.push_back(factor);
    probe = after;
    window_start = Clock::now();
  };

  const auto start = Clock::now();
  std::size_t submitted = 0;
  for (;;) {
    if (requests != 0 ? submitted == requests : seconds_since(start) >= seconds) break;
    InFlight entry;
    entry.request = st.stream->next();
    std::optional<Trace::Scope> cycle;
    if (trace != nullptr) cycle.emplace(*trace, "op");
    {
      std::optional<Trace::Scope> span;
      if (trace != nullptr) span.emplace(*trace, "service.submit");
      const auto t0 = Clock::now();
      entry.reply = st.service->submit(entry.request);
      entry.submit_s = seconds_since(t0);
    }
    stats.submit_us.push_back(entry.submit_s * 1e6);
    window.push_back(std::move(entry));
    ++submitted;
    if (window.size() == kInFlight) take();
    if (submitted % kProbeEvery == 0) close_window();
  }
  close_window();
  return stats;
}

/// Set-up: the service, every cadence's aggregation and every steady
/// design's HARM primed through its Session (off the cache), then an
/// untimed warm-up stretch of the stream.
std::unique_ptr<State> setup(std::uint64_t seed) {
  auto st = std::make_unique<State>();
  service::ServiceOptions options;
  options.workers = kWorkers;
  st->service = std::make_unique<service::EvalService>(scenario(), options);
  st->stream = std::make_unique<Stream>(seed);
  const core::Session& session = st->service->session();
  for (double cadence : kCadences) (void)session.aggregated_rates(cadence);
  for (const ent::RedundancyDesign& design : designs_up_to(kMaxSteadyTier)) {
    (void)session.evaluate(design, kPrimeCadence);
  }
  (void)drive(*st, 0.0, kWarmupRequests, nullptr);
  return st;
}

bool same_report(const core::EvalReport& a, const core::EvalReport& b) {
  return same_bits(a.coa, b.coa) && same_bits(a.before_patch.attack_impact, b.before_patch.attack_impact) &&
         same_bits(a.before_patch.attack_success_probability,
                   b.before_patch.attack_success_probability) &&
         same_bits(a.after_patch.attack_success_probability,
                   b.after_patch.attack_success_probability);
}

/// Sampled replies against a solo Session: steady replies bit-identical,
/// transient replies within 1e-10 of a width-1 solo panel.  Returns the
/// number of mismatches.
std::size_t check_samples(const std::vector<Sampled>& samples) {
  const core::Session solo(scenario());
  std::size_t bad = 0;
  for (const Sampled& s : samples) {
    if (s.request.kind == service::RequestKind::kSteady) {
      bad += same_report(solo.evaluate(s.request.design, s.request.patch_interval_hours), s.report)
                 ? 0
                 : 1;
      continue;
    }
    const core::EvalReport alone = solo.evaluate_transient_batch(
        s.request.design, {s.request.wave}, s.request.patch_interval_hours).front();
    bool ok = alone.transient.coa.size() == s.report.transient.coa.size();
    for (std::size_t j = 0; ok && j < alone.transient.coa.size(); ++j) {
      ok = std::abs(alone.transient.coa[j] - s.report.transient.coa[j]) <= 1e-10;
    }
    bad += ok ? 0 : 1;
  }
  return bad;
}

}  // namespace

Outcome run_service_stream(const RunOptions& options) {
  Measured m;
  std::unique_ptr<State> st;
  for (std::size_t s = 0; s < kSetups; ++s) {
    st.reset();
    timed_setup(m, [&] { st = setup(options.seed); });
  }

  const double untraced_seconds = options.trace ? options.seconds / 2.0 : options.seconds;
  StreamStats run = drive(*st, untraced_seconds, 0, nullptr);
  m.op_ms = run.latency_ms;
  m.raw_op_ms = run.raw_latency_ms;
  m.host_factors = run.host_factors;
  m.attempted = run.raw_latency_ms.size();
  m.failed = run.failed + check_samples(run.samples);

  Outcome out;
  if (!options.trace) {
    out.metrics = end_to_end(m, kTailPercentile, static_cast<double>(m.attempted) / run.wall_s);
    out.notes = {raw_note(m, kTailPercentile, static_cast<double>(m.attempted) / run.raw_wall_s)};
    out.attempted = m.attempted;
    out.failed = m.failed;
    return out;
  }

  // Traced phase: client cycles traced live, then the sampled steady replies
  // replayed stage by stage on a replay Session primed like the service's,
  // each bit-identical to the reply it replays.
  Trace client;
  StreamStats traced = drive(*st, options.seconds / 2.0, 0, &client);
  std::size_t failed = traced.failed + check_samples(traced.samples);

  const core::Scenario sc = scenario();
  SessionReplay replay(sc);
  Trace stages;
  {
    Trace priming;
    for (double cadence : kCadences) (void)replay.rates(cadence, priming);
  }
  for (const Sampled& s : traced.samples) {
    if (s.request.kind != service::RequestKind::kSteady) continue;
    {
      Trace priming;
      (void)replay.security(s.request.design, priming);
    }
    SteadyCell cell;
    {
      const auto root = stages.scope("op");
      cell = replay.evaluate(s.request.design, s.request.patch_interval_hours, stages);
    }
    if (!same_bits(cell.coa, s.report.coa)) ++failed;
  }

  const double total = static_cast<double>(traced.raw_latency_ms.size());
  out.attempted = m.attempted + traced.raw_latency_ms.size();
  out.failed = m.failed + failed;
  out.metrics = per_layer(
      stages,
      {{"service.submit_us", median(traced.submit_us)},
       {"service.hit_ratio", static_cast<double>(traced.cache) / total},
       {"service.coalesced_ratio", static_cast<double>(traced.coalesced) / total},
       {"service.panel_width",
        traced.transient_solves > 0
            ? static_cast<double>(traced.transient_width) / static_cast<double>(traced.transient_solves)
            : 0.0},
       {"service.queue_wait_ms", median(traced.queue_wait_ms)},
       {"service.solve_ms", median(traced.solve_ms)},
       {"trace.coverage", client.coverage()},
       {"trace.overhead", median(traced.raw_latency_ms) / median(run.raw_latency_ms)}});
  out.notes = ranking_lines("service_stream", client);
  for (const std::string& line : ranking_lines("service_stream.replay", stages)) out.notes.push_back(line);
  out.spans_csv = client.csv() + stages.csv();
  return out;
}

}  // namespace perfbench
