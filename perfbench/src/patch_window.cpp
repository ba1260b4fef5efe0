// patch_window — the patch-day dip question.  Each op is one
// Session::evaluate_transient_batch of 8 patch waves on a long-lived
// Session whose aggregations and HARM metrics were primed in set-up, so an op
// pays the upper layer only: reachability, TransientSolver::prepare, and the
// multi-RHS uniformization panel.

#include <algorithm>
#include <cmath>
#include <memory>

#include "common.hpp"
#include "patchsec/core/session.hpp"
#include "replay.hpp"

namespace perfbench {

namespace {

namespace core = patchsec::core;

using Wave = std::map<ent::ServerRole, unsigned>;

const std::vector<double> kCadences{168.0, 336.0, 504.0, 720.0, 1080.0, 1440.0};
constexpr std::size_t kWaves = 8;
constexpr double kTailPercentile = 95.0;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kWarmupOps = 8;
constexpr std::size_t kSoloCheckEvery = 4;  // one width-1 panel check per this many ops

/// The op deck: every placement of the tiers {4, 5, 6, 6} over the four
/// roles (12 designs, 1,470 states each).  Ops walk the deck in a seeded
/// order, so the seed picks which role gets which tier size, the cadence and
/// the waves, while every full pass solves the same state-space sizes.
std::vector<ent::RedundancyDesign> deck() {
  std::vector<unsigned> tiers{4, 5, 6, 6};
  std::vector<ent::RedundancyDesign> designs;
  do {
    designs.push_back(ent::RedundancyDesign{{tiers[0], tiers[1], tiers[2], tiers[3]}});
  } while (std::next_permutation(tiers.begin(), tiers.end()));
  return designs;
}

struct OpInput {
  ent::RedundancyDesign design;
  double cadence = 0.0;
  std::vector<Wave> waves;
};

/// Seeded op stream over the deck.
class OpStream {
 public:
  explicit OpStream(std::uint64_t seed) : rng_(seed), designs_(deck()) {}

  OpInput next() {
    if (position_ == order_.size()) {
      order_.resize(designs_.size());
      for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      rng_.shuffle(order_);
      position_ = 0;
    }
    OpInput in;
    in.design = designs_[order_[position_++]];
    in.cadence = rng_.pick(kCadences);
    for (std::size_t b = 0; b < kWaves; ++b) {
      Wave wave;
      for (ent::ServerRole role : {ent::ServerRole::kDns, ent::ServerRole::kWeb,
                                   ent::ServerRole::kApp, ent::ServerRole::kDb}) {
        wave[role] = static_cast<unsigned>(rng_.below(in.design.count(role) + 1));
      }
      in.waves.push_back(std::move(wave));
    }
    return in;
  }

  [[nodiscard]] const std::vector<ent::RedundancyDesign>& designs() const noexcept {
    return designs_;
  }

  Rng& rng() noexcept { return rng_; }

 private:
  Rng rng_;
  std::vector<ent::RedundancyDesign> designs_;
  std::vector<std::size_t> order_;
  std::size_t position_ = 0;
};

core::Scenario scenario() {
  core::EngineOptions engine;
  engine.parallel = false;
  return core::Scenario::paper_case_study()
      .with_designs(deck())
      .with_patch_schedule(kCadences)
      .with_engine(engine);
}

struct State {
  std::unique_ptr<core::Session> session;
  std::unique_ptr<OpStream> stream;
  std::size_t ops = 0;
};

bool curve_in_unit_interval(const core::EvalReport& r) {
  for (double v : r.transient.coa) {
    if (!(v >= 0.0 && v <= 1.0)) return false;
  }
  return !r.transient.coa.empty();
}

/// One measured op, then the output check off the clock: every coa(t) in
/// [0, 1], and periodically one wave re-solved as a width-1 solo panel must
/// agree with its column of the 8-wide panel to 1e-10.
OpResult run_op(State& st, std::vector<core::EvalReport>* keep = nullptr, OpInput* input = nullptr) {
  OpInput in = st.stream->next();
  const auto start = Clock::now();
  std::vector<core::EvalReport> reports =
      st.session->evaluate_transient_batch(in.design, in.waves, in.cadence);
  OpResult r{seconds_since(start) * 1000.0, reports.size() == kWaves};
  for (const core::EvalReport& report : reports) r.ok = r.ok && curve_in_unit_interval(report);
  if (r.ok && st.ops++ % kSoloCheckEvery == 0) {
    const std::size_t b = st.stream->rng().below(kWaves);
    const std::vector<core::EvalReport> solo =
        st.session->evaluate_transient_batch(in.design, {in.waves[b]}, in.cadence);
    const std::vector<double>& a = solo.front().transient.coa;
    const std::vector<double>& p = reports[b].transient.coa;
    r.ok = a.size() == p.size();
    for (std::size_t j = 0; r.ok && j < a.size(); ++j) r.ok = std::abs(a[j] - p[j]) <= 1e-10;
  }
  if (keep != nullptr) *keep = std::move(reports);
  if (input != nullptr) *input = std::move(in);
  return r;
}

/// Set-up: Session, primed aggregations (all cadences) and HARM (all deck
/// designs), then untimed warm-up ops.
std::unique_ptr<State> setup(std::uint64_t seed) {
  auto st = std::make_unique<State>();
  st->session = std::make_unique<core::Session>(scenario());
  st->stream = std::make_unique<OpStream>(seed);
  for (double cadence : kCadences) (void)st->session->aggregated_rates(cadence);
  for (const ent::RedundancyDesign& design : st->stream->designs()) {
    (void)st->session->evaluate(design);
  }
  for (std::size_t w = 0; w < kWarmupOps; ++w) (void)run_op(*st);
  return st;
}

}  // namespace

Outcome run_patch_window(const RunOptions& options) {
  Measured m;
  std::unique_ptr<State> st;
  for (std::size_t s = 0; s < kSetups; ++s) {
    st.reset();
    timed_setup(m, [&] { st = setup(options.seed); });
  }

  const double untraced_seconds = options.trace ? options.seconds / 2.0 : options.seconds;
  measure_ops(untraced_seconds, m, [&] { return run_op(*st); });

  Outcome out;
  if (!options.trace) {
    out.metrics = end_to_end(m, kTailPercentile, serial_throughput(m.op_ms));
    out.notes = {raw_note(m, kTailPercentile, serial_throughput(m.raw_op_ms))};
    out.attempted = m.attempted;
    out.failed = m.failed;
    return out;
  }

  // Traced phase: replay each op through the public calls on a replay
  // Session primed like the real one, and require bit-identical curves.
  const core::Scenario sc = scenario();
  SessionReplay replay(sc);
  {
    Trace priming;
    for (double cadence : kCadences) (void)replay.rates(cadence, priming);
    for (const ent::RedundancyDesign& design : deck()) (void)replay.security(design, priming);
  }
  Trace trace;
  std::vector<double> replay_ms;
  double spent = 0.0;
  while (spent < options.seconds / 2.0 || replay_ms.size() < 5) {
    std::vector<core::EvalReport> reports;
    OpInput in;
    OpResult r = run_op(*st, &reports, &in);
    spent += r.ms / 1000.0;
    std::vector<patchsec::avail::CoaCurveEvaluation> curves;
    const auto start = Clock::now();
    {
      const auto root = trace.scope("op");
      curves = replay.transient_batch(in.design, in.waves, in.cadence, trace);
    }
    replay_ms.push_back(seconds_since(start) * 1000.0);
    spent += replay_ms.back() / 1000.0;
    r.ok = r.ok && curves.size() == reports.size();
    for (std::size_t b = 0; r.ok && b < curves.size(); ++b) {
      r.ok = same_bits(curves[b].accumulated_coa_hours, reports[b].transient.accumulated_coa_hours) &&
             curves[b].curve.size() == reports[b].transient.coa.size();
      for (std::size_t j = 0; r.ok && j < curves[b].curve.size(); ++j) {
        r.ok = same_bits(curves[b].curve[j].coa, reports[b].transient.coa[j]);
      }
    }
    ++m.attempted;
    if (!r.ok) ++m.failed;
  }
  out.attempted = m.attempted;
  out.failed = m.failed;
  out.metrics = per_layer(trace, {{"trace.overhead", median(replay_ms) / median(m.raw_op_ms)}});
  out.notes = ranking_lines("patch_window", trace);
  out.spans_csv = trace.csv();
  return out;
}

}  // namespace perfbench
