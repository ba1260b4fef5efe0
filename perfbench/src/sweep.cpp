// sweep — the paper's Fig. 6 / Table VI planning question.  Each op builds a
// fresh core::Session over 8 designs x 6 cadences and runs a serial
// evaluate_all(), so it pays every cold memo: per-cadence server-net
// verification and aggregation, per-design HARM, and one upper-layer
// reachability + steady solve per (design, cadence) cell.

#include <cmath>

#include "common.hpp"
#include "patchsec/core/session.hpp"
#include "replay.hpp"

namespace perfbench {

namespace {

namespace core = patchsec::core;

const std::vector<double> kCadences{168.0, 336.0, 504.0, 720.0, 1080.0, 1440.0};
constexpr std::size_t kPaperCadenceIndex = 3;  // 720 h
constexpr double kTailPercentile = 95.0;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kWarmupOps = 10;

/// The paper's five Sec. IV designs at 720 h, as pinned by the golden tests.
struct Golden {
  std::array<unsigned, ent::kRoleCount> counts;
  double coa;
  double aim_before;
  double asp_before;
  double aim_after;
  double asp_after;
};
const std::vector<Golden> kGolden = {
    {{1, 1, 1, 1}, 0.995614028250, 52.2, 1.0, 42.2, 0.059319},
    {{2, 1, 1, 1}, 0.996166635482, 52.2, 1.0, 42.2, 0.059319},
    {{1, 2, 1, 1}, 0.996097615497, 52.2, 1.0, 42.2, 0.11511926},
    {{1, 1, 2, 1}, 0.996442555875, 52.2, 1.0, 42.2, 0.11511926},
    {{1, 1, 1, 2}, 0.996373599697, 52.2, 1.0, 42.2, 0.11511926},
};

/// The paper's five designs plus three seeded ones.  Each seeded design is a
/// seeded placement of the tiers {3, 4, 5, 6} over the four roles, so every
/// op explores the same state-space sizes and only the role-to-size mapping
/// varies with the seed.
core::Scenario op_scenario(Rng& rng) {
  std::vector<ent::RedundancyDesign> designs = ent::paper_designs();
  for (int j = 0; j < 3; ++j) {
    std::vector<unsigned> tiers{3, 4, 5, 6};
    rng.shuffle(tiers);
    designs.push_back(ent::RedundancyDesign{{tiers[0], tiers[1], tiers[2], tiers[3]}});
  }
  core::EngineOptions engine;
  engine.parallel = false;
  return core::Scenario::paper_case_study()
      .with_designs(std::move(designs))
      .with_patch_schedule(kCadences)
      .with_engine(engine);
}

bool near(double a, double b, double tol) { return std::abs(a - b) <= tol; }

/// Every report converged, and the paper designs at 720 h match the pins.
bool check(const std::vector<core::EvalReport>& reports, std::size_t designs) {
  if (reports.size() != designs * kCadences.size()) return false;
  for (const core::EvalReport& r : reports) {
    if (!r.converged()) return false;
  }
  for (std::size_t i = 0; i < kGolden.size(); ++i) {
    const core::EvalReport& r = reports[kPaperCadenceIndex * designs + i];
    const Golden& g = kGolden[i];
    if (r.design.counts != g.counts || !near(r.coa, g.coa, 1e-8) ||
        !near(r.before_patch.attack_impact, g.aim_before, 1e-9) ||
        !near(r.before_patch.attack_success_probability, g.asp_before, 1e-8) ||
        !near(r.after_patch.attack_impact, g.aim_after, 1e-9) ||
        !near(r.after_patch.attack_success_probability, g.asp_after, 1e-8)) {
      return false;
    }
  }
  return true;
}

bool same_security(const patchsec::harm::SecurityMetrics& a, const patchsec::harm::SecurityMetrics& b) {
  return same_bits(a.attack_impact, b.attack_impact) &&
         same_bits(a.attack_success_probability, b.attack_success_probability) &&
         a.attack_paths == b.attack_paths && a.truncated_paths == b.truncated_paths &&
         a.entry_points == b.entry_points;
}

/// One measured op: fresh Session, serial evaluate_all, then the check.
OpResult run_op(Rng& rng, std::vector<core::EvalReport>* keep = nullptr,
                core::Scenario* scenario_out = nullptr) {
  const core::Scenario scenario = op_scenario(rng);
  const auto start = Clock::now();
  const core::Session session(scenario);
  std::vector<core::EvalReport> reports = session.evaluate_all();
  OpResult r{seconds_since(start) * 1000.0, true};
  r.ok = check(reports, scenario.designs().size());
  if (keep != nullptr) *keep = std::move(reports);
  if (scenario_out != nullptr) *scenario_out = scenario;
  return r;
}

}  // namespace

Outcome run_sweep(const RunOptions& options) {
  Measured m;
  Rng rng(options.seed);
  for (std::size_t s = 0; s < kSetups; ++s) {
    // Set-up: seed the op stream, then untimed warm-up ops.
    timed_setup(m, [&] {
      rng = Rng(options.seed);
      for (std::size_t w = 0; w < kWarmupOps; ++w) (void)run_op(rng);
    });
  }

  const double untraced_seconds = options.trace ? options.seconds / 2.0 : options.seconds;
  measure_ops(untraced_seconds, m, [&] { return run_op(rng); });

  Outcome out;
  if (!options.trace) {
    out.metrics = end_to_end(m, kTailPercentile, serial_throughput(m.op_ms));
    out.notes = {raw_note(m, kTailPercentile, serial_throughput(m.raw_op_ms))};
    out.attempted = m.attempted;
    out.failed = m.failed;
    return out;
  }

  // Traced phase: each op runs untraced, then is replayed stage by stage; the
  // replay's numbers must match the op's bit for bit.
  Trace trace;
  std::vector<double> replay_ms;
  double spent = 0.0;
  while (spent < options.seconds / 2.0 || replay_ms.size() < 5) {
    std::vector<core::EvalReport> reports;
    core::Scenario scenario;
    OpResult r = run_op(rng, &reports, &scenario);
    spent += r.ms / 1000.0;
    const std::size_t n = scenario.designs().size();
    SessionReplay replay(scenario);
    std::vector<SteadyCell> cells;
    const auto start = Clock::now();
    {
      const auto root = trace.scope("op");
      for (double cadence : scenario.patch_intervals()) {
        for (const ent::RedundancyDesign& design : scenario.designs()) {
          cells.push_back(replay.evaluate(design, cadence, trace));
        }
      }
    }
    replay_ms.push_back(seconds_since(start) * 1000.0);
    spent += replay_ms.back() / 1000.0;
    for (std::size_t k = 0; k < cells.size() && k < reports.size(); ++k) {
      if (!same_bits(cells[k].coa, reports[k].coa) ||
          !same_security(cells[k].security.before, reports[k].before_patch) ||
          !same_security(cells[k].security.after, reports[k].after_patch)) {
        r.ok = false;
      }
    }
    if (cells.size() != n * kCadences.size()) r.ok = false;
    ++m.attempted;
    if (!r.ok) ++m.failed;
  }
  out.attempted = m.attempted;
  out.failed = m.failed;
  out.metrics = per_layer(trace, {{"trace.overhead", median(replay_ms) / median(m.raw_op_ms)}});
  out.notes = ranking_lines("sweep", trace);
  out.spans_csv = trace.csv();
  return out;
}

}  // namespace perfbench
