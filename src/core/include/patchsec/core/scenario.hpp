#pragma once
/// \file scenario.hpp
/// \brief The inputs of the paper's Fig. 1 pipeline as a first-class value:
/// a Scenario describes *what* to evaluate (server specs, reachability
/// policy, patch schedule(s), candidate design space) and EngineOptions
/// describe *how* to solve it (steady-state method/tolerance/iteration
/// budget, reachability limits, batch parallelism).
///
/// A Scenario is a plain value: build one with the fluent with_* setters (or
/// Scenario::paper_case_study() for the paper's Tables I/IV inputs), hand it
/// to a core::Session, and keep it around to tweak, copy, batch or ship to a
/// worker.  Nothing is solved until a Session evaluates it.

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

#include "patchsec/ctmc/transient_solver.hpp"
#include "patchsec/enterprise/design.hpp"
#include "patchsec/harm/attack_graph.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/linalg/steady_state.hpp"
#include "patchsec/petri/reachability.hpp"
#include "patchsec/petri/verify.hpp"

namespace patchsec::core {

/// \brief How much the static model verifier (petri::verify) is allowed to
/// interfere with an evaluation.
enum class VerifyMode : std::uint8_t {
  /// Skip verification entirely (no reports in EvalReport diagnostics).
  kOff,
  /// Run the pass on every lower- and upper-layer net before solving and
  /// surface all findings through EvalReport::verification / JSON
  /// diagnostics, but never refuse to solve.  The default.
  kWarn,
  /// As kWarn, but any error-severity finding aborts the evaluation with
  /// std::runtime_error (petri::throw_on_verify_errors) before reachability.
  kStrict,
};

/// \brief End-to-end numerical-engine configuration, threaded from the
/// facade down to linalg::solve_steady_state on every lower- and upper-layer
/// SRN solve.
struct EngineOptions {
  /// Steady-state solver knobs (method, tolerance, max iterations) passed
  /// verbatim to linalg::solve_steady_state.
  linalg::SteadyStateOptions steady_state;
  /// Reachability-graph limits (tangible-state bound, vanishing depth).
  petri::ReachabilityOptions reachability;
  /// When true a badly diverged steady-state solve throws; when false — the
  /// Session default — the best-effort distribution is used and the failure
  /// is surfaced through EvalReport diagnostics.
  bool throw_on_divergence = false;
  /// Evaluate batch design spaces on multiple threads (the per-design upper
  /// layer is embarrassingly parallel; lower-layer aggregations are memoized
  /// up front).  The scenario's ReachabilityPolicy hooks (and any rate/guard
  /// closures in the specs) are then invoked concurrently and must be
  /// thread-safe — pure functions of their arguments, no mutable shared
  /// state.
  bool parallel = false;
  /// Worker count for parallel batches; 0 = std::thread::hardware_concurrency.
  unsigned threads = 0;
  /// Evaluate the upper layer in closed form (avail/lumped_coa.hpp): every
  /// server is an independent two-state chain, so each tier's up-count is
  /// binomial and COA is a function of the per-tier rates, at O(tiers) cost
  /// for any design size.  Exact for this model class — steady-state and
  /// transient COA agree with the flat solve within 1e-12 (the lumping test
  /// layer).  Off by default.
  bool lumping = false;

  // --- transient analysis (Session::evaluate_transient) --------------------
  /// Horizon of the transient window, in hours.  When `time_points` is empty
  /// the evaluated grid is `transient_points` uniform points over
  /// [0, horizon_hours] (t = 0 included: it shows the initial dip).
  double horizon_hours = 24.0;
  /// Explicit time grid (hours, ascending, non-negative); when non-empty it
  /// overrides horizon_hours/transient_points.
  std::vector<double> time_points;
  /// Size of the derived uniform grid (>= 2).
  std::size_t transient_points = 16;
  /// Patch-window entry state: per role, how many servers start the window
  /// down for patching (clamped to the tier size; empty = all up).
  std::map<enterprise::ServerRole, unsigned> initial_down;
  /// Truncation policy of the transient engine (uniformization).
  ctmc::TransientOptions uniformization;

  /// Attack-path enumeration cap of the HARM security side.  The simple-path
  /// count grows ~k^4 with a uniform k-per-tier design (every replica
  /// combination along each role sequence is its own path), but the HARM
  /// folds walk replica-group sequences — one per role sequence, each
  /// counting its instance paths exactly — and the cap bounds those, so
  /// the paper's policy (2 role sequences) is exact at any k.  The Session
  /// default TRUNCATES at the cap: the first `max_paths` group sequences
  /// (DFS order) feed the metrics and the instance paths of the rest are
  /// counted in SecurityMetrics::truncated_paths — observable in every
  /// EvalReport, never silent.  Set truncate = false to throw at the cap
  /// instead.  (The bare harm::Harm::evaluate() keeps the throwing default
  /// — only the engine-routed evaluations opt into truncation.)
  harm::PathEnumerationOptions harm_paths{1'000'000, true};

  /// Static model verification (petri::verify): runs on every lower-layer
  /// server net and the upper-layer network net before reachability, at
  /// incidence-matrix cost.  kWarn (default) surfaces findings in
  /// EvalReport::verification; kStrict additionally refuses to solve a net
  /// with error-severity findings; kOff skips the pass.
  VerifyMode verify = VerifyMode::kWarn;
  /// Knobs of the verification pass (semiflow row cap, function probing).
  petri::VerifyOptions verify_options;

  /// The grid evaluate_transient runs on: `time_points` when set, otherwise
  /// the uniform grid described above.  Throws std::invalid_argument on an
  /// unusable configuration (empty/descending/negative/non-finite explicit
  /// grid, a window that ends at t = 0, or a non-positive or infinite horizon
  /// / sub-2-point derived grid).
  [[nodiscard]] std::vector<double> transient_grid() const;

  /// The lowered per-solve form handed to the petri/avail layers.
  [[nodiscard]] petri::AnalyzerOptions analyzer_options() const {
    return petri::AnalyzerOptions{.reachability = reachability,
                                  .steady_state = steady_state,
                                  .throw_on_divergence = throw_on_divergence};
  }
};

/// \brief Everything one evaluation campaign needs: specs, topology policy,
/// patch schedule(s), candidate designs and engine configuration.
///
/// Invariants are checked by validate() (called by Session): at least one
/// server spec, callable policy hooks, strictly positive patch intervals,
/// and every candidate design deploying at least one server with a spec for
/// every deployed role.
class Scenario {
 public:
  Scenario() = default;

  /// The paper's case study (Tables I/IV specs, the Fig. 2 three-tier
  /// policy, the monthly 720 h schedule and the five Sec. IV candidate
  /// designs).
  [[nodiscard]] static Scenario paper_case_study();

  // --- fluent setters ------------------------------------------------------
  Scenario& with_specs(std::map<enterprise::ServerRole, enterprise::ServerSpec> specs);
  /// Add or replace the spec of one role.
  Scenario& with_spec(enterprise::ServerRole role, enterprise::ServerSpec spec);
  Scenario& with_policy(enterprise::ReachabilityPolicy policy);
  /// Single patch cadence (hours between patch rounds, 1/tau_p).
  Scenario& with_patch_interval(double hours);
  /// Schedule sweep: evaluate every design under every cadence.
  Scenario& with_patch_schedule(std::vector<double> hours);
  /// Replace the candidate design space.
  Scenario& with_designs(std::vector<enterprise::RedundancyDesign> designs);
  /// Append one candidate design.
  Scenario& with_design(enterprise::RedundancyDesign design);
  Scenario& with_engine(EngineOptions engine);

  // --- accessors -----------------------------------------------------------
  [[nodiscard]] const std::map<enterprise::ServerRole, enterprise::ServerSpec>& specs()
      const noexcept {
    return specs_;
  }
  [[nodiscard]] const enterprise::ReachabilityPolicy& policy() const noexcept { return policy_; }
  /// All cadences of the schedule (defaults to {720.0}, the paper's monthly).
  [[nodiscard]] const std::vector<double>& patch_intervals() const noexcept {
    return patch_intervals_;
  }
  /// First cadence of the schedule — the single-schedule common case.
  /// Throws std::logic_error when the schedule was explicitly emptied.
  [[nodiscard]] double patch_interval_hours() const {
    if (patch_intervals_.empty()) throw std::logic_error("Scenario: empty patch schedule");
    return patch_intervals_.front();
  }
  [[nodiscard]] const std::vector<enterprise::RedundancyDesign>& designs() const noexcept {
    return designs_;
  }
  [[nodiscard]] const EngineOptions& engine() const noexcept { return engine_; }

  /// Throws std::invalid_argument with a precise message when the scenario
  /// is not evaluable (see class invariants).
  void validate() const;

 private:
  std::map<enterprise::ServerRole, enterprise::ServerSpec> specs_;
  enterprise::ReachabilityPolicy policy_ = enterprise::ReachabilityPolicy::three_tier();
  std::vector<double> patch_intervals_{720.0};
  std::vector<enterprise::RedundancyDesign> designs_;
  EngineOptions engine_;
};

}  // namespace patchsec::core
