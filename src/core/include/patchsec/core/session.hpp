#pragma once
/// \file session.hpp
/// \brief The evaluation engine of the facade: a Session binds a Scenario to
/// memoized lower-layer solver state and turns designs into EvalReports —
/// the paper's joint security/availability numbers *plus* per-stage solver
/// diagnostics (state counts, iterations, residuals, converged flags, wall
/// time).
///
/// Construction is cheap; the expensive per-(role, patch-interval) server-SRN
/// aggregations (paper Table V) are computed lazily on first use and cached,
/// so sweeping a design space or a patch schedule pays the lower layer once.
/// A cadence changes only rates, which no verification finding reads, so each
/// role's server net is built, verified and explored once per Session and
/// re-rated (petri::rerate), each design's network net likewise once per
/// batch, and each lumped design's counting net verified once per Session.
/// The cadence-independent HARM security metrics and role-labelled attack-path
/// classes are likewise memoized per design, from one HARM build, so a
/// schedule sweep (or a game over the design grid) pays the security side
/// once per design.
/// Batch evaluation can fan out over threads (EngineOptions::parallel).

#include <array>
#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "patchsec/avail/aggregation.hpp"
#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/server_srn.hpp"
#include "patchsec/core/scenario.hpp"
#include "patchsec/ctmc/transient_solver.hpp"
#include "patchsec/harm/harm.hpp"
#include "patchsec/harm/path_classes.hpp"
#include "patchsec/linalg/stationary_solver.hpp"

namespace patchsec::core {

/// \brief The warm solver state one evaluation thread owns: the two
/// steady-state workspaces (the aggregation [server SRN] and availability
/// [network SRN] stages each cache a single sparsity structure — a sweep
/// interleaves the two stages, so sharing one slot would rebuild the cached
/// transpose on every alternation) plus the uniformization workspace of the
/// transient engine.  A Session keeps one SolverWorkspaces per (Session,
/// thread); the evaluation service pins one to each worker thread.  None of
/// the members are thread-safe — never share a SolverWorkspaces across
/// threads.
struct SolverWorkspaces {
  linalg::StationarySolver aggregation;
  linalg::StationarySolver availability;
  ctmc::TransientSolver transient;
};

/// \brief Time-dependent COA payload of a Session::evaluate_transient
/// report: coa(t) over the engine's time grid, plus the window integral
/// (empty vectors mean "no transient evaluation ran").
struct TransientCurve {
  std::vector<double> time_points_hours;  ///< the evaluated grid.
  std::vector<double> coa;                ///< coa(t_j), same length.
  /// int_0^T coa(s) ds — capacity delivered over the window, in
  /// server-fraction hours.
  double accumulated_coa_hours = 0.0;

  [[nodiscard]] bool empty() const noexcept { return time_points_hours.empty(); }
  /// Last grid point (the window length T); 0 when empty.
  [[nodiscard]] double horizon_hours() const noexcept {
    return time_points_hours.empty() ? 0.0 : time_points_hours.back();
  }
  /// Time-averaged COA over the window: accumulated_coa_hours / T (0 when
  /// the window is degenerate).  This is what evaluate_transient reports as
  /// EvalReport::coa.
  [[nodiscard]] double interval_coa() const noexcept {
    const double t = horizon_hours();
    return t > 0.0 ? accumulated_coa_hours / t : 0.0;
  }
};

/// \brief One solve stage's static verification: the stage name
/// ("server:<role>" for a lower-layer net, "network" for the upper layer)
/// plus the petri::verify report (certificates + lint findings), immutable,
/// never null and built once per verified net: copies share it.
struct StageVerification {
  std::string stage;
  std::shared_ptr<const petri::VerifyReport> report;
};

/// \brief Rich evaluation result: the paper's metrics plus end-to-end solver
/// diagnostics for every stage that ran a steady-state solve.
struct EvalReport {
  enterprise::RedundancyDesign design;
  harm::SecurityMetrics before_patch;  ///< HARM metrics with all vulnerabilities.
  harm::SecurityMetrics after_patch;   ///< HARM metrics after the critical patch.
  double coa = 0.0;                    ///< capacity-oriented availability.
  double patch_interval_hours = 720.0;  ///< cadence this report was evaluated at.

  /// Time-dependent COA curve — filled only by Session::evaluate_transient
  /// (empty() for steady-state evaluations).  A transient report's `coa` is
  /// the time-averaged COA over the window, NOT the steady-state COA.
  TransientCurve transient;
  /// Uniformization internals of the transient engine (Lambda, Fox-Glynn
  /// window, matvec count); zeroed for steady-state evaluations.
  ctmc::TransientDiagnostics transient_diagnostics;

  /// Lower-layer (server SRN, one per role with a spec) solve diagnostics.
  /// Memoized across reports sharing a (role, patch interval); wall times are
  /// those of the first computation.
  std::map<enterprise::ServerRole, petri::SolveDiagnostics> aggregation_diagnostics;
  /// Upper-layer (network SRN) solve diagnostics for this design.
  petri::SolveDiagnostics availability_diagnostics;
  /// Wall time of this evaluate() call (HARM + upper layer + any lower-layer
  /// aggregation misses).
  double wall_time_seconds = 0.0;

  /// Static verification reports (EngineOptions::verify != kOff): one entry
  /// per solved net — every lower-layer "server:<role>" stage (one object
  /// per role and Session) plus the upper-layer "network" stage (one object
  /// per design and batch; per design and Session when lumped).  Empty under
  /// VerifyMode::kOff.
  std::vector<StageVerification> verification;

  /// True iff every steady-state solve behind this report converged.
  [[nodiscard]] bool converged() const noexcept;
  /// Total solver iterations across all stages (lower + upper layer).
  [[nodiscard]] std::size_t total_solver_iterations() const noexcept;
  /// True iff every verified stage came back with zero findings.  Vacuously
  /// true under VerifyMode::kOff (nothing was verified).
  [[nodiscard]] bool lint_clean() const noexcept;
};

/// \brief Evaluates redundancy designs for one Scenario, owning the memoized
/// per-(role, patch-interval) lower-layer aggregations.
///
/// Thread-safe: evaluate()/evaluate_all() are const and the aggregation cache
/// is internally synchronized, so one Session may serve concurrent callers
/// (and evaluate_all() itself fans out when the scenario's EngineOptions ask
/// for parallel batches).
class Session {
 public:
  /// Validates the scenario (Scenario::validate) and takes a copy of it.
  explicit Session(Scenario scenario);

  [[nodiscard]] const Scenario& scenario() const noexcept { return scenario_; }

  /// Evaluate one design at the scenario's first patch cadence.
  [[nodiscard]] EvalReport evaluate(const enterprise::RedundancyDesign& design) const;

  /// Evaluate one design at an explicit patch cadence.
  [[nodiscard]] EvalReport evaluate(const enterprise::RedundancyDesign& design,
                                    double patch_interval_hours) const;

  /// Evaluate the scenario's design space under its whole patch schedule:
  /// reports are ordered schedule-major (every design at interval 0, then
  /// every design at interval 1, ...).  Parallel when the engine asks for it.
  [[nodiscard]] std::vector<EvalReport> evaluate_all() const;

  /// Evaluate an explicit design list at the scenario's first patch cadence.
  [[nodiscard]] std::vector<EvalReport> evaluate_all(
      const std::vector<enterprise::RedundancyDesign>& designs) const;

  /// Evaluate an explicit design list at an explicit cadence.
  [[nodiscard]] std::vector<EvalReport> evaluate_all(
      const std::vector<enterprise::RedundancyDesign>& designs,
      double patch_interval_hours) const;

  /// Transient evaluation: coa(t) over the engine's time grid
  /// (EngineOptions::horizon_hours / time_points), starting from the
  /// patch-window marking EngineOptions::initial_down describes, at the
  /// scenario's first patch cadence.  The lower-layer per-(role, interval)
  /// aggregations are memoized exactly like the steady-state path (both
  /// paths share the cache).  The report's `transient` payload carries the
  /// uniformization curve (the closed form under EngineOptions::lumping) and
  /// its `coa` the time-averaged COA over the window.
  [[nodiscard]] EvalReport evaluate_transient(const enterprise::RedundancyDesign& design) const;

  /// Transient evaluation at an explicit patch cadence: the one-wave
  /// evaluate_transient_batch of EngineOptions::initial_down.
  [[nodiscard]] EvalReport evaluate_transient(const enterprise::RedundancyDesign& design,
                                              double patch_interval_hours) const;

  /// Batched transient evaluation: one report per patch wave (an
  /// EngineOptions::initial_down-shaped map), ordered like `waves`, each as
  /// if evaluate_transient had run with that wave as the initial marking —
  /// at the scenario's first patch cadence.  Without lumping the whole batch
  /// is ONE solve (avail::transient_coa_batch: one reachability/matrix
  /// build, one matrix sweep per uniformization term for every 8 waves — see
  /// each report's transient_diagnostics.rhs_count); under
  /// EngineOptions::lumping the closed form evaluates the waves
  /// sequentially.  Either way the batch verifies once: no verification
  /// stage depends on the wave.  Throws std::invalid_argument on an empty
  /// wave list.
  [[nodiscard]] std::vector<EvalReport> evaluate_transient_batch(
      const enterprise::RedundancyDesign& design,
      const std::vector<std::map<enterprise::ServerRole, unsigned>>& waves) const;

  /// Batched transient evaluation at an explicit patch cadence.
  [[nodiscard]] std::vector<EvalReport> evaluate_transient_batch(
      const enterprise::RedundancyDesign& design,
      const std::vector<std::map<enterprise::ServerRole, unsigned>>& waves,
      double patch_interval_hours) const;

  /// Per-role aggregated patch/recovery rates (Table V rows) at the
  /// scenario's first cadence.  Computed on first use, then cached.
  [[nodiscard]] const std::map<enterprise::ServerRole, avail::AggregatedRates>&
  aggregated_rates() const;

  /// Table V rows at an explicit cadence.
  [[nodiscard]] const std::map<enterprise::ServerRole, avail::AggregatedRates>& aggregated_rates(
      double patch_interval_hours) const;

  /// Lower-layer solve diagnostics behind aggregated_rates(hours).
  [[nodiscard]] const std::map<enterprise::ServerRole, petri::SolveDiagnostics>&
  aggregation_diagnostics(double patch_interval_hours) const;

  /// The design's attack-path classes under engine().harm_paths, labelled by
  /// role (enterprise::role_label): the attacker's strategy set of the game
  /// layer.  Served from the per-design security memo, which computes them
  /// from the same HARM build as the report's before/after metrics; the
  /// reference stays valid for the Session's lifetime.
  [[nodiscard]] const std::vector<harm::PathClass>& path_classes(
      const enterprise::RedundancyDesign& design) const;

  /// Warm-reuse counters summed over every per-thread workspace slot this
  /// Session has created.  The per-Session ownership contract (workspaces are
  /// never shared across Sessions, so interleaving two Sessions cannot thrash
  /// either one's cached structure) is pinned by the SessionWorkspaces tests
  /// through these counters.
  struct WorkspaceCounters {
    std::size_t thread_slots = 0;  ///< distinct threads that evaluated here.
    std::size_t transient_structure_builds = 0;   ///< TransientSolver rebuilds.
    std::size_t transient_structure_reuses = 0;   ///< value-refresh fast paths.
    /// Upper- and lower-layer solves served, and how each found its
    /// transpose (linalg::StationarySolver): rebuilt, reused because the
    /// generator shares the cached structure (a re-rated chain), or reused
    /// after a content compare; the three sum to the solves.
    std::size_t availability_solves = 0;
    std::size_t availability_transpose_rebuilds = 0;
    std::size_t availability_identity_reuses = 0;
    std::size_t availability_content_reuses = 0;
    std::size_t aggregation_solves = 0;
    std::size_t aggregation_transpose_rebuilds = 0;
    std::size_t aggregation_identity_reuses = 0;
    std::size_t aggregation_content_reuses = 0;
    /// petri::certify_structure runs (one per distinct structure_key, plus
    /// any a concurrent miss on the same key computed and discarded).
    std::size_t verify_structure_builds = 0;
    /// Verifications served from a memoized structure certificate.
    std::size_t verify_structure_reuses = 0;
    /// Reachability explorations of server nets (one per role, plus racing
    /// misses) and network nets, and the solves that re-rated one instead.
    std::size_t server_explorations = 0;
    std::size_t server_rerates = 0;
    std::size_t network_explorations = 0;
    std::size_t network_rerates = 0;
    /// HARM builds of the per-design security memo (one per distinct design,
    /// plus any a concurrent miss on the same design computed and discarded).
    std::size_t harm_builds = 0;
  };
  [[nodiscard]] WorkspaceCounters workspace_counters() const;

  /// The canonical aggregation-cache key for a cadence, shared with the
  /// service layer's request hashing so both key spaces agree bit-for-bit.
  /// Keys are EXACT double bits: cadences that differ in the last ulp (e.g.
  /// 30*24.0 vs 720.0000000001 from cadence arithmetic) are distinct entries
  /// — both solve correctly, they simply do not share a slot.  The only
  /// bit-distinct values that would alias (-0.0 and +0.0 compare equal as
  /// map keys) are rejected by the positivity check, and -0.0 is normalized
  /// to +0.0 anyway so the exact-bits contract holds even if the range check
  /// is ever relaxed.  Throws std::invalid_argument on NaN (a NaN key would
  /// break std::map's strict weak ordering and alias arbitrary entries) and
  /// on non-positive cadences.
  [[nodiscard]] static double canonical_interval(double patch_interval_hours);

 private:
  struct IntervalAggregation {
    std::map<enterprise::ServerRole, avail::AggregatedRates> rates;
    std::map<enterprise::ServerRole, petri::SolveDiagnostics> diagnostics;
    std::vector<StageVerification> verification;  ///< each RoleNet's stage.
  };
  /// One role's server net at its first cadence, with its stage (null under
  /// kOff) and exploration; other cadences re-rate a copy's patch_clock.
  struct RoleNet {
    avail::ServerSrn srn;
    StageVerification verification;
    std::shared_ptr<const petri::ReachabilityGraph> explored;
  };
  /// A design's network net carried between a batch's cells: the first
  /// builds, verifies and explores it, the others re-rate it.
  struct DesignNet {
    std::optional<avail::NetworkSrn> net;
    StageVerification verification;
    std::shared_ptr<const petri::ReachabilityGraph> explored;
  };
  /// Everything the HARM layer yields for one design, from one build.
  struct DesignSecurity {
    harm::SecurityMetrics before_patch;
    harm::SecurityMetrics after_patch;
    std::vector<harm::PathClass> path_classes;  ///< before-patch, role-labelled.
  };

  /// Memoized lower-layer aggregation for one cadence (thread-safe).
  /// Throws std::invalid_argument unless patch_interval_hours > 0 (also
  /// rejects NaN, which would alias arbitrary cache keys).
  const IntervalAggregation& aggregation_for(double patch_interval_hours) const;

  /// Memoized structure certificate of `model` (thread-safe; counts a build
  /// or a reuse).
  const petri::StructureCertificate& structure_for(const petri::SrnModel& model) const;

  /// Static verification of one net as stage `stage`: the memoized
  /// structure certificate plus this instance's probes (petri::verify_values),
  /// thrown on under VerifyMode::kStrict; a null report under kOff.
  [[nodiscard]] StageVerification verify_stage(
      std::string stage, const petri::SrnModel& model,
      const std::vector<std::pair<std::string, petri::RewardFunction>>& rewards) const;

  /// verify_stage of an upper-layer network net, with its COA reward
  /// linted.
  [[nodiscard]] StageVerification verify_network_stage(const avail::NetworkSrn& net) const;

  /// The lumped path's network stage of `design` (thread-safe memo): a miss
  /// verifies the counting net at `rates`.  A hit builds no net; the closed
  /// form's avail::tier_rates is the construction's check of the rates.
  [[nodiscard]] StageVerification counting_net_stage(
      const enterprise::RedundancyDesign& design,
      const std::map<enterprise::ServerRole, avail::AggregatedRates>& rates) const;

  /// Every verification stage of one (design, cadence) evaluation: the
  /// cadence's server stages plus the design's `network` stage.  Empty under
  /// VerifyMode::kOff.  No stage depends on the transient entry marking.
  [[nodiscard]] std::vector<StageVerification> verification_for(
      const IntervalAggregation& agg, StageVerification network) const;

  /// Memoized HARM security metrics and path classes for one design
  /// (thread-safe; counts a build on a miss).  The HARM side is
  /// cadence-independent, so a schedule sweep pays it once per design
  /// instead of once per (design, cadence).
  const DesignSecurity& security_for(const enterprise::RedundancyDesign& design) const;

  /// Run a batch of (design, cadence) jobs, reports in job order.  Each
  /// design's cells run in a row on one thread (so its network net is explored
  /// once), and designs fan out over threads when the engine asks for it.
  [[nodiscard]] std::vector<EvalReport> run_batch(
      const std::vector<std::pair<enterprise::RedundancyDesign, double>>& jobs) const;

  /// evaluate(design, hours), carrying the design's net between a batch's
  /// cells in a non-null `carried`; null explores without a firing record.
  [[nodiscard]] EvalReport evaluate_cell(const enterprise::RedundancyDesign& design,
                                         double patch_interval_hours, DesignNet* carried) const;

  /// The SolverWorkspaces of the calling thread, created on first use.  Each
  /// (Session, thread) pair owns its own slot, so two Sessions interleaving
  /// on one thread can never thrash each other's cached solver structure
  /// (the warm-reuse contract), and parallel batch workers never contend.
  SolverWorkspaces& workspaces_for_this_thread() const;

  Scenario scenario_;
  mutable std::mutex cache_mutex_;
  /// Keyed on the canonical_interval() cadence — exact double bits (see the
  /// key contract there).
  mutable std::map<double, IntervalAggregation> cache_;
  /// Keyed on design.counts ALONE — sufficient because a RedundancyDesign IS
  /// its counts array (the defaulted operator== compares nothing else) and
  /// every other HARM input is Session-immutable: security_for builds
  /// NetworkModel(design, specs_, policy_) and evaluates it under
  /// engine().harm_paths, so the patch cadence never reaches the HARM layer
  /// and the only EngineOptions field that does (the path-enumeration cap)
  /// is fixed for the Session's lifetime.  Pinned by
  /// SessionMemoizationAudit.HarmMetricsDependOnDesignCountsAlone.  An entry
  /// carries all three DesignSecurity values, computed eagerly from one
  /// build, and is never modified after insertion: path_classes() and the
  /// reports hand out references into it without the lock.  Guarded by
  /// cache_mutex_ with harm_builds_.
  mutable std::map<std::array<unsigned, enterprise::kRoleCount>, DesignSecurity> harm_cache_;
  mutable std::size_t harm_builds_ = 0;
  /// Structure certificates keyed on the FULL petri::structure_key bytes (not
  /// a hash of them, so two structures can never share an entry): the four
  /// roles' server nets share one.  Guarded by cache_mutex_ with the two
  /// counters.
  mutable std::map<std::string, petri::StructureCertificate> structure_cache_;
  mutable std::size_t structure_builds_ = 0;
  mutable std::size_t structure_reuses_ = 0;
  /// Per role and per lumped design; entries are never modified after
  /// insertion, so they are read without the lock; guarded by cache_mutex_.
  mutable std::map<enterprise::ServerRole, RoleNet> role_nets_;
  mutable std::map<std::array<unsigned, enterprise::kRoleCount>, StageVerification>
      counting_stages_;
  mutable std::atomic<std::size_t> server_exploration_count_{0};
  mutable std::atomic<std::size_t> server_rerate_count_{0};
  mutable std::atomic<std::size_t> network_exploration_count_{0};
  mutable std::atomic<std::size_t> network_rerate_count_{0};
  /// Per-thread solver workspaces (guarded by workspace_mutex_; the map is
  /// touched only to find/create a slot — the workspaces themselves are
  /// single-owner per thread and used outside the lock).
  mutable std::mutex workspace_mutex_;
  mutable std::map<std::thread::id, std::unique_ptr<SolverWorkspaces>> workspaces_;
};

}  // namespace patchsec::core
