#include "patchsec/core/session.hpp"

#include "patchsec/avail/lumped_coa.hpp"
#include "patchsec/avail/transient_coa.hpp"

#include <atomic>
#include <cmath>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "patchsec/linalg/stationary_solver.hpp"

namespace patchsec::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

using Job = std::pair<enterprise::RedundancyDesign, double>;

/// The entry of `key` in `memo`, looked up under `mutex`, or null.  Memo
/// entries are never modified after insertion, so it is read unlocked.
template <typename Map, typename Key>
const typename Map::mapped_type* find_locked(std::mutex& mutex, const Map& memo, const Key& key) {
  const std::lock_guard<std::mutex> lock(mutex);
  const auto it = memo.find(key);
  return it != memo.end() ? &it->second : nullptr;
}

}  // namespace

bool EvalReport::converged() const noexcept {
  if (!availability_diagnostics.converged) return false;
  for (const auto& [role, d] : aggregation_diagnostics) {
    if (!d.converged) return false;
  }
  return true;
}

bool EvalReport::lint_clean() const noexcept {
  for (const StageVerification& stage : verification) {
    if (!stage.report->clean()) return false;
  }
  return true;
}

std::size_t EvalReport::total_solver_iterations() const noexcept {
  std::size_t total = availability_diagnostics.solver_iterations;
  for (const auto& [role, d] : aggregation_diagnostics) total += d.solver_iterations;
  return total;
}

Session::Session(Scenario scenario) : scenario_(std::move(scenario)) { scenario_.validate(); }

double Session::canonical_interval(double patch_interval_hours) {
  // !(x > 0) also catches NaN, but reject it with its own message: a NaN key
  // would break std::map's strict weak ordering, silently aliasing entries.
  if (std::isnan(patch_interval_hours)) {
    throw std::invalid_argument("Session: patch interval is NaN");
  }
  if (!(patch_interval_hours > 0.0)) {
    throw std::invalid_argument("Session: patch interval must be > 0 hours");
  }
  // Normalize the one bit pattern that compares equal to a different one
  // (-0.0 == +0.0); everything else keys on its exact bits — see the
  // contract on the declaration.  Unreachable today (zeros are rejected
  // above) but kept so the contract survives a relaxed range check.
  return patch_interval_hours == 0.0 ? 0.0 : patch_interval_hours;
}

SolverWorkspaces& Session::workspaces_for_this_thread() const {
  const std::lock_guard<std::mutex> lock(workspace_mutex_);
  std::unique_ptr<SolverWorkspaces>& slot = workspaces_[std::this_thread::get_id()];
  if (!slot) slot = std::make_unique<SolverWorkspaces>();
  return *slot;
}

Session::WorkspaceCounters Session::workspace_counters() const {
  WorkspaceCounters counters;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    counters.verify_structure_builds = structure_builds_;
    counters.verify_structure_reuses = structure_reuses_;
    counters.harm_builds = harm_builds_;
  }
  counters.server_explorations = server_exploration_count_.load();
  counters.server_rerates = server_rerate_count_.load();
  counters.network_explorations = network_exploration_count_.load();
  counters.network_rerates = network_rerate_count_.load();
  const std::lock_guard<std::mutex> lock(workspace_mutex_);
  counters.thread_slots = workspaces_.size();
  for (const auto& [tid, ws] : workspaces_) {
    counters.transient_structure_builds += ws->transient.structure_builds();
    counters.transient_structure_reuses += ws->transient.structure_reuses();
    counters.availability_solves += ws->availability.solve_count();
    counters.availability_transpose_rebuilds += ws->availability.transpose_rebuilds();
    counters.availability_identity_reuses += ws->availability.identity_reuses();
    counters.availability_content_reuses += ws->availability.content_reuses();
    counters.aggregation_solves += ws->aggregation.solve_count();
    counters.aggregation_transpose_rebuilds += ws->aggregation.transpose_rebuilds();
    counters.aggregation_identity_reuses += ws->aggregation.identity_reuses();
    counters.aggregation_content_reuses += ws->aggregation.content_reuses();
  }
  return counters;
}

const petri::StructureCertificate& Session::structure_for(const petri::SrnModel& model) const {
  const petri::VerifyOptions& options = scenario_.engine().verify_options;
  std::string key = petri::structure_key(model, options);
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    const auto it = structure_cache_.find(key);
    if (it != structure_cache_.end()) {
      ++structure_reuses_;
      return it->second;
    }
  }
  // Same compute-outside-the-lock pattern as aggregation_for: racing threads
  // on the same cold structure both certify; try_emplace keeps the first.
  petri::StructureCertificate built = petri::certify_structure(model, options);
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  ++structure_builds_;
  return structure_cache_.try_emplace(std::move(key), std::move(built)).first->second;
}

StageVerification Session::verify_stage(
    std::string stage, const petri::SrnModel& model,
    const std::vector<std::pair<std::string, petri::RewardFunction>>& rewards) const {
  const EngineOptions& engine = scenario_.engine();
  if (engine.verify == VerifyMode::kOff) return {};
  auto report = std::make_shared<const petri::VerifyReport>(
      petri::verify_values(structure_for(model), model, rewards, engine.verify_options));
  if (engine.verify == VerifyMode::kStrict) petri::throw_on_verify_errors(*report, stage);
  return StageVerification{std::move(stage), std::move(report)};
}

StageVerification Session::verify_network_stage(const avail::NetworkSrn& net) const {
  std::vector<std::pair<std::string, petri::RewardFunction>> rewards;
  rewards.emplace_back("coa", net.coa_reward());
  return verify_stage("network", net.model, rewards);
}

StageVerification Session::counting_net_stage(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, avail::AggregatedRates>& rates) const {
  if (scenario_.engine().verify == VerifyMode::kOff) return {};
  if (const auto* hit = find_locked(cache_mutex_, counting_stages_, design.counts)) return *hit;
  StageVerification stage = verify_network_stage(avail::build_network_srn(design, rates));
  const std::lock_guard<std::mutex> lock(cache_mutex_);
  return counting_stages_.try_emplace(design.counts, std::move(stage)).first->second;
}

std::vector<StageVerification> Session::verification_for(const IntervalAggregation& agg,
                                                          StageVerification network) const {
  if (scenario_.engine().verify == VerifyMode::kOff) return {};
  std::vector<StageVerification> verification = agg.verification;
  verification.push_back(std::move(network));
  return verification;
}

const Session::IntervalAggregation& Session::aggregation_for(double patch_interval_hours) const {
  patch_interval_hours = canonical_interval(patch_interval_hours);
  if (const auto* hit = find_locked(cache_mutex_, cache_, patch_interval_hours)) return *hit;

  // Solve outside the lock so concurrent callers on different cadences
  // proceed in parallel.  Two threads racing on the same cold cadence or role
  // both compute; try_emplace keeps the first result and discards the
  // duplicate (acceptable: the computation is pure).
  IntervalAggregation agg;
  avail::ServerSrnOptions srn_options;
  srn_options.patch_interval_hours = patch_interval_hours;
  const petri::AnalyzerOptions engine = scenario_.engine().analyzer_options();
  for (const auto& [role, spec] : scenario_.specs()) {
    const RoleNet* base = find_locked(cache_mutex_, role_nets_, role);
    ++(base != nullptr ? server_rerate_count_ : server_exploration_count_);
    auto* workspace = &workspaces_for_this_thread().aggregation;
    avail::ServerAggregation server;
    if (base == nullptr) {
      RoleNet built{avail::build_server_srn(spec, srn_options), {}, nullptr};
      // Static pre-flight before the aggregation solve touches the net.
      built.verification =
          verify_stage(std::string("server:") + enterprise::to_string(role), built.srn.model, {});
      server = avail::aggregate_server_srn(built.srn, spec, srn_options, engine, workspace,
                                           &built.explored);
      const std::lock_guard<std::mutex> lock(cache_mutex_);
      base = &role_nets_.try_emplace(role, std::move(built)).first->second;
    } else {
      avail::ServerSrn srn = base->srn;
      srn.model.set_rate(srn.patch_clock, 1.0 / patch_interval_hours);
      std::shared_ptr<const petri::ReachabilityGraph> explored = base->explored;
      server = avail::aggregate_server_srn(srn, spec, srn_options, engine, workspace, &explored);
    }
    if (base->verification.report != nullptr) agg.verification.push_back(base->verification);
    agg.rates.emplace(role, server.rates);
    agg.diagnostics.emplace(role, server.diagnostics);
  }

  const std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_.try_emplace(patch_interval_hours, std::move(agg)).first->second;
}

std::vector<EvalReport> Session::run_batch(const std::vector<Job>& jobs) const {
  std::vector<EvalReport> reports(jobs.size());
  const EngineOptions& engine = scenario_.engine();

  // Each design's cells, in job order: the first builds, verifies and
  // explores the design's network net, the others re-rate the net and its
  // exploration and share its stage, and all of it dies with the design.  A
  // design with one cell explores without a firing record.
  std::vector<std::vector<std::size_t>> cells;
  std::map<std::array<unsigned, enterprise::kRoleCount>, std::size_t> design_index;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto [it, fresh] = design_index.try_emplace(jobs[i].first.counts, cells.size());
    if (fresh) cells.emplace_back();
    cells[it->second].push_back(i);
  }
  const auto run_design = [&](std::size_t d) {
    DesignNet net;
    DesignNet* const carried = cells[d].size() > 1 ? &net : nullptr;
    for (const std::size_t i : cells[d]) {
      reports[i] = evaluate_cell(jobs[i].first, jobs[i].second, carried);
    }
  };

  unsigned workers = 1;
  if (engine.parallel && cells.size() > 1) {
    workers = engine.threads != 0 ? engine.threads : std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
    if (workers > cells.size()) workers = static_cast<unsigned>(cells.size());
  }

  if (workers <= 1) {
    for (std::size_t d = 0; d < cells.size(); ++d) run_design(d);
    return reports;
  }

  // Prime the per-cadence aggregations serially (few unique cadences, shared
  // by every design); each design's HARM runs once, inside its task.
  for (const Job& job : jobs) (void)aggregation_for(job.second);

  // One design per task on at most `workers` threads; the first worker
  // exception (if any) is rethrown here, and a thrown task drains the queue
  // so the batch fails fast.
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto worker = [&] {
    for (;;) {
      const std::size_t d = next.fetch_add(1);
      if (d >= cells.size()) return;
      try {
        run_design(d);
      } catch (...) {
        next.store(cells.size());  // cancel the remaining queue: fail fast
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
    // already-running workers finish, join them, then propagate — a
    // joinable std::thread destructor would call std::terminate.
    next.store(cells.size());
    for (std::thread& t : threads) t.join();
    throw;
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return reports;
}

const Session::DesignSecurity& Session::security_for(
    const enterprise::RedundancyDesign& design) const {
  if (const auto* hit = find_locked(cache_mutex_, harm_cache_, design.counts)) return *hit;

  // Same lock-free-compute pattern as aggregation_for: racing threads on the
  // same cold design both compute; try_emplace keeps the first result.
  const enterprise::NetworkModel network(design, scenario_.specs(), scenario_.policy());
  const harm::Harm before = network.build_harm();
  const harm::PathEnumerationOptions& paths = scenario_.engine().harm_paths;
  DesignSecurity security;
  // build_harm declares one replica group per role, so evaluate walks the
  // role sequences (2 under the paper's policy) and counts each one's
  // instance paths exactly at any k.  The engine's cap policy bounds those
  // sequences; truncation, counted in SecurityMetrics::truncated_paths,
  // takes a policy with more role sequences than the cap.
  security.before_patch = before.evaluate(paths);
  security.after_patch = before.after_critical_patch().evaluate(paths);
  security.path_classes = harm::aggregate_path_classes(
      before,
      [&before](harm::GraphNodeId id) { return enterprise::role_label(before.graph().name(id)); },
      paths);

  const std::lock_guard<std::mutex> lock(cache_mutex_);
  ++harm_builds_;
  return harm_cache_.try_emplace(design.counts, std::move(security)).first->second;
}

const std::vector<harm::PathClass>& Session::path_classes(
    const enterprise::RedundancyDesign& design) const {
  return security_for(design).path_classes;
}

EvalReport Session::evaluate(const enterprise::RedundancyDesign& design) const {
  return evaluate(design, scenario_.patch_interval_hours());
}

EvalReport Session::evaluate(const enterprise::RedundancyDesign& design,
                             double patch_interval_hours) const {
  return evaluate_cell(design, patch_interval_hours, nullptr);
}

EvalReport Session::evaluate_cell(const enterprise::RedundancyDesign& design,
                                  double patch_interval_hours, DesignNet* carried) const {
  const auto start = Clock::now();
  const IntervalAggregation& agg = aggregation_for(patch_interval_hours);
  const DesignSecurity& security = security_for(design);

  EvalReport report;
  report.design = design;
  report.patch_interval_hours = patch_interval_hours;
  report.before_patch = security.before_patch;
  report.after_patch = security.after_patch;

  if (scenario_.engine().lumping) {
    report.verification = verification_for(agg, counting_net_stage(design, agg.rates));
    // Closed form over the per-tier binomials: no chain, no workspace.
    const avail::CoaEvaluation coa = avail::capacity_oriented_availability_lumped_detailed(
        design, agg.rates, scenario_.engine().analyzer_options());
    report.coa = coa.coa;
    report.availability_diagnostics = coa.diagnostics;
  } else {
    // One net serves the verification and the solve: built here, or the
    // batch's net of the design re-rated.
    DesignNet local;
    DesignNet& state = carried != nullptr ? *carried : local;
    if (state.net) {
      avail::set_tier_rates(*state.net, agg.rates);
    } else {
      avail::NetworkSrn net = avail::build_network_srn(design, agg.rates);
      state.verification = verify_network_stage(net);
      state.net = std::move(net);
    }
    report.verification = verification_for(agg, state.verification);
    std::shared_ptr<const petri::ReachabilityGraph>* explored =
        carried != nullptr ? &state.explored : nullptr;
    const bool rerate = explored != nullptr && *explored != nullptr;
    ++(rerate ? network_rerate_count_ : network_exploration_count_);
    const avail::CoaEvaluation coa = avail::capacity_oriented_availability_detailed(
        *state.net, scenario_.engine().analyzer_options(),
        &workspaces_for_this_thread().availability, explored);
    report.coa = coa.coa;
    report.availability_diagnostics = coa.diagnostics;
  }
  report.aggregation_diagnostics = agg.diagnostics;
  report.wall_time_seconds = seconds_since(start);
  return report;
}

EvalReport Session::evaluate_transient(const enterprise::RedundancyDesign& design) const {
  return evaluate_transient(design, scenario_.patch_interval_hours());
}

EvalReport Session::evaluate_transient(const enterprise::RedundancyDesign& design,
                                       double patch_interval_hours) const {
  return evaluate_transient_batch(design, {scenario_.engine().initial_down}, patch_interval_hours)
      .front();
}

std::vector<EvalReport> Session::evaluate_transient_batch(
    const enterprise::RedundancyDesign& design,
    const std::vector<std::map<enterprise::ServerRole, unsigned>>& waves) const {
  return evaluate_transient_batch(design, waves, scenario_.patch_interval_hours());
}

std::vector<EvalReport> Session::evaluate_transient_batch(
    const enterprise::RedundancyDesign& design,
    const std::vector<std::map<enterprise::ServerRole, unsigned>>& waves,
    double patch_interval_hours) const {
  if (waves.empty()) {
    throw std::invalid_argument("Session::evaluate_transient_batch: no waves");
  }
  const EngineOptions& engine = scenario_.engine();
  const auto start = Clock::now();
  const std::vector<double> grid = engine.transient_grid();
  const IntervalAggregation& agg = aggregation_for(patch_interval_hours);
  const DesignSecurity& security = security_for(design);
  avail::TransientCoaOptions options;
  options.uniformization = engine.uniformization;
  options.reachability = engine.reachability;

  // B report shells share the wave-independent grid, aggregation, security
  // metrics and verification stages.  The flat backend builds one net for
  // the verification and ONE solve of every wave; the closed form has no
  // panel mode and evaluates the waves one by one.
  std::vector<StageVerification> verification;
  std::vector<avail::CoaCurveEvaluation> evals;
  std::vector<double> walls;
  if (engine.lumping) {
    verification = verification_for(agg, counting_net_stage(design, agg.rates));
    for (const auto& wave : waves) {
      const auto wave_start = Clock::now();
      options.initial_down = wave;
      evals.push_back(avail::transient_coa_lumped_detailed(design, agg.rates, grid, options));
      walls.push_back(seconds_since(wave_start));
    }
  } else {
    const avail::NetworkSrn net = avail::build_network_srn(design, agg.rates);
    verification = verification_for(agg, verify_network_stage(net));
    evals = avail::transient_coa_batch(net, grid, waves, options,
                                       &workspaces_for_this_thread().transient);
    ++network_exploration_count_;
    walls.assign(evals.size(), seconds_since(start));
  }

  std::vector<EvalReport> reports(evals.size());
  for (std::size_t b = 0; b < evals.size(); ++b) {
    const avail::CoaCurveEvaluation& eval = evals[b];
    EvalReport& report = reports[b];
    report.design = design;
    report.patch_interval_hours = patch_interval_hours;
    report.before_patch = security.before_patch;
    report.after_patch = security.after_patch;
    report.verification = verification;
    report.transient.time_points_hours = grid;
    report.transient.coa.reserve(eval.curve.size());
    for (const avail::CoaPoint& point : eval.curve) report.transient.coa.push_back(point.coa);
    report.transient.accumulated_coa_hours = eval.accumulated_coa_hours;
    report.coa = report.transient.interval_coa();
    report.availability_diagnostics = eval.diagnostics;
    report.transient_diagnostics = eval.transient;
    report.aggregation_diagnostics = agg.diagnostics;
    report.wall_time_seconds = walls[b];
  }
  return reports;
}

std::vector<EvalReport> Session::evaluate_all() const {
  std::vector<Job> jobs;
  jobs.reserve(scenario_.designs().size() * scenario_.patch_intervals().size());
  for (double hours : scenario_.patch_intervals()) {
    for (const enterprise::RedundancyDesign& design : scenario_.designs()) {
      jobs.emplace_back(design, hours);
    }
  }
  return run_batch(jobs);
}

std::vector<EvalReport> Session::evaluate_all(
    const std::vector<enterprise::RedundancyDesign>& designs) const {
  return evaluate_all(designs, scenario_.patch_interval_hours());
}

std::vector<EvalReport> Session::evaluate_all(
    const std::vector<enterprise::RedundancyDesign>& designs, double patch_interval_hours) const {
  std::vector<Job> jobs;
  jobs.reserve(designs.size());
  for (const enterprise::RedundancyDesign& design : designs) {
    jobs.emplace_back(design, patch_interval_hours);
  }
  return run_batch(jobs);
}

const std::map<enterprise::ServerRole, avail::AggregatedRates>& Session::aggregated_rates() const {
  return aggregated_rates(scenario_.patch_interval_hours());
}

const std::map<enterprise::ServerRole, avail::AggregatedRates>& Session::aggregated_rates(
    double patch_interval_hours) const {
  return aggregation_for(patch_interval_hours).rates;
}

const std::map<enterprise::ServerRole, petri::SolveDiagnostics>& Session::aggregation_diagnostics(
    double patch_interval_hours) const {
  return aggregation_for(patch_interval_hours).diagnostics;
}

}  // namespace patchsec::core
