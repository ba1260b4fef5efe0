#include "patchsec/avail/transient_coa.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace patchsec::avail {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

petri::Marking patch_window_marking(
    const NetworkSrn& net, const std::map<enterprise::ServerRole, unsigned>& initial_down) {
  petri::Marking start = net.model.initial_marking();
  for (const auto& [role, down] : initial_down) {
    const auto up_it = net.up_places.find(role);
    if (up_it == net.up_places.end()) continue;  // role not deployed
    const petri::TokenCount capped = std::min<petri::TokenCount>(down, start[up_it->second]);
    start[up_it->second] -= capped;
    start[net.down_places.at(role)] += capped;
  }
  return start;
}

CoaCurveEvaluation transient_coa_detailed(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const std::vector<double>& time_points_hours, const TransientCoaOptions& options,
    ctmc::TransientSolver* workspace) {
  // The one-wave batch: a width-1 panel is the single-curve solve.
  return std::move(transient_coa_batch(build_network_srn(design, rates), time_points_hours,
                                       {options.initial_down}, options, workspace)
                       .front());
}

std::vector<CoaCurveEvaluation> transient_coa_batch(
    const NetworkSrn& net, const std::vector<double>& time_points_hours,
    const std::vector<std::map<enterprise::ServerRole, unsigned>>& waves,
    const TransientCoaOptions& options, ctmc::TransientSolver* workspace) {
  if (time_points_hours.empty()) {
    throw std::invalid_argument("transient_coa_batch: no time points");
  }
  if (waves.empty()) throw std::invalid_argument("transient_coa_batch: no waves");
  const auto start_time = Clock::now();

  // One exploration serves the whole batch — this is the point of batching:
  // the per-wave marginal cost is one panel column, not a solve.
  const petri::ReachabilityGraph graph =
      petri::build_reachability_graph(net.model, options.reachability);

  const petri::RewardFunction reward = net.coa_reward();
  std::vector<double> rewards;
  rewards.reserve(graph.tangible_count());
  for (const petri::Marking& m : graph.tangible_markings) rewards.push_back(reward(m));

  std::vector<std::vector<double>> initials(waves.size());
  for (std::size_t b = 0; b < waves.size(); ++b) {
    initials[b].assign(graph.tangible_count(), 0.0);
    initials[b][graph.index_of(patch_window_marking(net, waves[b]))] = 1.0;
  }

  ctmc::TransientSolver local;
  ctmc::TransientSolver& solver = workspace != nullptr ? *workspace : local;
  solver.set_options(options.uniformization);
  solver.prepare(graph.chain);

  std::vector<std::vector<double>> curves;
  const std::vector<double> accumulated =
      solver.reward_curve_multi(initials, rewards, time_points_hours, curves);

  const double wall = std::chrono::duration<double>(Clock::now() - start_time).count();
  std::vector<CoaCurveEvaluation> results(waves.size());
  for (std::size_t b = 0; b < waves.size(); ++b) {
    CoaCurveEvaluation& result = results[b];
    result.accumulated_coa_hours = accumulated[b];
    result.curve.reserve(curves[b].size());
    for (std::size_t j = 0; j < curves[b].size(); ++j) {
      result.curve.push_back({time_points_hours[j], curves[b][j]});
    }
    // Shared-solve diagnostics, replicated per wave (see the header note).
    result.transient = solver.diagnostics();
    result.diagnostics.tangible_states = graph.tangible_count();
    result.diagnostics.vanishing_markings = graph.vanishing_markings_seen;
    result.diagnostics.transitions = graph.chain.transition_count();
    result.diagnostics.solver_iterations = result.transient.matvec_count;
    result.diagnostics.converged = true;  // a finite sum, not a fixpoint iteration
    result.diagnostics.wall_time_seconds = wall;
  }
  return results;
}

std::vector<CoaPoint> transient_coa_curve(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const std::map<enterprise::ServerRole, unsigned>& initial_down,
    const std::vector<double>& time_points_hours) {
  TransientCoaOptions options;
  options.initial_down = initial_down;
  // The historical contract accepts an arbitrary-order grid; the solver
  // wants it ascending.  Evaluate sorted, then emit in caller order.
  std::vector<double> sorted = time_points_hours;
  for (double t : sorted) {
    if (t < 0.0) throw std::invalid_argument("transient_coa_curve: negative time");
  }
  std::sort(sorted.begin(), sorted.end());
  const CoaCurveEvaluation eval = transient_coa_detailed(design, rates, sorted, options);
  std::vector<CoaPoint> curve;
  curve.reserve(time_points_hours.size());
  for (double t : time_points_hours) {
    const auto it = std::lower_bound(
        eval.curve.begin(), eval.curve.end(), t,
        [](const CoaPoint& p, double hours) { return p.hours < hours; });
    curve.push_back({t, it->coa});
  }
  return curve;
}

double patch_dip_shortfall(const enterprise::RedundancyDesign& design,
                           const std::map<enterprise::ServerRole, AggregatedRates>& rates,
                           const std::map<enterprise::ServerRole, unsigned>& initial_down,
                           double horizon_hours) {
  if (!(horizon_hours > 0.0)) throw std::invalid_argument("patch_dip_shortfall: horizon");

  // One model build serves both measures: the steady-state COA comes from
  // the same chain and reward vector the transient expansion uses.
  const NetworkSrn net = build_network_srn(design, rates);
  const petri::ReachabilityGraph graph = petri::build_reachability_graph(net.model);
  const petri::RewardFunction reward = net.coa_reward();
  std::vector<double> rewards;
  rewards.reserve(graph.tangible_count());
  for (const petri::Marking& m : graph.tangible_markings) rewards.push_back(reward(m));
  std::vector<double> initial(graph.tangible_count(), 0.0);
  initial[graph.index_of(patch_window_marking(net, initial_down))] = 1.0;

  ctmc::TransientSolver solver;
  solver.prepare(graph.chain);
  std::vector<double> coa_at_horizon;
  const double accumulated =
      solver.reward_curve(initial, rewards, {horizon_hours}, coa_at_horizon);

  const linalg::SteadyStateResult ss = graph.chain.steady_state();
  double steady = 0.0;
  for (std::size_t i = 0; i < rewards.size(); ++i) steady += ss.distribution[i] * rewards[i];
  return steady * horizon_hours - accumulated;
}

}  // namespace patchsec::avail
