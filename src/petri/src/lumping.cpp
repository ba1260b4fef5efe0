#include "patchsec/petri/lumping.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace patchsec::petri {

std::vector<std::vector<TransitionId>> component_transitions(const SrnModel& model,
                                                             const ComponentSplit& split) {
  constexpr std::size_t kUnassigned = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> owner(model.place_count(), kUnassigned);
  for (std::size_t c = 0; c < split.components.size(); ++c) {
    for (const PlaceId p : split.components[c]) {
      if (p >= model.place_count()) {
        throw std::invalid_argument("component_transitions: invalid place id");
      }
      if (owner[p] != kUnassigned) {
        throw std::invalid_argument("component_transitions: place " + model.place_name(p) +
                                    " appears in more than one component");
      }
      owner[p] = c;
    }
  }
  for (PlaceId p = 0; p < model.place_count(); ++p) {
    if (owner[p] == kUnassigned) {
      throw std::invalid_argument("component_transitions: place " + model.place_name(p) +
                                  " is not covered by the split");
    }
  }

  std::vector<std::vector<TransitionId>> assignment(split.components.size());
  for (TransitionId t = 0; t < model.transition_count(); ++t) {
    if (model.transition_kind(t) != TransitionKind::kTimed) {
      throw std::invalid_argument("component_transitions: immediate transition " +
                                  model.transition_name(t) +
                                  " — the product form needs a fully timed net");
    }
    std::size_t component = kUnassigned;
    const auto claim = [&](const std::vector<Arc>& arcs) {
      for (const Arc& a : arcs) {
        if (component == kUnassigned) {
          component = owner[a.place];
        } else if (component != owner[a.place]) {
          throw std::invalid_argument("component_transitions: transition " +
                                      model.transition_name(t) + " spans components");
        }
      }
    };
    claim(model.input_arcs(t));
    claim(model.output_arcs(t));
    claim(model.inhibitor_arcs(t));
    if (component == kUnassigned) {
      throw std::invalid_argument("component_transitions: transition " +
                                  model.transition_name(t) + " touches no place");
    }
    assignment[component].push_back(t);
  }
  return assignment;
}

ReachabilityGraph build_component_reachability(const SrnModel& model,
                                               const std::vector<TransitionId>& transitions,
                                               const Marking& start,
                                               const ReachabilityOptions& options) {
  if (start.size() != model.place_count()) {
    throw std::invalid_argument("build_component_reachability: start marking size mismatch");
  }
  ReachabilityGraph graph;
  std::unordered_map<Marking, std::size_t, MarkingHash> index;
  graph.tangible_markings.push_back(start);
  index.emplace(start, 0);
  graph.chain.add_state();

  Marking next;
  Marking current;
  for (std::size_t i = 0; i < graph.tangible_markings.size(); ++i) {
    // Copy: the successor pushes below may reallocate tangible_markings.
    current = graph.tangible_markings[i];
    for (const TransitionId t : transitions) {
      if (!model.is_enabled(t, current)) continue;
      const double rate = model.rate(t, current);
      model.fire_into(t, current, next);
      if (next == current) continue;  // tangible self-loop: no CTMC effect
      auto [it, inserted] = index.try_emplace(next, graph.tangible_markings.size());
      if (inserted) {
        if (graph.tangible_markings.size() >= options.max_tangible_markings) {
          throw std::runtime_error(
              "build_component_reachability: tangible state space exceeds limit");
        }
        graph.tangible_markings.push_back(next);
        graph.chain.add_state();
      }
      graph.chain.add_transition(i, it->second, rate);
    }
  }
  graph.initial_distribution.assign(graph.tangible_markings.size(), 0.0);
  graph.initial_distribution[0] = 1.0;
  return graph;
}

namespace {

/// 16-point Gauss-Legendre nodes/weights on [-1, 1] (Newton iteration on the
/// Legendre recurrence; computed once).
constexpr int kQuadOrder = 16;

const std::pair<std::vector<double>, std::vector<double>>& gauss_legendre_16() {
  static const auto rule = [] {
    std::vector<double> x(kQuadOrder), w(kQuadOrder);
    const double pi = std::acos(-1.0);
    for (int i = 0; i < (kQuadOrder + 1) / 2; ++i) {
      double z = std::cos(pi * (i + 0.75) / (kQuadOrder + 0.5));
      double pp = 0.0;
      for (int iter = 0; iter < 64; ++iter) {
        double p1 = 1.0, p2 = 0.0;
        for (int j = 0; j < kQuadOrder; ++j) {
          const double p3 = p2;
          p2 = p1;
          p1 = ((2.0 * j + 1.0) * z * p2 - j * p3) / (j + 1.0);
        }
        pp = kQuadOrder * (z * p1 - p2) / (z * z - 1.0);
        const double z1 = z;
        z = z1 - p1 / pp;
        if (std::abs(z - z1) < 1e-15) break;
      }
      x[i] = -z;
      x[kQuadOrder - 1 - i] = z;
      w[i] = 2.0 / ((1.0 - z * z) * pp * pp);
      w[kQuadOrder - 1 - i] = w[i];
    }
    return std::make_pair(std::move(x), std::move(w));
  }();
  return rule;
}

double max_exit_rate(const ctmc::Ctmc& chain) {
  double best = 0.0;
  for (const double e : chain.exit_rates()) best = std::max(best, e);
  return best;
}

}  // namespace

FactoredAnalyzer::FactoredAnalyzer(const SrnModel& model, const ComponentSplit& split,
                                   const AnalyzerOptions& options)
    : FactoredAnalyzer(model, split, options, model.initial_marking()) {}

FactoredAnalyzer::FactoredAnalyzer(const SrnModel& model, const ComponentSplit& split,
                                   const AnalyzerOptions& options, const Marking& start)
    : model_(&model), start_(start) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::vector<TransitionId>> assignment = component_transitions(model, split);

  diagnostics_.converged = true;
  diagnostics_.flat_states = 1;
  for (std::size_t c = 0; c < assignment.size(); ++c) {
    graphs_.push_back(
        build_component_reachability(model, assignment[c], start, options.reachability));
    const ReachabilityGraph& graph = graphs_.back();
    linalg::SteadyStateResult result = graph.chain.steady_state(options.steady_state);
    diagnostics_.tangible_states += graph.tangible_count();
    diagnostics_.transitions += graph.chain.transitions().size();
    diagnostics_.solver_iterations += result.iterations;
    diagnostics_.residual = std::max(diagnostics_.residual, result.residual);
    diagnostics_.converged = diagnostics_.converged && result.converged;
    if (diagnostics_.flat_states > std::numeric_limits<std::size_t>::max() / graph.tangible_count()) {
      diagnostics_.flat_states = std::numeric_limits<std::size_t>::max();
    } else {
      diagnostics_.flat_states *= graph.tangible_count();
    }
    steady_.push_back(std::move(result.distribution));
  }
  diagnostics_.wall_time_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (options.throw_on_divergence && diagnostics_.badly_diverged()) {
    throw std::runtime_error("FactoredAnalyzer: steady-state solve diverged (residual " +
                             std::to_string(diagnostics_.residual) + ")");
  }
}

void FactoredAnalyzer::check_reward(const SeparableReward& reward) const {
  for (const SeparableReward::Term& term : reward.terms) {
    if (term.factors.size() != component_count()) {
      throw std::invalid_argument(
          "FactoredAnalyzer: separable-reward term must carry one factor per component");
    }
  }
}

double FactoredAnalyzer::expected_reward(const SeparableReward& reward) const {
  check_reward(reward);
  double total = 0.0;
  for (const SeparableReward::Term& term : reward.terms) {
    double product = term.coefficient;
    for (std::size_t c = 0; c < component_count() && product != 0.0; ++c) {
      const RewardFunction& factor = term.factors[c];
      if (!factor) continue;  // empty factor == constant 1
      double expectation = 0.0;
      for (std::size_t i = 0; i < graphs_[c].tangible_count(); ++i) {
        expectation += steady_[c][i] * factor(graphs_[c].tangible_markings[i]);
      }
      product *= expectation;
    }
    total += product;
  }
  return total;
}

double FactoredAnalyzer::reward_curve(const SeparableReward& reward,
                                      const std::vector<double>& grid,
                                      std::vector<double>& values,
                                      const ctmc::TransientOptions& options,
                                      ctmc::TransientDiagnostics* transient) const {
  check_reward(reward);
  if (grid.empty()) throw std::invalid_argument("FactoredAnalyzer::reward_curve: empty grid");
  for (std::size_t j = 0; j < grid.size(); ++j) {
    if (!std::isfinite(grid[j])) {
      throw std::invalid_argument("FactoredAnalyzer::reward_curve: non-finite time point");
    }
    if (grid[j] < 0.0 || (j > 0 && grid[j] < grid[j - 1])) {
      throw std::invalid_argument(
          "FactoredAnalyzer::reward_curve: grid must be ascending and non-negative");
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t components = component_count();

  // Per-(term, component) reward vectors on the component state spaces.
  std::vector<std::vector<std::vector<double>>> factor_values(reward.terms.size());
  for (std::size_t t = 0; t < reward.terms.size(); ++t) {
    factor_values[t].resize(components);
    for (std::size_t c = 0; c < components; ++c) {
      const RewardFunction& factor = reward.terms[t].factors[c];
      if (!factor) continue;
      auto& fv = factor_values[t][c];
      fv.resize(graphs_[c].tangible_count());
      for (std::size_t i = 0; i < fv.size(); ++i) fv[i] = factor(graphs_[c].tangible_markings[i]);
    }
  }

  // Quadrature timeline: composite Gauss-Legendre panels between consecutive
  // grid boundaries (plus [0, grid[0]]), with the panel count tied to the
  // summed uniformization rates so the product curve — whose p-th derivative
  // is bounded by (sum_c 2 Lambda_c)^p — is resolved far below the
  // uniformization truncation error (Lambda_eff * h <= 8 per 16-node panel
  // gives ~1e-16 relative panel error).
  double rate_scale = 0.0;
  for (const ReachabilityGraph& graph : graphs_) rate_scale += 2.0 * max_exit_rate(graph.chain);

  struct Event {
    double time;
    double weight;     // quadrature weight; 0 for pure grid points
    std::size_t grid;  // index into `values`, or npos
  };
  constexpr std::size_t kNoGrid = std::numeric_limits<std::size_t>::max();
  const auto& [nodes, weights] = gauss_legendre_16();
  std::vector<Event> events;
  double prev = 0.0;
  for (std::size_t j = 0; j < grid.size(); ++j) {
    const double length = grid[j] - prev;
    if (length > 0.0) {
      // Clamped in double: a huge span would overflow the cast.
      const std::size_t panels = static_cast<std::size_t>(
          std::clamp(std::ceil(rate_scale * length / 8.0), 1.0, 1024.0));
      const double h = length / static_cast<double>(panels);
      for (std::size_t panel = 0; panel < panels; ++panel) {
        const double a = prev + h * static_cast<double>(panel);
        const double mid = a + 0.5 * h;
        for (int k = 0; k < kQuadOrder; ++k) {
          events.push_back({mid + 0.5 * h * nodes[k], 0.5 * h * weights[k], kNoGrid});
        }
      }
    }
    events.push_back({grid[j], 0.0, j});
    prev = grid[j];
  }

  // Advance every component in lockstep through the merged timeline.  The
  // per-step truncation budget is divided across steps so the accumulated
  // stepping error stays below the caller's epsilon.
  ctmc::TransientOptions step_options = options;
  step_options.epsilon =
      std::max(1e-16, options.epsilon / static_cast<double>(std::max<std::size_t>(1, events.size())));
  std::vector<ctmc::TransientSolver> solvers;
  solvers.reserve(components);
  std::vector<std::vector<double>> current(components), advanced(components);
  for (std::size_t c = 0; c < components; ++c) {
    solvers.emplace_back(step_options);
    solvers.back().prepare(graphs_[c].chain);
    current[c] = graphs_[c].initial_distribution;
  }

  values.assign(grid.size(), 0.0);
  double accumulated = 0.0;
  double now = 0.0;
  for (const Event& event : events) {
    const double dt = event.time - now;
    if (dt > 0.0) {
      for (std::size_t c = 0; c < components; ++c) {
        solvers[c].distribution_at(current[c], dt, advanced[c]);
        current[c].swap(advanced[c]);
      }
      now = event.time;
    }
    double r = 0.0;
    for (std::size_t t = 0; t < reward.terms.size(); ++t) {
      double product = reward.terms[t].coefficient;
      for (std::size_t c = 0; c < components && product != 0.0; ++c) {
        const auto& fv = factor_values[t][c];
        if (fv.empty()) continue;
        double expectation = 0.0;
        for (std::size_t i = 0; i < fv.size(); ++i) expectation += current[c][i] * fv[i];
        product *= expectation;
      }
      r += product;
    }
    if (event.grid != kNoGrid) {
      values[event.grid] = r;
    } else {
      accumulated += event.weight * r;
    }
  }

  if (transient != nullptr) {
    *transient = {};
    for (std::size_t c = 0; c < components; ++c) {
      const ctmc::TransientDiagnostics& d = solvers[c].diagnostics();
      transient->uniformization_rate = std::max(transient->uniformization_rate,
                                                d.uniformization_rate);
      transient->right_point = std::max(transient->right_point, d.right_point);
      transient->matvec_count += d.matvec_count;
      transient->poisson_mass = c == 0 ? d.poisson_mass
                                       : std::min(transient->poisson_mass, d.poisson_mass);
      transient->rhs_count = std::max(transient->rhs_count, d.rhs_count);
      // The component solvers share one dispatch decision; report any one.
      if (transient->kernel.empty()) transient->kernel = d.kernel;
    }
    transient->wall_time_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  return accumulated;
}

}  // namespace patchsec::petri
