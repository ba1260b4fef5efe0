#pragma once
/// \file lumping.hpp
/// \brief Exact product-form analysis of SRNs that decompose into
/// independent components.
///
/// When the places partition into components such that every transition
/// reads and writes a single component (`ComponentSplit`), the components
/// evolve as independent CTMCs: both the stationary distribution and — for
/// a deterministic initial marking — the transient distribution factorize
/// into a product over components.  A `SeparableReward` (sum of products of
/// per-component factors, the shape of the paper's COA reward) is then
/// evaluated from the per-component marginals alone: the joint chain of
/// `prod_c S_c` states is never built.  Accumulated rewards integrate the
/// product curve by composite Gauss-Legendre quadrature with the panel count
/// tied to the uniformization rates, so the quadrature error sits below the
/// uniformization truncation error.  The answers equal the joint-chain
/// answers up to solver tolerance, which tests/test_lumping.cpp pins to
/// 1e-10.
///
/// The avail layer applies it to the counting-form network net (one
/// up/down token-count pair per tier, `avail/network_srn.hpp`): the per-tier
/// birth-death chains factor the network product space, turning the
/// k-servers-per-tier design from `(k+1)^4` joint states into four chains of
/// `k+1` states.

#include <cstddef>
#include <vector>

#include "patchsec/ctmc/transient_solver.hpp"
#include "patchsec/petri/marking.hpp"
#include "patchsec/petri/reachability.hpp"
#include "patchsec/petri/srn_model.hpp"

namespace patchsec::petri {

/// A partition of the places of a net into independently evolving
/// components (every transition must read/write/inhibit within one
/// component; guards and marking-dependent rates must only read their own
/// component, which cannot be checked structurally and is part of the
/// caller's contract).
struct ComponentSplit {
  std::vector<std::vector<PlaceId>> components;
};

/// Assign every transition of `model` to the unique component of `split`
/// containing all its arc endpoints.  Throws std::invalid_argument when
/// `split` is not a partition of the places, when a transition spans
/// components or touches no place, or when the model contains immediate
/// transitions (the product-form argument needs a fully timed net).
[[nodiscard]] std::vector<std::vector<TransitionId>> component_transitions(
    const SrnModel& model, const ComponentSplit& split);

/// Explore the reachability graph of one component: BFS from `start` firing
/// only `transitions`, all other places frozen.  The returned graph's
/// markings are full-size (frozen places keep their `start` value) and its
/// initial distribution is the delta at `start`.  Throws like
/// build_reachability_graph on state-space blow-up.
[[nodiscard]] ReachabilityGraph build_component_reachability(
    const SrnModel& model, const std::vector<TransitionId>& transitions, const Marking& start,
    const ReachabilityOptions& options = {});

/// Sum of products of per-component rate rewards:
///   r(m) = sum_t coefficient_t * prod_c factor_{t,c}(m_c).
/// `factors` is indexed by component; an empty std::function stands for the
/// constant 1 (the component does not enter the term).  Each factor is
/// evaluated on that component's full-size markings.
struct SeparableReward {
  struct Term {
    double coefficient = 1.0;
    std::vector<RewardFunction> factors;
  };
  std::vector<Term> terms;
};

/// Product-form analyzer: per-component reachability graphs and stationary
/// distributions, evaluated against separable rewards without ever building
/// the joint chain.  The steady-state product form is exact for independent
/// components; the transient product form additionally needs a deterministic
/// start marking (which `start` is, by construction).
class FactoredAnalyzer {
 public:
  /// Analyze from the model's initial marking.
  FactoredAnalyzer(const SrnModel& model, const ComponentSplit& split,
                   const AnalyzerOptions& options = {});
  /// Analyze from an explicit start marking (transient patch-window starts).
  FactoredAnalyzer(const SrnModel& model, const ComponentSplit& split,
                   const AnalyzerOptions& options, const Marking& start);

  [[nodiscard]] std::size_t component_count() const noexcept { return graphs_.size(); }
  [[nodiscard]] const ReachabilityGraph& component_graph(std::size_t c) const {
    return graphs_.at(c);
  }
  [[nodiscard]] const std::vector<double>& component_steady(std::size_t c) const {
    return steady_.at(c);
  }

  /// Aggregated solve diagnostics: `tangible_states`/`transitions` are the
  /// sums over components (the states actually built and solved),
  /// `flat_states` is the product (the joint space that was avoided),
  /// `solver_iterations` sums, `residual` takes the worst component and
  /// `converged` requires every component to converge.
  [[nodiscard]] const SolveDiagnostics& diagnostics() const noexcept { return diagnostics_; }

  /// Steady-state expectation of a separable reward:
  ///   E[r] = sum_t c_t * prod_c E_{pi_c}[factor_{t,c}].
  [[nodiscard]] double expected_reward(const SeparableReward& reward) const;

  /// Transient curve r(t_j) over an ascending, finite, non-negative grid
  /// (std::invalid_argument otherwise), advancing every component's
  /// distribution by uniformization from the start marking.  Returns the
  /// accumulated reward int_0^{t_back} r(s) ds, integrated by composite
  /// Gauss-Legendre panels sized so the quadrature error is dominated by the
  /// uniformization tolerance.  `values` is resized to the grid;
  /// per-component uniformization work is aggregated into `*transient` when
  /// non-null.
  double reward_curve(const SeparableReward& reward, const std::vector<double>& grid,
                      std::vector<double>& values, const ctmc::TransientOptions& options = {},
                      ctmc::TransientDiagnostics* transient = nullptr) const;

 private:
  void check_reward(const SeparableReward& reward) const;

  const SrnModel* model_ = nullptr;
  Marking start_;
  std::vector<ReachabilityGraph> graphs_;
  std::vector<std::vector<double>> steady_;
  SolveDiagnostics diagnostics_;
};

}  // namespace patchsec::petri
