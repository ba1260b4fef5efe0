#pragma once
// Reachability-graph generation with on-the-fly vanishing-marking
// elimination: the SRN is lowered to a CTMC over tangible markings exactly as
// SPNP does it.  One breadth-first pass in state-id order emits each state's
// merged edge row, and the Ctmc assembles its generator from those rows once.
// explore_for_rerate() records the firings too, so rerate() can re-rate the
// net without exploring.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "patchsec/ctmc/ctmc.hpp"
#include "patchsec/linalg/steady_state.hpp"
#include "patchsec/petri/marking.hpp"
#include "patchsec/petri/srn_model.hpp"

namespace patchsec::linalg {
class StationarySolver;
}  // namespace patchsec::linalg

namespace patchsec::petri {

struct ReachabilityOptions {
  /// Abort exploration when the tangible state space exceeds this bound.
  std::size_t max_tangible_markings = 1'000'000;
  /// Abort when a chain of immediate firings exceeds this depth (indicates a
  /// vanishing loop, which the supported model class must not contain).
  std::size_t max_vanishing_depth = 4096;
};

/// \brief End-to-end solver configuration for one SRN analysis: reachability
/// limits plus the steady-state solver knobs handed to
/// linalg::solve_steady_state.  This is the lowered form of the facade's
/// core::EngineOptions.
struct AnalyzerOptions {
  ReachabilityOptions reachability;
  linalg::SteadyStateOptions steady_state;
  /// When true (the historical behaviour), SrnAnalyzer throws
  /// std::runtime_error if the steady-state solve diverges badly
  /// (not converged and residual above 1e-6).  When false the best-effort
  /// distribution is used and the failure is recorded in diagnostics() —
  /// callers (core::Session) surface it instead of crashing.
  bool throw_on_divergence = true;
};

/// \brief Per-stage diagnostics of one SRN analysis: how big the lowered
/// model was and how the steady-state solver fared.  Surfaced all the way up
/// to core::EvalReport.
struct SolveDiagnostics {
  std::size_t tangible_states = 0;      ///< CTMC states after elimination.
  std::size_t vanishing_markings = 0;   ///< vanishing markings eliminated.
  std::size_t transitions = 0;          ///< CTMC rate transitions.
  std::size_t solver_iterations = 0;    ///< iterations of the winning method.
  double residual = 0.0;                ///< max-norm of pi*Q at the iterate.
  bool converged = false;               ///< false when max_iterations elapsed.
  double wall_time_seconds = 0.0;       ///< graph build + solve.
  /// Size the flat (joint) state space would have had, when the upper layer
  /// was evaluated per tier instead of on the joint chain; 0 for ordinary
  /// flat analyses.
  std::size_t flat_states = 0;

  /// The distribution is not usable even as a best-effort estimate: the
  /// iteration hit its budget with a residual that is not merely round-off.
  /// This is the criterion AnalyzerOptions::throw_on_divergence escalates.
  [[nodiscard]] bool badly_diverged() const noexcept {
    return !converged && residual > 1e-6;
  }
};

/// What rerate() needs: each timed firing's successors in exploration order
/// (the firing's transition, the RateRows entry each adds to) and the
/// generator's assembly pattern, which owns the structure every re-rated
/// chain shares.  8 bytes per firing in a net without immediates, where each
/// firing has one successor of probability 1; only explore_for_rerate()
/// pays for it.
struct FiringRecord {
  std::size_t places = 0;  ///< place count of the explored net...
  std::size_t timed = 0;   ///< ...and its timed transition count.
  /// Successors of tangible state s's firings: [offsets[s], offsets[s + 1]).
  std::vector<std::size_t> offsets{0};
  /// One successor: its firing's index among the net's timed transitions and
  /// the RateRows entry its rate adds to, or kSelfLoop.
  struct Successor {
    std::uint32_t timed = 0;
    std::uint32_t entry = 0;
  };
  std::vector<Successor> successors;
  /// Per successor: its probability; empty without immediates (all are 1).
  std::vector<double> probabilities;
  ctmc::GeneratorPattern pattern;

  /// A successor that is the firing state itself (dropped from the chain).
  static constexpr std::uint32_t kSelfLoop = std::numeric_limits<std::uint32_t>::max();
};

/// The lowered model: tangible markings, the CTMC over them, and the initial
/// probability distribution (the initial marking may itself be vanishing, in
/// which case its probability mass is spread over the tangibles it resolves
/// to).
struct ReachabilityGraph {
  std::vector<Marking> tangible_markings;
  ctmc::Ctmc chain;
  std::vector<double> initial_distribution;
  std::size_t vanishing_markings_seen = 0;
  /// Timed firings resolved: one per (tangible state, enabled timed
  /// transition), so at most timed transitions x tangible states.  The
  /// explorer's work counter.
  std::size_t firings = 0;
  /// The firings behind `chain`, for rerate(); left empty (offsets {0})
  /// unless the graph came from explore_for_rerate().
  FiringRecord record;

  [[nodiscard]] std::size_t tangible_count() const noexcept { return tangible_markings.size(); }

  /// Index of a tangible marking; throws std::out_of_range when unknown.
  /// The lookup table is built lazily on the first call (the exploration
  /// loop keeps its own faster packed index, so most graphs never pay for
  /// this map); not safe to call concurrently on the same graph from
  /// multiple threads until the first call has returned.
  [[nodiscard]] std::size_t index_of(const Marking& m) const;

 private:
  mutable std::unordered_map<Marking, std::size_t, MarkingHash> index_;
};

/// Explore the net from its initial marking.  Throws std::runtime_error when
/// a bound of `options` is exceeded (vanishing loop / state-space blow-up)
/// and std::domain_error when the initial marking deadlocks immediately.
/// The graph keeps no FiringRecord, so rerate() refuses it.
[[nodiscard]] ReachabilityGraph build_reachability_graph(const SrnModel& model,
                                                         const ReachabilityOptions& options = {});

/// build_reachability_graph, bit for bit, plus the FiringRecord rerate()
/// needs: for an exploration a caller will re-rate.
[[nodiscard]] ReachabilityGraph explore_for_rerate(const SrnModel& model,
                                                   const ReachabilityOptions& options = {});

/// The chain build_reachability_graph(model) would assemble, bit for bit,
/// without exploring: the recorded rates are re-evaluated on `model` in
/// exploration order, through exploration's check (so a c * #p rate at an
/// empty place throws the same std::domain_error), and filled into the
/// recorded pattern; the chain shares graph.chain's generator structure.
/// `graph` must come from explore_for_rerate() and `model` must be its net
/// with only rates changed, e.g. by SrnModel::set_rate (std::invalid_argument
/// when the graph kept no record or the place or timed transition count
/// differs; guards cannot be compared).  The markings and initial
/// distribution stay graph's.
[[nodiscard]] ctmc::Ctmc rerate(const ReachabilityGraph& graph, const SrnModel& model);

/// Convenience analyzer: builds the graph once, solves the steady state once
/// and evaluates rate rewards against it.
class SrnAnalyzer {
 public:
  explicit SrnAnalyzer(const SrnModel& model, const ReachabilityOptions& options = {});

  /// Full solver configuration: reachability limits plus steady-state method,
  /// tolerance and iteration budget.  diagnostics() reports how the solve
  /// went; with options.throw_on_divergence == false a non-converged solve is
  /// recorded there instead of thrown.  A non-null `workspace` routes the
  /// steady-state solve through a caller-owned linalg::StationarySolver so
  /// repeated analyses of same-structure SRNs (schedule sweeps, design
  /// sweeps) reuse the cached transpose/diagonal/scratch.
  ///
  /// `exploration` asks for the exploration back, to re-rate it later: when
  /// it points at an exploration of `model`'s net at other rates, that one is
  /// re-rated (the same analysis, bit for bit); when it points at null, the
  /// net is explored with its FiringRecord (explore_for_rerate) and the
  /// exploration stored there.  A null `exploration` explores without one.
  SrnAnalyzer(const SrnModel& model, const AnalyzerOptions& options,
              linalg::StationarySolver* workspace = nullptr,
              std::shared_ptr<const ReachabilityGraph>* exploration = nullptr);

  /// The exploration whose markings the rewards read.  After a re-rate its
  /// chain holds the rates it was explored at, not the ones solved.
  [[nodiscard]] const ReachabilityGraph& graph() const noexcept { return *graph_; }
  [[nodiscard]] const std::vector<double>& steady_state() const noexcept { return steady_; }

  /// State counts, solver iterations, residual, convergence flag and wall
  /// time of the analysis run in the constructor.
  [[nodiscard]] const SolveDiagnostics& diagnostics() const noexcept { return diagnostics_; }

  /// Expected steady-state rate reward  E[r] = sum_i pi_i r(m_i).
  [[nodiscard]] double expected_reward(const RewardFunction& reward) const;

  /// Steady-state probability of the set of markings satisfying `predicate`.
  [[nodiscard]] double probability(const std::function<bool(const Marking&)>& predicate) const;

  /// Expected number of tokens in a place at steady state.
  [[nodiscard]] double mean_tokens(PlaceId place) const;

 private:
  std::shared_ptr<const ReachabilityGraph> graph_;
  std::vector<double> steady_;
  SolveDiagnostics diagnostics_;
};

}  // namespace patchsec::petri
