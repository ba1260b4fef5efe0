#pragma once
// Stage-by-stage replays of core::Session's evaluation paths.  Each replay
// makes the same public calls into avail, petri, ctmc, linalg and harm that
// Session makes, in the same order and with the same options, and wraps each
// call in a trace span.  The workloads check that a replay's numbers are
// bit-identical to the Session's, so the breakdown times the same work.

#include <array>
#include <map>
#include <vector>

#include "common.hpp"
#include "patchsec/avail/transient_coa.hpp"
#include "patchsec/core/scenario.hpp"
#include "patchsec/ctmc/transient_solver.hpp"
#include "patchsec/harm/harm.hpp"
#include "patchsec/harm/path_classes.hpp"
#include "patchsec/linalg/stationary_solver.hpp"

namespace perfbench {

namespace ent = patchsec::enterprise;

struct SecurityPair {
  patchsec::harm::SecurityMetrics before;
  patchsec::harm::SecurityMetrics after;
};

struct SteadyCell {
  double coa = 0.0;
  SecurityPair security;
};

/// The memo and solver workspaces of one Session, rebuilt from public calls.
/// Like a Session it memoizes lower-layer aggregations per cadence and HARM
/// metrics per design, so a fresh SessionReplay pays every cold memo exactly
/// where a fresh Session does.
class SessionReplay {
 public:
  explicit SessionReplay(const patchsec::core::Scenario& scenario) : scenario_(scenario) {}

  /// Session::evaluate(design, cadence): aggregation memo, HARM memo,
  /// network verification, then the flat or lumped COA solve.
  SteadyCell evaluate(const ent::RedundancyDesign& design, double cadence, Trace& trace);

  /// Session::evaluate_transient_batch(design, waves, cadence) on the
  /// analytic flat backend: one reachability graph, one prepare, one panel.
  std::vector<patchsec::avail::CoaCurveEvaluation> transient_batch(
      const ent::RedundancyDesign& design, const std::vector<std::map<ent::ServerRole, unsigned>>& waves,
      double cadence, Trace& trace);

  /// Session::aggregation_for: per role, verify the server net, then aggregate.
  const std::map<ent::ServerRole, patchsec::avail::AggregatedRates>& rates(double cadence,
                                                                         Trace& trace);
  /// Session::security_for: build the HARM, evaluate before and after patch.
  const SecurityPair& security(const ent::RedundancyDesign& design, Trace& trace);

 private:
  void verify_network(const ent::RedundancyDesign& design,
                      const std::map<ent::ServerRole, patchsec::avail::AggregatedRates>& rates,
                      Trace& trace);

  const patchsec::core::Scenario& scenario_;
  std::map<double, std::map<ent::ServerRole, patchsec::avail::AggregatedRates>> aggregations_;
  std::map<std::array<unsigned, ent::kRoleCount>, SecurityPair> harm_;
  patchsec::linalg::StationarySolver aggregation_ws_;
  patchsec::linalg::StationarySolver availability_ws_;
  patchsec::ctmc::TransientSolver transient_;
};

/// game::BestResponseSolver's constructor work for one design: HARM build and
/// path-class aggregation with the solver's role labels.
std::vector<patchsec::harm::PathClass> replay_path_classes(const patchsec::core::Scenario& scenario,
                                                           const ent::RedundancyDesign& design,
                                                           Trace& trace);

/// "dns-web-app-db": a path-class signature as BestResponseSolver names it.
std::string class_name(const patchsec::harm::PathClass& cls);

}  // namespace perfbench
