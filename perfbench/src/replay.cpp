#include "replay.hpp"

#include <cctype>
#include <string>
#include <utility>

#include "patchsec/avail/lumped_coa.hpp"
#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/server_srn.hpp"
#include "patchsec/enterprise/network.hpp"
#include "patchsec/petri/reachability.hpp"
#include "patchsec/petri/verify.hpp"

namespace perfbench {

namespace avail = patchsec::avail;
namespace petri = patchsec::petri;
namespace harm = patchsec::harm;

const std::map<ent::ServerRole, avail::AggregatedRates>& SessionReplay::rates(double cadence,
                                                                            Trace& trace) {
  const auto it = aggregations_.find(cadence);
  if (it != aggregations_.end()) return it->second;

  std::map<ent::ServerRole, avail::AggregatedRates> rates;
  avail::ServerSrnOptions srn_options;
  srn_options.patch_interval_hours = cadence;
  const petri::AnalyzerOptions engine = scenario_.engine().analyzer_options();
  for (const auto& [role, spec] : scenario_.specs()) {
    if (scenario_.engine().verify != patchsec::core::VerifyMode::kOff) {
      const auto span = trace.scope("petri.verify");
      const petri::VerifyReport report = petri::verify_model(
          avail::build_server_srn(spec, srn_options).model, scenario_.engine().verify_options);
      (void)report;
    }
    const auto span = trace.scope("avail.aggregate");
    const avail::ServerAggregation server =
        avail::aggregate_server_detailed(spec, srn_options, engine, &aggregation_ws_);
    trace.count("avail.aggregate_calls", 1);
    rates.emplace(role, server.rates);
  }
  return aggregations_.emplace(cadence, std::move(rates)).first->second;
}

const SecurityPair& SessionReplay::security(const ent::RedundancyDesign& design, Trace& trace) {
  const auto it = harm_.find(design.counts);
  if (it != harm_.end()) return it->second;

  SecurityPair pair;
  const harm::PathEnumerationOptions& paths = scenario_.engine().harm_paths;
  harm::Harm before = [&] {
    const auto span = trace.scope("harm.build");
    return ent::NetworkModel(design, scenario_.specs(), scenario_.policy()).build_harm();
  }();
  {
    const auto span = trace.scope("harm.paths");
    pair.before = before.evaluate(paths);
  }
  harm::Harm after = [&] {
    const auto span = trace.scope("harm.build");
    return before.after_critical_patch();
  }();
  {
    const auto span = trace.scope("harm.paths");
    pair.after = after.evaluate(paths);
  }
  trace.count("harm.paths", static_cast<double>(pair.before.attack_paths + pair.after.attack_paths));
  trace.count("harm.truncated",
              static_cast<double>(pair.before.truncated_paths + pair.after.truncated_paths));
  return harm_.emplace(design.counts, std::move(pair)).first->second;
}

void SessionReplay::verify_network(const ent::RedundancyDesign& design,
                                   const std::map<ent::ServerRole, avail::AggregatedRates>& rates,
                                   Trace& trace) {
  if (scenario_.engine().verify == patchsec::core::VerifyMode::kOff) return;
  const auto span = trace.scope("petri.verify");
  const avail::NetworkSrn net = avail::build_network_srn(design, rates);
  std::vector<std::pair<std::string, petri::RewardFunction>> rewards;
  rewards.emplace_back("coa", net.coa_reward());
  const petri::VerifyReport report =
      petri::verify_model(net.model, rewards, scenario_.engine().verify_options);
  (void)report;
}

SteadyCell SessionReplay::evaluate(const ent::RedundancyDesign& design, double cadence,
                                   Trace& trace) {
  const auto& agg = rates(cadence, trace);
  SteadyCell cell;
  cell.security = security(design, trace);
  verify_network(design, agg, trace);

  const petri::AnalyzerOptions engine = scenario_.engine().analyzer_options();
  if (scenario_.engine().lumping) {
    const auto span = trace.scope("avail.lumped");
    const avail::CoaEvaluation coa =
        avail::capacity_oriented_availability_lumped_detailed(design, agg, engine);
    cell.coa = coa.coa;
    return cell;
  }

  const avail::NetworkSrn net = [&] {
    const auto span = trace.scope("avail.network");
    return avail::build_network_srn(design, agg);
  }();
  const petri::ReachabilityGraph graph = [&] {
    const auto span = trace.scope("petri.reach");
    return petri::build_reachability_graph(net.model, engine.reachability);
  }();
  trace.count("petri.reach_calls", 1);
  trace.count("petri.states", static_cast<double>(graph.tangible_count()));
  const patchsec::linalg::CsrMatrix generator = [&] {
    const auto span = trace.scope("ctmc.generator");
    return graph.chain.generator();
  }();
  const patchsec::linalg::SteadyStateResult ss = [&] {
    const auto span = trace.scope("linalg.steady");
    return availability_ws_.solve(generator, engine.steady_state);
  }();
  trace.count("linalg.steady_iters", static_cast<double>(ss.iterations));
  {
    const auto span = trace.scope("avail.reward");
    const petri::RewardFunction reward = net.coa_reward();
    double acc = 0.0;
    for (std::size_t i = 0; i < graph.tangible_count(); ++i) {
      acc += ss.distribution[i] * reward(graph.tangible_markings[i]);
    }
    cell.coa = acc;
  }
  return cell;
}

std::vector<avail::CoaCurveEvaluation> SessionReplay::transient_batch(
    const ent::RedundancyDesign& design, const std::vector<std::map<ent::ServerRole, unsigned>>& waves,
    double cadence, Trace& trace) {
  const patchsec::core::EngineOptions& engine = scenario_.engine();
  const std::vector<double> grid = engine.transient_grid();
  const auto& agg = rates(cadence, trace);
  (void)security(design, trace);

  const avail::NetworkSrn net = [&] {
    const auto span = trace.scope("avail.network");
    return avail::build_network_srn(design, agg);
  }();
  const petri::ReachabilityGraph graph = [&] {
    const auto span = trace.scope("petri.reach");
    return petri::build_reachability_graph(net.model, engine.reachability);
  }();
  trace.count("petri.reach_calls", 1);
  trace.count("petri.states", static_cast<double>(graph.tangible_count()));

  std::vector<double> rewards;
  std::vector<std::vector<double>> initials(waves.size());
  {
    const auto span = trace.scope("avail.reward");
    const petri::RewardFunction reward = net.coa_reward();
    rewards.reserve(graph.tangible_count());
    for (const petri::Marking& m : graph.tangible_markings) rewards.push_back(reward(m));
    for (std::size_t b = 0; b < waves.size(); ++b) {
      initials[b].assign(graph.tangible_count(), 0.0);
      initials[b][graph.index_of(avail::patch_window_marking(net, waves[b]))] = 1.0;
    }
  }

  // prepare() assembles the generator internally; this one extra call is the
  // only way to time generator assembly from outside.  It adds its own time
  // to the replay (see trace.overhead).
  {
    const auto span = trace.scope("ctmc.generator");
    (void)graph.chain.generator();
  }
  const std::size_t reuses_before = transient_.structure_reuses();
  {
    const auto span = trace.scope("ctmc.prepare");
    transient_.set_options(engine.uniformization);
    transient_.prepare(graph.chain);
  }
  trace.count("ctmc.prepares", 1);
  trace.count("ctmc.structure_reuses",
              static_cast<double>(transient_.structure_reuses() - reuses_before));

  std::vector<std::vector<double>> curves;
  std::vector<double> accumulated;
  {
    const auto span = trace.scope("ctmc.curve");
    accumulated = transient_.reward_curve_multi(initials, rewards, grid, curves);
  }
  trace.count("ctmc.sweeps", static_cast<double>(transient_.diagnostics().matvec_count *
                                                 transient_.diagnostics().rhs_count));
  verify_network(design, agg, trace);

  std::vector<avail::CoaCurveEvaluation> results(waves.size());
  for (std::size_t b = 0; b < waves.size(); ++b) {
    results[b].accumulated_coa_hours = accumulated[b];
    for (std::size_t j = 0; j < curves[b].size(); ++j) {
      results[b].curve.push_back({grid[j], curves[b][j]});
    }
    results[b].transient = transient_.diagnostics();
  }
  return results;
}

namespace {

/// "web2" -> "web": BestResponseSolver's role label of a HARM node.
std::string role_label(const std::string& node_name) {
  std::size_t end = node_name.size();
  while (end > 0 && std::isdigit(static_cast<unsigned char>(node_name[end - 1])) != 0) --end;
  return node_name.substr(0, end);
}

}  // namespace

std::vector<harm::PathClass> replay_path_classes(const patchsec::core::Scenario& scenario,
                                                 const ent::RedundancyDesign& design,
                                                 Trace& trace) {
  const harm::Harm model = [&] {
    const auto span = trace.scope("harm.build");
    return ent::NetworkModel(design, scenario.specs(), scenario.policy()).build_harm();
  }();
  const auto span = trace.scope("harm.classes");
  harm::PathEnumerationStats stats;
  std::vector<harm::PathClass> classes = harm::aggregate_path_classes(
      model, [&model](harm::GraphNodeId id) { return role_label(model.graph().name(id)); },
      scenario.engine().harm_paths, &stats);
  trace.count("harm.paths", static_cast<double>(stats.enumerated - stats.truncated));
  trace.count("harm.truncated", static_cast<double>(stats.truncated));
  return classes;
}

std::string class_name(const harm::PathClass& cls) {
  std::string name;
  for (const std::string& label : cls.signature) {
    if (!name.empty()) name += '-';
    name += label;
  }
  return name;
}

}  // namespace perfbench
