#include "patchsec/avail/aggregation.hpp"

#include <stdexcept>

#include "patchsec/petri/reachability.hpp"

namespace patchsec::avail {

AggregatedRates aggregate_server(const enterprise::ServerSpec& spec,
                                 const ServerSrnOptions& options) {
  return aggregate_server_detailed(spec, options, petri::AnalyzerOptions{}).rates;
}

ServerAggregation aggregate_server_detailed(const enterprise::ServerSpec& spec,
                                            const ServerSrnOptions& options,
                                            const petri::AnalyzerOptions& engine,
                                            linalg::StationarySolver* workspace) {
  return aggregate_server_srn(build_server_srn(spec, options), spec, options, engine, workspace);
}

ServerAggregation aggregate_server_srn(
    const ServerSrn& srn, const enterprise::ServerSpec& spec, const ServerSrnOptions& options,
    const petri::AnalyzerOptions& engine, linalg::StationarySolver* workspace,
    std::shared_ptr<const petri::ReachabilityGraph>* exploration) {
  const double patch_interval_hours = options.patch_interval_hours;
  const petri::SrnAnalyzer analyzer(srn.model, engine, workspace, exploration);

  AggregatedRates rates;
  rates.p_patch_down =
      analyzer.probability([&srn](const petri::Marking& m) { return srn.service_patch_down(m); });
  rates.p_reboot_enabled = analyzer.probability(
      [&srn](const petri::Marking& m) { return srn.service_reboot_enabled(m); });
  if (!(rates.p_patch_down > 0.0)) {
    throw std::domain_error("aggregate_server: patch-down probability is zero; no patch occurs");
  }
  const double beta_svc = 1.0 / spec.times.svc_reboot;
  rates.lambda_eq = 1.0 / patch_interval_hours;  // Eq. (1)
  if (rates.p_reboot_enabled > 0.0) {
    rates.mu_eq = beta_svc * rates.p_reboot_enabled / rates.p_patch_down;  // Eq. (2)
  } else {
    // Reboot-free policy: Eq. (2)'s reboot state vanishes.  Use the
    // two-state-consistency identity instead: the aggregated chain must
    // reproduce the detailed patch-down probability, so
    // mu = lambda * (1 - p_pd) / p_pd.
    rates.mu_eq = rates.lambda_eq * (1.0 - rates.p_patch_down) / rates.p_patch_down;
  }
  return ServerAggregation{rates, analyzer.diagnostics()};
}

double mu_eq_closed_form(const enterprise::ServerSpec& spec) {
  const double downtime = spec.app_patch_hours() + spec.os_patch_hours() +
                          spec.times.os_reboot + spec.times.svc_reboot;
  if (!(downtime > 0.0)) throw std::domain_error("mu_eq_closed_form: zero patch downtime");
  return 1.0 / downtime;
}

}  // namespace patchsec::avail
