#include "patchsec/core/scenario.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace patchsec::core {

std::vector<double> EngineOptions::transient_grid() const {
  if (!time_points.empty()) {
    double previous = 0.0;
    for (double t : time_points) {
      if (!std::isfinite(t)) {
        throw std::invalid_argument("EngineOptions: non-finite transient time point");
      }
      if (t < 0.0) {
        throw std::invalid_argument("EngineOptions: negative transient time point");
      }
      if (t < previous) {
        throw std::invalid_argument("EngineOptions: transient time_points must be ascending");
      }
      previous = t;
    }
    // A zero-length window has no interval COA — reject a {0.0} grid here.
    if (!(time_points.back() > 0.0)) {
      throw std::invalid_argument("EngineOptions: transient window must end after t = 0");
    }
    return time_points;
  }
  if (!(horizon_hours > 0.0) || !std::isfinite(horizon_hours)) {
    throw std::invalid_argument("EngineOptions: horizon_hours must be finite and > 0");
  }
  if (transient_points < 2) {
    throw std::invalid_argument("EngineOptions: transient_points must be >= 2");
  }
  std::vector<double> grid;
  grid.reserve(transient_points);
  for (std::size_t j = 0; j < transient_points; ++j) {
    grid.push_back(horizon_hours * static_cast<double>(j) /
                   static_cast<double>(transient_points - 1));
  }
  return grid;
}

Scenario Scenario::paper_case_study() {
  return Scenario()
      .with_specs(enterprise::paper_server_specs())
      .with_policy(enterprise::ReachabilityPolicy::three_tier())
      .with_patch_interval(720.0)
      .with_designs(enterprise::paper_designs());
}

Scenario& Scenario::with_specs(std::map<enterprise::ServerRole, enterprise::ServerSpec> specs) {
  specs_ = std::move(specs);
  return *this;
}

Scenario& Scenario::with_spec(enterprise::ServerRole role, enterprise::ServerSpec spec) {
  specs_.insert_or_assign(role, std::move(spec));
  return *this;
}

Scenario& Scenario::with_policy(enterprise::ReachabilityPolicy policy) {
  policy_ = std::move(policy);
  return *this;
}

Scenario& Scenario::with_patch_interval(double hours) {
  patch_intervals_ = {hours};
  return *this;
}

Scenario& Scenario::with_patch_schedule(std::vector<double> hours) {
  patch_intervals_ = std::move(hours);
  return *this;
}

Scenario& Scenario::with_designs(std::vector<enterprise::RedundancyDesign> designs) {
  designs_ = std::move(designs);
  return *this;
}

Scenario& Scenario::with_design(enterprise::RedundancyDesign design) {
  designs_.push_back(design);
  return *this;
}

Scenario& Scenario::with_engine(EngineOptions engine) {
  engine_ = engine;
  return *this;
}

void Scenario::validate() const {
  if (specs_.empty()) {
    throw std::invalid_argument("Scenario: no server specs (use with_specs/with_spec)");
  }
  if (!policy_.attacker_reaches || !policy_.reaches) {
    throw std::invalid_argument("Scenario: reachability policy hooks must be callable");
  }
  if (patch_intervals_.empty()) {
    throw std::invalid_argument("Scenario: empty patch schedule");
  }
  for (double h : patch_intervals_) {
    if (!(h > 0.0)) {
      throw std::invalid_argument("Scenario: patch interval must be > 0 hours, got " +
                                  std::to_string(h));
    }
  }
  for (const enterprise::RedundancyDesign& d : designs_) {
    if (d.total_servers() == 0) {
      throw std::invalid_argument("Scenario: design \"" + d.name() + "\" deploys no servers");
    }
    for (const enterprise::ServerRole role :
         {enterprise::ServerRole::kDns, enterprise::ServerRole::kWeb, enterprise::ServerRole::kApp,
          enterprise::ServerRole::kDb}) {
      if (d.count(role) > 0 && !specs_.contains(role)) {
        throw std::invalid_argument("Scenario: design \"" + d.name() + "\" deploys role " +
                                    std::string(enterprise::to_string(role)) +
                                    " but no spec was provided for it");
      }
    }
  }
  if (engine_.steady_state.max_iterations == 0) {
    throw std::invalid_argument("Scenario: steady_state.max_iterations must be > 0");
  }
}

}  // namespace patchsec::core
