#include "patchsec/testgen/scenario_generator.hpp"

#include <cmath>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>

#include "patchsec/avail/network_srn.hpp"
#include "patchsec/avail/server_srn.hpp"
#include "patchsec/petri/verify.hpp"
#include "patchsec/sim/seed_stream.hpp"

namespace patchsec::testgen {

namespace {

namespace ent = patchsec::enterprise;

double log_uniform(std::mt19937_64& rng, double lo, double hi) {
  std::uniform_real_distribution<double> u(std::log(lo), std::log(hi));
  return std::exp(u(rng));
}

// Scale every mean time of the spec's failure/recovery behaviour by an
// independent log-uniform factor in [1/f, f] — the "rate perturbation" axis.
void perturb_times(ent::FailureRecoveryTimes& times, std::mt19937_64& rng, double factor) {
  const auto scale = [&](double& hours) { hours *= log_uniform(rng, 1.0 / factor, factor); };
  scale(times.hw_mtbf);
  scale(times.hw_mttr);
  scale(times.os_mtbf);
  scale(times.os_mttr);
  scale(times.os_reboot);
  scale(times.svc_mtbf);
  scale(times.svc_mttr);
  scale(times.svc_reboot);
}

// Randomly add reachability edges to the three-tier policy (monotone: attack
// paths can only appear, never vanish, so the HARM stays well-formed).  This
// is the "guard perturbation" axis — the policy hooks are the enabling
// predicates of the topology.
ent::ReachabilityPolicy perturb_policy(std::mt19937_64& rng) {
  ent::ReachabilityPolicy base = ent::ReachabilityPolicy::three_tier();
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const bool attacker_reaches_app = u(rng) < 0.25;
  const bool web_reaches_db = u(rng) < 0.25;
  if (!attacker_reaches_app && !web_reaches_db) return base;

  ent::ReachabilityPolicy policy = base;
  policy.attacker_reaches = [inner = base.attacker_reaches,
                             attacker_reaches_app](ent::ServerRole role) {
    if (attacker_reaches_app && role == ent::ServerRole::kApp) return true;
    return inner(role);
  };
  policy.reaches = [inner = base.reaches, web_reaches_db](ent::ServerRole from,
                                                          ent::ServerRole to) {
    if (web_reaches_db && from == ent::ServerRole::kWeb && to == ent::ServerRole::kDb) {
      return true;
    }
    return inner(from, to);
  };
  return policy;
}

}  // namespace

const char* to_string(DegenerateShape shape) noexcept {
  switch (shape) {
    case DegenerateShape::kNone:
      return "random";
    case DegenerateShape::kSingleHost:
      return "single-host";
    case DegenerateShape::kGlacialRepair:
      return "glacial-repair";
    case DegenerateShape::kSaturatedCapacity:
      return "saturated-capacity";
    case DegenerateShape::kRapidCadence:
      return "rapid-cadence";
  }
  return "unknown";
}

ScenarioGenerator::ScenarioGenerator(GeneratorOptions options) : options_(options) {
  if (options_.max_servers_per_role == 0) {
    throw std::invalid_argument("ScenarioGenerator: max_servers_per_role must be >= 1");
  }
  if (!(options_.min_patch_interval_hours > 0.0) ||
      options_.max_patch_interval_hours < options_.min_patch_interval_hours) {
    throw std::invalid_argument("ScenarioGenerator: bad patch-interval range");
  }
  if (!(options_.rate_perturbation_factor >= 1.0)) {
    throw std::invalid_argument("ScenarioGenerator: rate_perturbation_factor must be >= 1");
  }
  if (options_.degenerate_fraction < 0.0 || options_.degenerate_fraction > 1.0) {
    throw std::invalid_argument("ScenarioGenerator: degenerate_fraction must be in [0, 1]");
  }
}

std::uint64_t ScenarioGenerator::scenario_seed_for(std::uint64_t campaign_seed,
                                                   std::uint64_t index) noexcept {
  // The same counter-based derivation the simulator uses for replication
  // streams: scenario i's seed depends only on (campaign, i).
  return sim::stream_seed(campaign_seed, index);
}

GeneratedScenario ScenarioGenerator::next() {
  return from_seed(scenario_seed_for(options_.seed, counter_++), options_);
}

std::vector<GeneratedScenario> ScenarioGenerator::generate(std::size_t count) {
  std::vector<GeneratedScenario> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(next());
  return out;
}

GeneratedScenario ScenarioGenerator::from_seed(std::uint64_t scenario_seed,
                                               const GeneratorOptions& options) {
  std::mt19937_64 rng(scenario_seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);

  GeneratedScenario generated;
  generated.scenario_seed = scenario_seed;

  // Shape roll first so from_seed and next() follow one code path.
  if (u01(rng) < options.degenerate_fraction) {
    std::uniform_int_distribution<int> pick(0, 3);
    switch (pick(rng)) {
      case 0:
        generated.shape = DegenerateShape::kSingleHost;
        break;
      case 1:
        generated.shape = DegenerateShape::kGlacialRepair;
        break;
      case 2:
        generated.shape = DegenerateShape::kSaturatedCapacity;
        break;
      default:
        generated.shape = DegenerateShape::kRapidCadence;
        break;
    }
  }

  // Specs: the paper's case study with perturbed failure/recovery behaviour.
  std::map<ent::ServerRole, ent::ServerSpec> specs = ent::paper_server_specs();
  for (auto& [role, spec] : specs) {
    perturb_times(spec.times, rng, options.rate_perturbation_factor);
    if (generated.shape == DegenerateShape::kGlacialRepair) {
      // Recovery rate collapses to near zero: reboots take O(100) hours
      // instead of minutes.  (Exactly zero would make the SRN ill-posed —
      // timed rates must stay positive.)
      spec.times.os_reboot = log_uniform(rng, 100.0, 250.0);
      spec.times.svc_reboot = log_uniform(rng, 100.0, 250.0);
    }
  }

  // Design.
  std::uniform_int_distribution<unsigned> count_dist(1, options.max_servers_per_role);
  for (std::size_t i = 0; i < ent::kRoleCount; ++i) {
    generated.design.counts[i] = count_dist(rng);
  }
  if (generated.shape == DegenerateShape::kSingleHost) {
    generated.design.counts = {1, 1, 1, 1};
  } else if (generated.shape == DegenerateShape::kSaturatedCapacity) {
    generated.design.counts.fill(options.max_servers_per_role);
  }

  // Patch cadence.
  double interval = log_uniform(rng, options.min_patch_interval_hours,
                                options.max_patch_interval_hours);
  if (generated.shape == DegenerateShape::kRapidCadence) {
    interval = options.min_patch_interval_hours;
  }

  generated.scenario = core::Scenario{}
                           .with_specs(std::move(specs))
                           .with_policy(perturb_policy(rng))
                           .with_patch_interval(interval)
                           .with_design(generated.design);
  generated.label = std::string(to_string(generated.shape)) + " " + generated.design.name() +
                    " @ " + std::to_string(interval) + "h";

  if (options.lint_generated) {
    for (const core::StageVerification& stage : lint_scenario(generated)) {
      if (!stage.report->clean()) {
        throw std::logic_error("ScenarioGenerator: generated net '" + stage.stage +
                               "' (seed " + std::to_string(scenario_seed) +
                               ") failed static verification:\n" + petri::format(*stage.report));
      }
    }
  }
  return generated;
}

std::vector<core::StageVerification> lint_scenario(const GeneratedScenario& generated) {
  std::vector<core::StageVerification> stages;
  avail::ServerSrnOptions srn_options;
  srn_options.patch_interval_hours = generated.scenario.patch_interval_hours();
  std::map<ent::ServerRole, avail::AggregatedRates> unit_rates;
  for (const auto& [role, spec] : generated.scenario.specs()) {
    stages.push_back(core::StageVerification{
        std::string("server:") + ent::to_string(role),
        std::make_shared<const petri::VerifyReport>(
            petri::verify_model(avail::build_server_srn(spec, srn_options).model))});
    // The network lint is structural: unit rates stand in for the aggregated
    // Table V rates so no lower-layer steady-state solve is needed.
    unit_rates.emplace(role, avail::AggregatedRates{1.0, 1.0, 0.5, 0.5});
  }
  const avail::NetworkSrn net = avail::build_network_srn(generated.design, unit_rates);
  std::vector<std::pair<std::string, petri::RewardFunction>> rewards;
  rewards.emplace_back("coa", net.coa_reward());
  stages.push_back(core::StageVerification{
      "network",
      std::make_shared<const petri::VerifyReport>(petri::verify_model(net.model, rewards))});
  return stages;
}

}  // namespace patchsec::testgen
