#include "patchsec/game/best_response.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <map>
#include <numeric>
#include <set>
#include <utility>

namespace patchsec::game {

namespace {

/// Feasibility slack: constraint checks tolerate this much numerical noise
/// so a cell sitting exactly on a bound is not flipped by rounding.
constexpr double kFeasibilitySlack = 1e-9;
/// Below this a weight counts as unallocated for the certificate's
/// exchange/slack tests.
constexpr double kMassEpsilon = 1e-12;

const core::Scenario& validated_scenario(const GameSpec& spec) {
  spec.validate();
  return spec.scenario;
}

std::string join_signature(const std::vector<std::string>& signature) {
  std::string name;
  for (const std::string& label : signature) {
    if (!name.empty()) name += '-';
    name += label;
  }
  return name;
}

}  // namespace

BestResponseSolver::BestResponseSolver(GameSpec spec, service::ServiceOptions options)
    : spec_(std::move(spec)), service_(validated_scenario(spec_), options) {
  const std::vector<enterprise::RedundancyDesign>& designs = spec_.scenario.designs();
  const std::vector<double>& cadences = spec_.scenario.patch_intervals();
  num_designs_ = designs.size();
  num_cadences_ = cadences.size();

  cost_.resize(num_designs_);
  for (std::size_t i = 0; i < num_designs_; ++i) {
    double cost = 0.0;
    for (unsigned r = 0; r < enterprise::kRoleCount; ++r) {
      cost += static_cast<double>(designs[i].counts[r]) * spec_.defender.server_cost[r];
    }
    cost_[i] = cost;
  }

  const double max_cadence = *std::max_element(cadences.begin(), cadences.end());
  window_.resize(num_cadences_);
  for (std::size_t j = 0; j < num_cadences_; ++j) window_[j] = cadences[j] / max_cadence;

  // Attacker strategy space: the canonical class universe is the union of
  // every design's classes (identical across designs for any fixed policy,
  // but the union keeps degenerate designs — an empty tier removes a role
  // sequence — well-defined), sorted by signature.  The classes come from
  // the Session's security memo, so the sweep's cells reuse this HARM build.
  const core::Session& session = service_.session();
  std::vector<const std::vector<harm::PathClass>*> per_design(num_designs_);
  std::set<std::vector<std::string>> signatures;
  for (std::size_t i = 0; i < num_designs_; ++i) {
    per_design[i] = &session.path_classes(designs[i]);
    for (const harm::PathClass& cls : *per_design[i]) signatures.insert(cls.signature);
  }
  std::map<std::vector<std::string>, std::size_t> index;
  for (const std::vector<std::string>& signature : signatures) {
    index.emplace(signature, class_names_.size());
    class_names_.push_back(join_signature(signature));
  }

  const std::size_t num_classes = class_names_.size();
  impact_max_ = 0.0;
  for (std::size_t i = 0; i < num_designs_; ++i) {
    for (const harm::PathClass& cls : *per_design[i]) {
      impact_max_ = std::max(impact_max_, cls.max_impact);
    }
  }
  success_.assign(num_designs_, std::vector<double>(num_classes, 0.0));
  util_base_.assign(num_designs_, std::vector<double>(num_classes, 0.0));
  const double alpha = spec_.payoff.impact_weight;
  for (std::size_t i = 0; i < num_designs_; ++i) {
    for (const harm::PathClass& cls : *per_design[i]) {
      const std::size_t c = index.at(cls.signature);
      success_[i][c] = cls.success_probability;
      const double impact_share = impact_max_ > 0.0 ? cls.max_impact / impact_max_ : 0.0;
      util_base_[i][c] = alpha * impact_share + (1.0 - alpha) * cls.success_probability;
    }
  }
  scores_.assign(num_designs_ * num_cadences_, CellScore{});
}

void BestResponseSolver::sweep_grid() {
  const std::vector<enterprise::RedundancyDesign>& designs = spec_.scenario.designs();
  const std::vector<double>& cadences = spec_.scenario.patch_intervals();
  // Submit every cell, drain in submission order: the reply order (and with
  // it every downstream number) is independent of the worker count.  Jobs
  // run FIFO, so waiting for the last one first puts the caller to sleep
  // once rather than once per cell.
  std::vector<std::future<service::ServiceReply>> futures;
  futures.reserve(scores_.size());
  for (std::size_t i = 0; i < num_designs_; ++i) {
    for (std::size_t j = 0; j < num_cadences_; ++j) {
      service::EvalRequest request;
      request.design = designs[i];
      request.patch_interval_hours = cadences[j];
      request.kind = service::RequestKind::kSteady;
      futures.push_back(service_.submit(std::move(request)));
    }
  }
  if (!futures.empty()) futures.back().wait();
  for (std::size_t cell = 0; cell < futures.size(); ++cell) {
    const service::ServiceReply reply = futures[cell].get();
    scores_[cell] = CellScore{reply.report.coa, reply.report.before_patch.attack_impact,
                              reply.report.before_patch.attack_success_probability};
  }
}

double BestResponseSolver::exposure_of(std::size_t design_index, std::size_t cadence_index,
                                       const std::vector<double>& weights) const {
  double exposure = 0.0;
  for (std::size_t c = 0; c < weights.size(); ++c) {
    exposure += weights[c] * success_[design_index][c];
  }
  return window_[cadence_index] * exposure;
}

std::vector<double> BestResponseSolver::utilities_at(std::size_t design_index,
                                                     std::size_t cadence_index) const {
  std::vector<double> utilities(class_names_.size());
  for (std::size_t c = 0; c < utilities.size(); ++c) {
    utilities[c] = window_[cadence_index] * util_base_[design_index][c];
  }
  return utilities;
}

double BestResponseSolver::attacker_value(std::size_t design_index, std::size_t cadence_index,
                                          const std::vector<double>& weights) const {
  double value = 0.0;
  for (std::size_t c = 0; c < weights.size(); ++c) {
    value += weights[c] * window_[cadence_index] * util_base_[design_index][c];
  }
  return value;
}

std::vector<double> BestResponseSolver::attacker_best_response(
    const std::vector<double>& utilities, bool* tie_face) const {
  // Linear objective over { 0 <= w_c <= cap, sum w_c <= budget }: fill caps
  // in descending utility until the budget runs out.  Greedy is exact here;
  // ties resolve by canonical class order (stable sort on a stable key).
  std::vector<std::size_t> order(utilities.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&utilities](std::size_t a, std::size_t b) {
    return utilities[a] > utilities[b];
  });
  const double cap = spec_.attacker.per_path_cap;
  std::vector<double> weights(utilities.size(), 0.0);
  double remaining = spec_.attacker.effort_budget;
  for (std::size_t c : order) {
    if (!(utilities[c] > 0.0) || remaining <= 0.0) break;  // zero utility earns nothing.
    const double take = std::min(cap, remaining);
    weights[c] = take;
    remaining -= take;
  }
  if (tie_face != nullptr) {
    // The optimal face has another point iff some edge of the capped simplex
    // leaves the payoff unchanged: a transfer between equal-utility classes,
    // or unspent budget placed on a zero-utility class.
    *tie_face = false;
    for (std::size_t b = 0; b < weights.size(); ++b) {
      if (weights[b] >= cap - kMassEpsilon) continue;
      if (remaining > kMassEpsilon && utilities[b] <= spec_.tie_epsilon) *tie_face = true;
      for (std::size_t a = 0; a < weights.size(); ++a) {
        if (a != b && weights[a] > kMassEpsilon &&
            std::abs(utilities[a] - utilities[b]) <= spec_.tie_epsilon) {
          *tie_face = true;
        }
      }
    }
  }
  return weights;
}

bool BestResponseSolver::cost_feasible(std::size_t design_index) const {
  return cost_[design_index] <= spec_.defender.cost_budget + kFeasibilitySlack;
}

bool BestResponseSolver::exposure_feasible(std::size_t design_index, std::size_t cadence_index,
                                           const std::vector<double>& weights) const {
  return exposure_of(design_index, cadence_index, weights) <=
         spec_.defender.exposure_bound + kFeasibilitySlack;
}

EquilibriumResult BestResponseSolver::solve() {
  const std::vector<enterprise::RedundancyDesign>& designs = spec_.scenario.designs();
  const std::vector<double>& cadences = spec_.scenario.patch_intervals();
  sweep_grid();

  EquilibriumResult result;
  result.iterations = 1;
  result.class_names = class_names_;
  result.frontier.reserve(scores_.size());
  for (std::size_t i = 0; i < num_designs_; ++i) {
    for (std::size_t j = 0; j < num_cadences_; ++j) {
      const CellScore& score = scores_[i * num_cadences_ + j];
      bool tie_face = false;
      std::vector<double> weights = attacker_best_response(utilities_at(i, j), &tie_face);

      FrontierPoint point;
      point.design_index = i;
      point.cadence_index = j;
      point.design_name = designs[i].name();
      point.cadence_hours = cadences[j];
      point.coa = score.coa;
      point.attack_impact = score.attack_impact;
      point.attack_success = score.attack_success;
      point.deployment_cost = cost_[i];
      point.exposure = exposure_of(i, j, weights);
      point.attacker_payoff = attacker_value(i, j, weights);
      point.cost_feasible = cost_feasible(i);
      point.exposure_feasible = exposure_feasible(i, j, weights);
      // The defender's best deviation against this cell's attacker response.
      for (std::size_t di = 0; di < num_designs_; ++di) {
        if (!cost_feasible(di)) continue;
        for (std::size_t dj = 0; dj < num_cadences_; ++dj) {
          if (!exposure_feasible(di, dj, weights)) continue;
          point.coa_gain =
              std::max(point.coa_gain, scores_[di * num_cadences_ + dj].coa - score.coa);
        }
      }
      point.equilibrium = point.cost_feasible && point.exposure_feasible &&
                          point.coa_gain <= spec_.tie_epsilon;
      if (point.equilibrium) {
        const DefenderStrategy cell{i, j};
        DeviationCertificate certificate = certify(cell, weights);
        result.equilibria.push_back(
            Equilibrium{cell, AttackerStrategy{std::move(weights)}, tie_face, certificate});
      }
      result.frontier.push_back(std::move(point));
    }
  }

  // The defender-preferred equilibrium: highest COA, ties to the lowest (i, j).
  const Equilibrium* preferred = nullptr;
  const FrontierPoint* preferred_point = nullptr;
  for (const Equilibrium& eq : result.equilibria) {
    const FrontierPoint& point =
        result.frontier[eq.defender.design_index * num_cadences_ + eq.defender.cadence_index];
    if (preferred == nullptr || point.coa > preferred_point->coa) {
      preferred = &eq;
      preferred_point = &point;
    }
  }
  result.converged = preferred != nullptr;
  if (result.converged) {
    result.defender = preferred->defender;
    result.design = designs[preferred->defender.design_index];
    result.cadence_hours = cadences[preferred->defender.cadence_index];
    result.attacker = preferred->attacker;
    result.defender_payoff = preferred_point->coa;
    result.attacker_payoff = preferred_point->attacker_payoff;
    result.exposure = preferred_point->exposure;
    result.certificate = preferred->certificate;
  }
  result.service = service_.stats();
  return result;
}

DeviationCertificate BestResponseSolver::certify(const DefenderStrategy& defender,
                                                 const std::vector<double>& weights) const {
  DeviationCertificate cert;
  const double eps = spec_.certificate_epsilon;

  // Defender check: replay the feasibility filter over the whole grid and
  // bound the best feasible COA gain.  The held cell must itself be feasible
  // (re-derived here, not taken from the enumeration).
  const double held_coa =
      scores_[defender.design_index * num_cadences_ + defender.cadence_index].coa;
  const bool held_feasible =
      cost_feasible(defender.design_index) &&
      exposure_feasible(defender.design_index, defender.cadence_index, weights);
  double best_gain = 0.0;
  for (std::size_t i = 0; i < num_designs_; ++i) {
    if (!cost_feasible(i)) continue;
    for (std::size_t j = 0; j < num_cadences_; ++j) {
      ++cert.defender_strategies_checked;
      if (!exposure_feasible(i, j, weights)) continue;
      best_gain = std::max(best_gain, scores_[i * num_cadences_ + j].coa - held_coa);
    }
  }
  cert.defender_best_gain = best_gain;
  cert.defender_ok = held_feasible && best_gain <= eps;

  // Attacker check 1: a fresh greedy optimum must not beat the held weights.
  const std::vector<double> utilities =
      utilities_at(defender.design_index, defender.cadence_index);
  const std::vector<double> optimum = attacker_best_response(utilities);
  double held_value = 0.0;
  double optimum_value = 0.0;
  for (std::size_t c = 0; c < utilities.size(); ++c) {
    held_value += weights[c] * utilities[c];
    optimum_value += optimum[c] * utilities[c];
  }
  cert.attacker_best_gain = optimum_value - held_value;

  // Attacker check 2 (exchange/slack KKT argument): no unit of effort can be
  // moved — between classes, or out of the unspent budget — at a positive
  // utility rate.
  double exchange = 0.0;
  double mass = 0.0;
  for (double w : weights) mass += w;
  for (std::size_t a = 0; a < weights.size(); ++a) {
    if (weights[a] <= kMassEpsilon) continue;
    for (std::size_t b = 0; b < weights.size(); ++b) {
      if (b == a || weights[b] >= spec_.attacker.per_path_cap - kMassEpsilon) continue;
      ++cert.attacker_transfers_checked;
      exchange = std::max(exchange, utilities[b] - utilities[a]);
    }
  }
  if (mass < spec_.attacker.effort_budget - kMassEpsilon) {
    for (std::size_t b = 0; b < weights.size(); ++b) {
      if (weights[b] >= spec_.attacker.per_path_cap - kMassEpsilon) continue;
      ++cert.attacker_transfers_checked;
      exchange = std::max(exchange, utilities[b]);
    }
  }
  cert.attacker_exchange_gain = std::max(0.0, exchange);
  cert.attacker_ok = cert.attacker_best_gain <= eps && cert.attacker_exchange_gain <= eps;

  cert.verified = cert.defender_ok && cert.attacker_ok;
  return cert;
}

}  // namespace patchsec::game
