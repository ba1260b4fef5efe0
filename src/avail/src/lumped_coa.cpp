#include "patchsec/avail/lumped_coa.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace patchsec::avail {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::array<enterprise::ServerRole, enterprise::kRoleCount> kRoles{
    enterprise::ServerRole::kDns, enterprise::ServerRole::kWeb, enterprise::ServerRole::kApp,
    enterprise::ServerRole::kDb};

/// One deployed tier: n servers on independent two-state clocks.
struct Tier {
  unsigned n = 0;
  unsigned down = 0;  ///< servers down at t = 0 (clamped to n)
  double s = 0.0;     ///< lambda + mu
  double pi = 0.0;    ///< mu / s: long-run probability that a server is up
  double q = 0.0;     ///< lambda / s = 1 - pi, computed directly
};

struct Tiers {
  std::array<Tier, enterprise::kRoleCount> tier{};
  std::size_t count = 0;
  unsigned servers = 0;  ///< N
};

/// The deployed tiers of `design`, every rate checked before anything is
/// evaluated.  `initial_down` (may be null) is clamped like
/// patch_window_marking: to the tier size, undeployed roles ignored.
Tiers make_tiers(const enterprise::RedundancyDesign& design,
                 const std::map<enterprise::ServerRole, AggregatedRates>& rates,
                 const std::map<enterprise::ServerRole, unsigned>* initial_down) {
  Tiers tiers;
  for (const enterprise::ServerRole role : kRoles) {
    const unsigned n = design.count(role);
    if (n == 0) continue;
    const AggregatedRates& r = tier_rates(rates, role);
    Tier& tier = tiers.tier[tiers.count++];
    tier.n = n;
    tier.s = r.lambda_eq + r.mu_eq;
    tier.pi = r.mu_eq / tier.s;
    tier.q = r.lambda_eq / tier.s;
    if (initial_down != nullptr) {
      const auto it = initial_down->find(role);
      if (it != initial_down->end()) tier.down = std::min(it->second, n);
    }
    tiers.servers += n;
  }
  if (tiers.count == 0) throw std::invalid_argument("design deploys no servers");
  return tiers;
}

/// log(1 - p), from p and its directly computed complement c = 1 - p: each
/// branch reads the operand that carries full relative precision there.
double log_complement(double p, double c) { return p < 0.5 ? std::log1p(-p) : std::log(c); }

/// COA(t); t = +inf is the steady state (x = 0).
double coa_at(const Tiers& tiers, double t) {
  std::array<double, enterprise::kRoleCount> up{};
  std::array<double, enterprise::kRoleCount> alive{};
  for (std::size_t r = 0; r < tiers.count; ++r) {
    const Tier& tier = tiers.tier[r];
    // x = e^{-s t} and 1 - x, each exact where it is small.
    const double x = std::exp(-tier.s * t);
    const double one_minus_x = -std::expm1(-tier.s * t);
    // Started up, up now; pi + q x can round above 1 near t = 0.
    const double a = std::min(1.0, tier.pi + tier.q * x);
    const double not_a = tier.q * one_minus_x;
    const double b = tier.pi * one_minus_x;  // started down, up now
    const double not_b = tier.q + tier.pi * x;
    const unsigned started_up = tier.n - tier.down;
    up[r] = started_up * a + tier.down * b;
    if (started_up > 0 && not_a == 0.0) {
      alive[r] = 1.0;  // t = 0: a server that starts up is up
    } else {
      // log P(#up = 0); a zero exponent contributes nothing (0 * log 0 is NaN).
      double log_dead = 0.0;
      if (started_up > 0) log_dead += started_up * log_complement(a, not_a);
      if (tier.down > 0) log_dead += tier.down * log_complement(b, not_b);
      alive[r] = -std::expm1(log_dead);
    }
  }
  double total = 0.0;
  for (std::size_t r = 0; r < tiers.count; ++r) {
    double term = up[r];
    for (std::size_t q = 0; q < tiers.count; ++q) {
      if (q != r) term *= alive[q];
    }
    total += term;
  }
  return total / static_cast<double>(tiers.servers);
}

/// 16-point Gauss-Legendre nodes/weights on [-1, 1] (Newton iteration on the
/// Legendre recurrence; computed once).
constexpr int kQuadOrder = 16;

const std::pair<std::array<double, kQuadOrder>, std::array<double, kQuadOrder>>&
gauss_legendre_16() {
  static const auto rule = [] {
    std::array<double, kQuadOrder> x{}, w{};
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
    return std::make_pair(x, w);
  }();
  return rule;
}

/// int_0^horizon COA(u) du on a graded mesh.  COA is a sum of exponentials
/// e^{-c u} with c <= Lambda = sum_r n_r s_r, so panels of width 4 / Lambda
/// resolve the fastest of them.  From t = 8 / Lambda on, the panels widen to
/// t / 2: a term spans c t / 2 e-folds on [t, 3t/2] but is already damped to
/// e^{-c t} there, so its 16-node error stays at round-off for every c t.
/// The floor on the first width keeps the mesh finite if Lambda overflows.
double accumulated_coa(const Tiers& tiers, double horizon) {
  double rate_scale = 0.0;
  for (std::size_t r = 0; r < tiers.count; ++r) rate_scale += tiers.tier[r].n * tiers.tier[r].s;
  const double min_width = std::max(4.0 / rate_scale, std::numeric_limits<double>::min());
  const auto& [nodes, weights] = gauss_legendre_16();
  double total = 0.0;
  for (double left = 0.0; left < horizon;) {
    const double right = std::min(horizon, left + std::max(min_width, 0.5 * left));
    const double half = 0.5 * (right - left);
    const double mid = left + half;
    double panel = 0.0;
    for (int k = 0; k < kQuadOrder; ++k) panel += weights[k] * coa_at(tiers, mid + half * nodes[k]);
    total += half * panel;
    left = right;
  }
  return total;
}

petri::SolveDiagnostics diagnostics(const Tiers& tiers) {
  petri::SolveDiagnostics d;
  d.converged = true;  // a closed form, not an iteration
  d.flat_states = 1;
  for (std::size_t r = 0; r < tiers.count; ++r) {
    const std::size_t states = std::size_t{tiers.tier[r].n} + 1;
    d.tangible_states += states;
    d.flat_states = d.flat_states > std::numeric_limits<std::size_t>::max() / states
                        ? std::numeric_limits<std::size_t>::max()
                        : d.flat_states * states;
  }
  return d;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

CoaEvaluation capacity_oriented_availability_lumped_detailed(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const petri::AnalyzerOptions& /*engine*/) {
  const auto start = Clock::now();
  const Tiers tiers = make_tiers(design, rates, nullptr);
  CoaEvaluation result{coa_at(tiers, std::numeric_limits<double>::infinity()),
                       diagnostics(tiers)};
  result.diagnostics.wall_time_seconds = seconds_since(start);
  return result;
}

CoaCurveEvaluation transient_coa_lumped_detailed(
    const enterprise::RedundancyDesign& design,
    const std::map<enterprise::ServerRole, AggregatedRates>& rates,
    const std::vector<double>& time_points_hours, const TransientCoaOptions& options) {
  const auto start = Clock::now();
  const Tiers tiers = make_tiers(design, rates, &options.initial_down);
  if (time_points_hours.empty()) {
    throw std::invalid_argument("transient_coa_lumped: no time points");
  }
  for (std::size_t j = 0; j < time_points_hours.size(); ++j) {
    const double t = time_points_hours[j];
    if (!std::isfinite(t)) throw std::invalid_argument("transient_coa_lumped: non-finite time");
    if (t < 0.0 || (j > 0 && t < time_points_hours[j - 1])) {
      throw std::invalid_argument(
          "transient_coa_lumped: grid must be ascending and non-negative");
    }
  }

  CoaCurveEvaluation result;
  result.curve.reserve(time_points_hours.size());
  for (const double t : time_points_hours) result.curve.push_back({t, coa_at(tiers, t)});
  result.accumulated_coa_hours = accumulated_coa(tiers, time_points_hours.back());
  result.diagnostics = diagnostics(tiers);
  result.diagnostics.wall_time_seconds = seconds_since(start);
  return result;
}

}  // namespace patchsec::avail
