#include "patchsec/service/request_hash.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "patchsec/harm/attack_tree.hpp"

namespace patchsec::service {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// splitmix64 finalizer: full-avalanche mix so sequential FNV states (and the
// low bits the shard selector uses) decorrelate.
std::uint64_t avalanche(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void hash_vulnerability(HashStream& h, const nvd::Vulnerability& v) {
  h.tag('v');
  h.str(v.cve_id);
  h.str(v.product);
  h.u8(static_cast<std::uint8_t>(v.layer));
  h.u8(v.remotely_exploitable ? 1 : 0);
  h.u8(static_cast<std::uint8_t>(v.vector.access_vector));
  h.u8(static_cast<std::uint8_t>(v.vector.access_complexity));
  h.u8(static_cast<std::uint8_t>(v.vector.authentication));
  h.u8(static_cast<std::uint8_t>(v.vector.confidentiality));
  h.u8(static_cast<std::uint8_t>(v.vector.integrity));
  h.u8(static_cast<std::uint8_t>(v.vector.availability));
}

void hash_attack_tree(HashStream& h, const harm::AttackTree& tree) {
  h.tag('T');
  h.u64(tree.node_count());
  for (harm::NodeId n = 0; n < tree.node_count(); ++n) {
    const harm::GateType type = tree.node_type(n);
    h.u8(static_cast<std::uint8_t>(type));
    if (type == harm::GateType::kLeaf) {
      hash_vulnerability(h, tree.node_vulnerability(n));
    } else {
      const std::vector<harm::NodeId>& children = tree.node_children(n);
      h.u64(children.size());
      for (harm::NodeId c : children) h.u64(c);
    }
  }
  h.u64(tree.root() ? *tree.root() + 1 : 0);  // 0 = no root set
}

void hash_spec(HashStream& h, const enterprise::ServerSpec& spec) {
  h.tag('s');
  h.u8(static_cast<std::uint8_t>(spec.role));
  h.str(spec.os_name);
  h.str(spec.service_name);
  h.u64(spec.vulnerabilities.size());
  for (const nvd::Vulnerability& v : spec.vulnerabilities) hash_vulnerability(h, v);
  hash_attack_tree(h, spec.attack_tree);
  h.f64(spec.times.hw_mtbf);
  h.f64(spec.times.hw_mttr);
  h.f64(spec.times.os_mtbf);
  h.f64(spec.times.os_mttr);
  h.f64(spec.times.os_reboot);
  h.f64(spec.times.svc_mtbf);
  h.f64(spec.times.svc_mttr);
  h.f64(spec.times.svc_reboot);
}

// The policy hooks are opaque closures over a 4x4 role grid: probe the whole
// domain and hash the truth table (exact for pure hooks — see the header).
void hash_policy(HashStream& h, const enterprise::ReachabilityPolicy& policy) {
  h.tag('P');
  std::uint32_t attacker_bits = 0;
  std::uint32_t reach_bits = 0;
  for (unsigned from = 0; from < enterprise::kRoleCount; ++from) {
    const auto from_role = static_cast<enterprise::ServerRole>(from);
    if (policy.attacker_reaches && policy.attacker_reaches(from_role)) {
      attacker_bits |= 1u << from;
    }
    for (unsigned to = 0; to < enterprise::kRoleCount; ++to) {
      const auto to_role = static_cast<enterprise::ServerRole>(to);
      if (policy.reaches && policy.reaches(from_role, to_role)) {
        reach_bits |= 1u << (from * enterprise::kRoleCount + to);
      }
    }
  }
  h.u32(attacker_bits);
  h.u32(reach_bits);
  h.u8(static_cast<std::uint8_t>(policy.target_role));
}

void hash_design(HashStream& h, const enterprise::RedundancyDesign& design) {
  for (unsigned count : design.counts) h.u32(count);
}

void append_engine_options(HashStream& h, const core::EngineOptions& engine) {
  h.tag('E');
  // Steady-state solver.
  h.u8(static_cast<std::uint8_t>(engine.steady_state.method));
  h.f64(engine.steady_state.tolerance);
  h.u64(engine.steady_state.max_iterations);
  // Reachability limits.
  h.u64(engine.reachability.max_tangible_markings);
  h.u64(engine.reachability.max_vanishing_depth);
  h.u8(engine.throw_on_divergence ? 1 : 0);
  // Upper-layer engine (parallel/threads are scheduling-only — excluded).
  h.u8(engine.lumping ? 1 : 0);
  // Transient window.
  h.f64(engine.horizon_hours);
  h.u64(engine.time_points.size());
  for (double t : engine.time_points) h.f64(t);
  h.u64(engine.transient_points);
  h.u64(engine.initial_down.size());
  for (const auto& [role, down] : engine.initial_down) {
    h.u8(static_cast<std::uint8_t>(role));
    h.u32(down);
  }
  // Uniformization truncation: only the flat transient engine reads it, so
  // closed-form lumped scenarios share keys across it.
  if (!engine.lumping) {
    h.f64(engine.uniformization.epsilon);
    h.u64(engine.uniformization.max_terms);
  }
  // HARM path-enumeration cap (truncation changes the security metrics —
  // a capped report must never share a cache entry with an exact one).
  h.u64(engine.harm_paths.max_paths);
  h.u8(engine.harm_paths.truncate ? 1 : 0);
  // Verification (findings land in the report payload).
  h.u8(static_cast<std::uint8_t>(engine.verify));
  h.u64(engine.verify_options.max_intermediate_rows);
  h.u8(engine.verify_options.probe_functions ? 1 : 0);
}

}  // namespace

void HashStream::u8(std::uint8_t v) noexcept {
  state_ = (state_ ^ v) * kFnvPrime;
  ++length_;
}

void HashStream::u32(std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void HashStream::u64(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void HashStream::f64(double v) {
  if (std::isnan(v)) {
    throw std::invalid_argument("HashStream: NaN has no canonical bit pattern");
  }
  if (v == 0.0) v = 0.0;  // -0.0 -> +0.0 (the Session cadence-key contract)
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void HashStream::str(std::string_view s) noexcept {
  u64(s.size());
  for (char c : s) u8(static_cast<std::uint8_t>(c));
}

std::uint64_t HashStream::digest() const noexcept {
  // Fold the length so streams that differ only by trailing empty sections
  // cannot collide, then avalanche.
  return avalanche(state_ ^ avalanche(length_));
}

std::uint64_t hash_engine_options(const core::EngineOptions& engine) {
  HashStream h;
  append_engine_options(h, engine);
  return h.digest();
}

std::uint64_t hash_scenario(const core::Scenario& scenario) {
  HashStream h;
  h.tag('S');
  h.u64(scenario.specs().size());
  for (const auto& [role, spec] : scenario.specs()) {
    h.u8(static_cast<std::uint8_t>(role));
    hash_spec(h, spec);
  }
  hash_policy(h, scenario.policy());
  h.tag('I');
  h.u64(scenario.patch_intervals().size());
  for (double hours : scenario.patch_intervals()) h.f64(hours);
  h.tag('D');
  h.u64(scenario.designs().size());
  for (const enterprise::RedundancyDesign& design : scenario.designs()) hash_design(h, design);
  append_engine_options(h, scenario.engine());
  return h.digest();
}

std::uint64_t request_key(std::uint64_t scenario_hash, const EvalRequest& request) {
  if (!(request.patch_interval_hours > 0.0)) {
    throw std::invalid_argument("request_key: patch interval must be resolved (> 0)");
  }
  HashStream h;
  h.tag('R');
  h.u64(scenario_hash);
  h.u8(static_cast<std::uint8_t>(request.kind));
  hash_design(h, request.design);
  h.f64(request.patch_interval_hours);
  if (request.kind == RequestKind::kTransient) {
    h.u64(request.wave.size());
    for (const auto& [role, down] : request.wave) {
      h.u8(static_cast<std::uint8_t>(role));
      h.u32(down);
    }
  }
  return h.digest();
}

}  // namespace patchsec::service
