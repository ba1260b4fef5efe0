#pragma once
/// \file request_hash.hpp
/// \brief Content hashing for the evaluation service: a canonical byte
/// serialization of Scenario / EngineOptions / request parameters folded
/// into a 64-bit key.
///
/// The result cache and the in-flight coalescing map both key on
/// request_key(), so the hash must satisfy two contracts:
///
///  * **Canonical** — two value-equal inputs always produce the same byte
///    stream.  Every field is emitted in a fixed order with a fixed-width
///    little-endian encoding, strings and containers are length-prefixed
///    (so adjacent fields can never re-align into each other), doubles are
///    normalized (-0.0 hashes as +0.0, matching Session's exact-bits cadence
///    key contract; NaN is rejected — a NaN never compares equal to itself,
///    so no cache key can represent it), and each section is prefixed with a
///    one-byte tag so a scenario with e.g. an empty design list can never
///    collide with one whose schedule grew by the same byte count.
///  * **Result-complete** — every input that can change the bits of an
///    EvalReport's payload is hashed.  The exclusions are scheduling-only
///    knobs, each proven result-invariant elsewhere in the tree:
///    EngineOptions::parallel / EngineOptions::threads (batch fan-out;
///    parallel == serial is asserted in test_session), plus
///    EngineOptions::uniformization whenever the engine does not read it:
///    only the flat transient engine does, so it is hashed only without
///    `lumping` (asserted in test_service).
///
/// The policy hooks of a ReachabilityPolicy are opaque std::functions, so
/// they cannot be serialized — but their whole domain is the 4x4 role grid,
/// so the hash PROBES them: attacker_reaches over every role and reaches
/// over every role pair, folding the resulting truth table (plus the target
/// role) into the stream.  This is exact, not an approximation, for any
/// policy whose hooks are pure functions of their role arguments — already a
/// documented requirement of parallel evaluation (EngineOptions::parallel).

#include <cstddef>
#include <cstdint>
#include <map>
#include <string_view>

#include "patchsec/core/scenario.hpp"
#include "patchsec/enterprise/design.hpp"

namespace patchsec::service {

/// \brief Incremental canonical byte stream with a running 64-bit hash
/// (FNV-1a over the bytes, finalized through a splitmix64 avalanche so
/// closely related streams land in unrelated cache shards).
class HashStream {
 public:
  void u8(std::uint8_t v) noexcept;
  void u32(std::uint32_t v) noexcept;
  void u64(std::uint64_t v) noexcept;
  /// Canonicalized double: -0.0 is emitted as +0.0; throws
  /// std::invalid_argument on NaN (no canonical bit pattern exists).
  void f64(double v);
  /// Length-prefixed string bytes.
  void str(std::string_view s) noexcept;
  /// One-byte section tag (see the header comment).
  void tag(char c) noexcept { u8(static_cast<std::uint8_t>(c)); }

  /// The finalized 64-bit digest of everything appended so far (the stream
  /// remains usable; digest() is a pure function of the bytes seen).
  [[nodiscard]] std::uint64_t digest() const noexcept;

 private:
  std::uint64_t state_ = 14695981039346656037ull;  ///< FNV-1a offset basis.
  std::uint64_t length_ = 0;                       ///< bytes consumed.
};

/// What a service request asks the Session for.
enum class RequestKind : std::uint8_t {
  kSteady,     ///< Session::evaluate — steady-state COA.
  kTransient,  ///< Session::evaluate_transient_batch — coa(t) from a wave.
};

/// \brief One evaluation request against the service's bound Scenario.
struct EvalRequest {
  enterprise::RedundancyDesign design;
  /// Patch cadence; 0 means "the scenario's first cadence" and is resolved
  /// (and validated through Session::canonical_interval) before hashing, so
  /// an explicit 720.0 and a defaulted request share one cache entry.
  double patch_interval_hours = 0.0;
  RequestKind kind = RequestKind::kSteady;
  /// kTransient only: the patch-wave entry state (per role, servers starting
  /// the window down).  An empty map means "all up" — NOT the engine's
  /// initial_down, so the key never depends on hidden state.  Ignored (and
  /// excluded from the hash) for kSteady.
  std::map<enterprise::ServerRole, unsigned> wave;
};

/// Canonical hash of the engine configuration (every result-affecting field;
/// the exclusions and their invariance proofs are listed in the header
/// comment).
[[nodiscard]] std::uint64_t hash_engine_options(const core::EngineOptions& engine);

/// Canonical hash of everything a Session copies out of a Scenario: specs
/// (names, vulnerability populations, attack-tree structure, failure/repair
/// times), the probed policy truth table, the patch schedule, the candidate
/// design space, and the engine options.
[[nodiscard]] std::uint64_t hash_scenario(const core::Scenario& scenario);

/// The cache / coalescing key of one request: the scenario hash mixed with
/// the request's canonical bytes.  `patch_interval_hours` must already be
/// resolved (> 0); the service resolves defaults before keying.
[[nodiscard]] std::uint64_t request_key(std::uint64_t scenario_hash, const EvalRequest& request);

}  // namespace patchsec::service
