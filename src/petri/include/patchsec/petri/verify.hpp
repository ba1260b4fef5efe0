#pragma once
/// \file verify.hpp
/// \brief Static model verification of SRNs — certificates and lint findings
/// computed from the incidence matrix and the transition structure alone,
/// WITHOUT exploring the state space.  This is the cheap pre-flight pass the
/// engine runs on every net it solves (core::EngineOptions::verify); the
/// reachability-based `analyze_structure` of tests/structural_oracle.hpp is
/// the *dynamic oracle* these certificates are tested against
/// (docs/TESTING.md).
///
/// The pass is split in two.  certify_structure() computes everything that
/// depends only on the net's structure (arcs, kinds, priorities, guard
/// presence, initial marking, names): the certificates below and the
/// STRUCT/ERGO/BOUND/CERT findings.  verify_values() adds the probe findings
/// (V-GUARD/V-RATE/V-REWARD).  No finding reads a rate's value, so nets that
/// differ only in rates have equal reports and core::Session verifies each
/// net once whatever the cadence; nets of one structure_key() share one
/// certificate.  verify_model() is the two halves composed.
///
/// The structural pass reads the incidence as column-compressed entries, and
/// the Farkas eliminations (nearly all of its cost) keep their rows in flat
/// arrays with bitset supports; StructureCertificate::farkas_combinations
/// counts their work.
///
/// Certificates (verified against the net definition, not trusted):
///  * P-semiflows — minimal-support non-negative integer vectors y with
///    yT C = 0 (C the place x transition incidence matrix).  Every reachable
///    marking M then satisfies yT M = yT M0, which yields per-place
///    structural bounds  M[p] <= floor(yT M0 / y[p])  and, when every place
///    is covered, a structural-boundedness certificate.  The all-ones vector
///    being a P-invariant is the token-conservation certificate
///    (`analyze_structure`'s `conservative` must agree).
///  * T-semiflows — minimal-support non-negative integer x with C x = 0: the
///    firing-count vectors of marking-preserving cycles.  In a bounded net a
///    transition that fires infinitely often must appear in the support of
///    some T-semiflow, so uncovered timed transitions cannot recur — an
///    ergodicity red flag.
///
/// Lint rules (rule catalog in docs/ARCHITECTURE.md §11).  Severities:
/// kError findings are certain model bugs (strict mode refuses to solve),
/// kWarning findings are strong smells that can in principle be intended,
/// kInfo findings report verifier limitations (truncated certificates).
///
///   V-RATE-001  error    per-token rate c * #p is 0 at an enabled probe
///                        marking (p empty); the only invalid rate, since
///                        SrnModel refuses any other at construction
///   V-GUARD-001 error    guard throws on a probe marking (e.g. references a
///                        nonexistent place via Marking::at)
///   V-STRUCT-001 error   structurally dead transition: an input arc demands
///                        more tokens than the place can ever hold
///   V-STRUCT-002 error   input/inhibitor conflict: the same place must hold
///                        >= n and < m <= n tokens at once
///   V-STRUCT-003 error   unreachable-by-construction immediate: shadowed by
///                        a strictly-higher-priority unguarded immediate
///                        enabled whenever it is
///   V-ERGO-001  warning  timed transition not on a directed cycle of the
///                        token-flow graph (its inputs are never replenished
///                        through it — it cannot drive recurrent behaviour)
///   V-ERGO-002  warning  timed transition not covered by any T-semiflow
///   V-ERGO-003  error    absorbing token sink: a place that receives tokens
///                        but never gives any back (net-level absorbing trap)
///   V-ERGO-004  warning  source-only place: initial tokens drain away and
///                        can never return, leaving its consumers dead (the
///                        chain acquires transient structure)
///   V-BOUND-001 warning  place not covered by any P-semiflow (no structural
///                        boundedness certificate for it)
///   V-REWARD-001 warning reward function depends on a place that can never
///                        be marked
///   V-REWARD-002 error   reward function throws or returns a non-finite
///                        value on a probe marking
///   V-CERT-001  info     semiflow computation incomplete (row cap hit or
///                        a coefficient overflowed 64 bits);
///                        coverage-based rules were skipped
///
/// The guard and reward probes evaluate opaque std::functions on synthetic
/// markings of the correct arity; out-of-range *unchecked* reads
/// (operator[] past the marking) are undefined behaviour and cannot be
/// caught — write guards with Marking::at or model-captured PlaceIds.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "patchsec/petri/srn_model.hpp"

namespace patchsec::petri {

enum class VerifySeverity : std::uint8_t { kInfo = 0, kWarning = 1, kError = 2 };

[[nodiscard]] const char* to_string(VerifySeverity severity) noexcept;

/// One lint finding: a rule id, its severity, the offending place/transition
/// (by name; empty for net-level findings) and a human-readable message.
struct VerifyFinding {
  std::string rule;
  VerifySeverity severity = VerifySeverity::kWarning;
  std::string subject;  ///< place or transition name; "" for net-level.
  std::string message;
};

/// The invariant certificates of one net.  Every semiflow returned satisfies
/// its defining linear identity exactly (integer arithmetic); the test layer
/// re-checks them against the definition and against the reachability-based
/// dynamic oracle.
struct VerifyCertificates {
  /// Minimal-support P-semiflows, each of length place_count().
  std::vector<std::vector<long long>> p_semiflows;
  /// Minimal-support T-semiflows, each of length transition_count().
  std::vector<std::vector<long long>> t_semiflows;
  /// Per-place structural bound min_y floor(yT M0 / y[p]) over covering
  /// semiflows; -1 when no semiflow covers the place (no certificate).  A
  /// semiflow whose yT M0 overflows 64 bits contributes no bound.
  std::vector<long long> place_bound;
  /// Every place covered by a P-semiflow: the state space is provably finite.
  bool structurally_bounded = false;
  /// The all-ones vector is a P-invariant: every transition preserves the
  /// total token count (must agree with the reachability oracle's
  /// `conservative`, tests/structural_oracle.hpp).
  bool token_conserving = false;
  /// The semiflow enumerations completed without hitting the row cap or a
  /// 64-bit overflow; when false the corresponding coverage rules
  /// (V-BOUND-001 / V-ERGO-002) are skipped and a V-CERT-001 info finding is
  /// emitted.
  bool p_semiflows_complete = true;
  bool t_semiflows_complete = true;
};

struct VerifyOptions {
  /// Cap on intermediate rows of the Farkas semiflow enumeration (the
  /// minimal-support pruning keeps realistic nets tiny; the cap guards
  /// against adversarial arc structures with exponential semiflow counts).
  std::size_t max_intermediate_rows = 4096;
  /// Probe guards, per-token rates and rewards on probe markings (initial
  /// marking plus single-place perturbations within structural bounds).
  /// Disable for models whose closures are not total functions of marking.
  bool probe_functions = true;
};

struct VerifyReport {
  VerifyCertificates certificates;
  std::vector<VerifyFinding> findings;

  [[nodiscard]] bool clean() const noexcept { return findings.empty(); }
  [[nodiscard]] std::size_t count(VerifySeverity severity) const noexcept;
  [[nodiscard]] std::size_t errors() const noexcept { return count(VerifySeverity::kError); }
  [[nodiscard]] std::size_t warnings() const noexcept { return count(VerifySeverity::kWarning); }
  [[nodiscard]] bool has_errors() const noexcept { return errors() > 0; }
};

/// The |P| x |T| incidence matrix  C[p][t] = out(t, p) - in(t, p).
/// Inhibitor arcs do not move tokens and do not appear.
[[nodiscard]] std::vector<std::vector<long long>> incidence_matrix(const SrnModel& model);

/// Minimal-support non-negative integer left-null-space basis of `matrix`
/// (vectors y with yT A = 0), by the Farkas / Martinez-Silva elimination.
/// Pass the incidence matrix for P-semiflows and its transpose for
/// T-semiflows.  `complete` (optional) is set to false when the intermediate
/// row cap was hit or a coefficient overflowed 64-bit arithmetic, in which
/// case an EMPTY set is returned — a truncated basis could silently miss
/// invariants and must not be used for coverage claims.
[[nodiscard]] std::vector<std::vector<long long>> semiflows(
    const std::vector<std::vector<long long>>& matrix, std::size_t max_intermediate_rows = 4096,
    bool* complete = nullptr);

/// One nonzero incidence entry C[place][t] = out(t, place) - in(t, place).
struct IncidenceEntry {
  PlaceId place = 0;
  long long delta = 0;
};

/// The rate-independent half of static verification: everything determined
/// by structure_key()'s fields.  Immutable once built, so one certificate may
/// serve concurrent verify_values() calls.
struct StructureCertificate {
  /// Column-compressed incidence: transition t's nonzero entries are
  /// incidence[incidence_begin[t] .. incidence_begin[t + 1]), in ascending
  /// place order.  Inhibitor arcs move no tokens and do not appear.
  std::vector<std::size_t> incidence_begin;
  std::vector<IncidenceEntry> incidence;
  VerifyCertificates certificates;
  /// Per-place token ceiling: the initial tokens of a place no transition
  /// net-produces into, else the P-semiflow bound when the basis is complete;
  /// -1 when nothing bounds it.  The probe markings stay inside it.
  std::vector<long long> attainable;
  /// Places that can never be marked (no initial tokens, no net producer),
  /// ascending — the V-REWARD-001 toggles.
  std::vector<PlaceId> unmarkable;
  Marking initial;
  /// V-CERT/V-STRUCT/V-ERGO/V-BOUND findings, in verify_model's order.
  std::vector<VerifyFinding> findings;
  /// Positive x negative row pairs combined by the two Farkas eliminations.
  std::size_t farkas_combinations = 0;
};

/// Canonical byte serialization of every input certify_structure() reads:
/// per place its name and initial tokens; per transition its name, kind,
/// priority (immediates), guard presence and input/output/inhibitor arc
/// lists in order; and options.max_intermediate_rows.  Fixed-width
/// little-endian fields, length-prefixed strings and lists, one tag byte per
/// section (service::request_hash's style).  Two models with equal keys have
/// equal certificates; rates, weights, guard/reward closures and
/// options.probe_functions are not part of it.
[[nodiscard]] std::string structure_key(const SrnModel& model, const VerifyOptions& options = {});

/// The structural pass: incidence, P/T-semiflows, place bounds, attainable
/// ceilings and the V-CERT/V-STRUCT/V-ERGO/V-BOUND findings.
[[nodiscard]] StructureCertificate certify_structure(const SrnModel& model,
                                                     const VerifyOptions& options = {});

/// The value pass: the certificate's certificates and findings followed by
/// the V-GUARD/V-RATE/V-REWARD probe findings of `model` (none when
/// options.probe_functions is off).  `model` must have the structure the
/// certificate was built from; throws std::invalid_argument when its place
/// or transition count differs.
[[nodiscard]] VerifyReport verify_values(
    const StructureCertificate& certificate, const SrnModel& model,
    const std::vector<std::pair<std::string, RewardFunction>>& rewards,
    const VerifyOptions& options = {});

/// Run the full static verification pass: certificates + every lint rule
/// (verify_values over certify_structure).
[[nodiscard]] VerifyReport verify_model(const SrnModel& model, const VerifyOptions& options = {});

/// As above, additionally linting reward functions (V-REWARD-*) — pass the
/// rewards the analysis will evaluate, with display names for findings.
[[nodiscard]] VerifyReport verify_model(
    const SrnModel& model, const std::vector<std::pair<std::string, RewardFunction>>& rewards,
    const VerifyOptions& options = {});

/// Strict-mode enforcement: throws std::runtime_error naming `stage` and
/// every error-severity finding when the report has errors; no-op otherwise.
void throw_on_verify_errors(const VerifyReport& report, const std::string& stage);

/// Multi-line human-readable rendering (the srn_lint CLI output): certificate
/// summary plus one line per finding.
[[nodiscard]] std::string format(const VerifyReport& report);

}  // namespace patchsec::petri
