#pragma once
// The dense static verifier, kept verbatim as the test oracle for
// petri::verify's sparse structural pass: a |P| x |T| incidence matrix,
// Farkas rows as pairs of dense vectors, the O(T^2 * arcs) V-STRUCT-003 scan
// and the O(T * P * T * arcs) V-ERGO-001 successor build.  Certificates and
// findings of petri::verify_model must equal this oracle's exactly (vectors,
// order, subjects and messages) — pinned in test_verify.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "patchsec/petri/verify.hpp"

namespace verify_oracle {

using patchsec::petri::Arc;
using patchsec::petri::Guard;
using patchsec::petri::Marking;
using patchsec::petri::PlaceId;
using patchsec::petri::RewardFunction;
using patchsec::petri::SrnModel;
using patchsec::petri::TokenCount;
using patchsec::petri::TransitionId;
using patchsec::petri::TransitionKind;
using patchsec::petri::VerifyCertificates;
using patchsec::petri::VerifyFinding;
using patchsec::petri::VerifyOptions;
using patchsec::petri::VerifyReport;
using patchsec::petri::VerifySeverity;

using Row = std::vector<long long>;

inline long long vector_gcd(const Row& a, const Row& b) {
  long long g = 0;
  for (long long v : a) g = std::gcd(g, std::llabs(v));
  for (long long v : b) g = std::gcd(g, std::llabs(v));
  return g;
}

/// One working row of the Farkas elimination: `a` is the running combination
/// of matrix rows (driven to zero column by column) and `y` the combination
/// coefficients — the candidate semiflow.
struct FarkasRow {
  Row a;
  Row y;
};

/// *out = x * p + y * q; false when a product or the sum overflows, or the
/// result is LLONG_MIN (whose negation and llabs are undefined).
[[nodiscard]] inline bool checked_combination(long long x, long long p, long long y, long long q,
                                       long long* out) {
  long long xp = 0;
  long long yq = 0;
  return !__builtin_mul_overflow(x, p, &xp) && !__builtin_mul_overflow(y, q, &yq) &&
         !__builtin_add_overflow(xp, yq, out) && *out != std::numeric_limits<long long>::min();
}

inline void normalize(FarkasRow& row) {
  const long long g = vector_gcd(row.a, row.y);
  if (g > 1) {
    for (long long& v : row.a) v /= g;
    for (long long& v : row.y) v /= g;
  }
}

[[nodiscard]] inline bool support_contains(const Row& outer, const Row& inner) {
  for (std::size_t i = 0; i < inner.size(); ++i) {
    if (inner[i] != 0 && outer[i] == 0) return false;
  }
  return true;
}

/// Drop duplicate rows and rows whose y-support strictly contains another
/// row's y-support (the Martinez-Silva minimality pruning; applied after
/// every elimination step to keep the row set polynomial on practical nets).
inline void prune_rows(std::vector<FarkasRow>& rows) {
  std::vector<bool> drop(rows.size(), false);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (drop[i]) continue;
    for (std::size_t j = 0; j < rows.size(); ++j) {
      if (i == j || drop[j]) continue;
      if (!support_contains(rows[i].y, rows[j].y)) continue;
      // support(y_i) >= support(y_j): drop i when strictly larger, or when
      // equal and i is the later duplicate.
      if (!support_contains(rows[j].y, rows[i].y)) {
        drop[i] = true;
        break;
      }
      if (j < i && rows[i].y == rows[j].y && rows[i].a == rows[j].a) {
        drop[i] = true;
        break;
      }
    }
  }
  std::vector<FarkasRow> kept;
  kept.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!drop[i]) kept.push_back(std::move(rows[i]));
  }
  rows = std::move(kept);
}

constexpr long long kUnbounded = -1;

struct StaticStructure {
  std::vector<std::vector<long long>> incidence;  // |P| x |T|
  std::vector<bool> has_net_producer;             // some transition adds tokens
  std::vector<bool> has_net_consumer;             // some transition removes tokens
  Marking initial;
};

inline StaticStructure build_structure(const SrnModel& model) {
  StaticStructure s;
  const std::size_t n_p = model.place_count();
  const std::size_t n_t = model.transition_count();
  s.incidence.assign(n_p, std::vector<long long>(n_t, 0));
  s.has_net_producer.assign(n_p, false);
  s.has_net_consumer.assign(n_p, false);
  s.initial = model.initial_marking();
  for (TransitionId t = 0; t < n_t; ++t) {
    for (const Arc& a : model.input_arcs(t)) {
      s.incidence[a.place][t] -= static_cast<long long>(a.multiplicity);
    }
    for (const Arc& a : model.output_arcs(t)) {
      s.incidence[a.place][t] += static_cast<long long>(a.multiplicity);
    }
  }
  for (PlaceId p = 0; p < n_p; ++p) {
    for (TransitionId t = 0; t < n_t; ++t) {
      if (s.incidence[p][t] > 0) s.has_net_producer[p] = true;
      if (s.incidence[p][t] < 0) s.has_net_consumer[p] = true;
    }
  }
  return s;
}

inline void add_finding(VerifyReport& report, const char* rule, VerifySeverity severity,
                 std::string subject, std::string message) {
  report.findings.push_back(
      VerifyFinding{rule, severity, std::move(subject), std::move(message)});
}

/// Max input-arc multiplicity of t on p (0 when p is not an input).
inline TokenCount input_demand(const SrnModel& model, TransitionId t, PlaceId p) {
  TokenCount demand = 0;
  for (const Arc& a : model.input_arcs(t)) {
    if (a.place == p) demand = std::max(demand, a.multiplicity);
  }
  return demand;
}

/// Tarjan-free on-cycle detection for the token-flow graph: a transition is
/// on a directed cycle iff it can reach itself.  Nets here have at most a
/// few dozen transitions, so one BFS per transition is cheaper than it looks
/// and has no recursion-depth hazard.
inline std::vector<bool> on_cycle(const std::vector<std::vector<std::size_t>>& successors) {
  const std::size_t n = successors.size();
  std::vector<bool> result(n, false);
  std::vector<bool> seen(n);
  std::vector<std::size_t> queue;
  for (std::size_t start = 0; start < n; ++start) {
    std::fill(seen.begin(), seen.end(), false);
    queue.clear();
    for (std::size_t succ : successors[start]) {
      if (!seen[succ]) {
        seen[succ] = true;
        queue.push_back(succ);
      }
    }
    for (std::size_t head = 0; head < queue.size() && !result[start]; ++head) {
      const std::size_t v = queue[head];
      if (v == start) break;  // found a path back: on a cycle
      for (std::size_t succ : successors[v]) {
        if (!seen[succ]) {
          seen[succ] = true;
          queue.push_back(succ);
        }
      }
    }
    result[start] = seen[start];
  }
  return result;
}

inline std::vector<std::vector<long long>> semiflows(
    const std::vector<std::vector<long long>>& matrix, std::size_t max_intermediate_rows,
    bool* complete) {
  if (complete != nullptr) *complete = true;
  const std::size_t n = matrix.size();
  if (n == 0) return {};
  const std::size_t m = matrix.front().size();

  std::vector<FarkasRow> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (matrix[i].size() != m) {
      throw std::invalid_argument("semiflows: ragged matrix");
    }
    FarkasRow row;
    row.a = matrix[i];
    row.y.assign(n, 0);
    row.y[i] = 1;
    rows.push_back(std::move(row));
  }

  for (std::size_t j = 0; j < m; ++j) {
    std::vector<FarkasRow> next;
    std::vector<const FarkasRow*> pos, neg;
    for (const FarkasRow& row : rows) {
      if (row.a[j] == 0) {
        next.push_back(row);
      } else if (row.a[j] > 0) {
        pos.push_back(&row);
      } else {
        neg.push_back(&row);
      }
    }
    for (const FarkasRow* p : pos) {
      for (const FarkasRow* q : neg) {
        if (next.size() > max_intermediate_rows) {
          if (complete != nullptr) *complete = false;
          return {};  // a truncated basis could miss invariants: return none
        }
        const long long cp = -q->a[j];  // positive
        const long long cq = p->a[j];   // positive
        FarkasRow combined;
        combined.a.resize(m);
        combined.y.resize(n);
        bool exact = true;
        for (std::size_t k = 0; k < m; ++k) {
          exact &= checked_combination(cp, p->a[k], cq, q->a[k], &combined.a[k]);
        }
        for (std::size_t k = 0; k < n; ++k) {
          exact &= checked_combination(cp, p->y[k], cq, q->y[k], &combined.y[k]);
        }
        if (!exact) {
          if (complete != nullptr) *complete = false;
          return {};  // a semiflow beyond long long: the basis is incomplete
        }
        normalize(combined);
        next.push_back(std::move(combined));
      }
    }
    prune_rows(next);
    if (next.size() > max_intermediate_rows) {
      if (complete != nullptr) *complete = false;
      return {};
    }
    rows = std::move(next);
  }

  std::vector<std::vector<long long>> result;
  result.reserve(rows.size());
  for (FarkasRow& row : rows) {
    bool nonzero = false;
    for (long long v : row.y) nonzero = nonzero || v != 0;
    if (nonzero) result.push_back(std::move(row.y));
  }
  return result;
}

inline VerifyReport verify_model(const SrnModel& model,
                          const std::vector<std::pair<std::string, RewardFunction>>& rewards,
                          const VerifyOptions& options) {
  VerifyReport report;
  const std::size_t n_p = model.place_count();
  const std::size_t n_t = model.transition_count();
  const StaticStructure s = build_structure(model);
  VerifyCertificates& certs = report.certificates;

  // ---- invariant certificates ---------------------------------------------
  certs.p_semiflows =
      verify_oracle::semiflows(s.incidence, options.max_intermediate_rows,
                               &certs.p_semiflows_complete);
  std::vector<std::vector<long long>> transposed(n_t, std::vector<long long>(n_p, 0));
  for (PlaceId p = 0; p < n_p; ++p) {
    for (TransitionId t = 0; t < n_t; ++t) transposed[t][p] = s.incidence[p][t];
  }
  certs.t_semiflows =
      verify_oracle::semiflows(transposed, options.max_intermediate_rows,
                               &certs.t_semiflows_complete);

  certs.place_bound.assign(n_p, kUnbounded);
  for (const std::vector<long long>& y : certs.p_semiflows) {
    long long weighted_initial = 0;
    bool exact = true;
    for (PlaceId p = 0; p < n_p && exact; ++p) {
      exact = checked_combination(1, weighted_initial, y[p], static_cast<long long>(s.initial[p]),
                                  &weighted_initial);
    }
    if (!exact) continue;  // y^T M0 beyond long long: this semiflow yields no bound
    for (PlaceId p = 0; p < n_p; ++p) {
      if (y[p] <= 0) continue;
      const long long bound = weighted_initial / y[p];
      if (certs.place_bound[p] == kUnbounded || bound < certs.place_bound[p]) {
        certs.place_bound[p] = bound;
      }
    }
  }
  certs.structurally_bounded =
      certs.p_semiflows_complete && n_p > 0 &&
      std::all_of(certs.place_bound.begin(), certs.place_bound.end(),
                  [](long long b) { return b != kUnbounded; });

  certs.token_conserving = n_t > 0 || n_p == 0;
  for (TransitionId t = 0; t < n_t; ++t) {
    long long column_sum = 0;
    for (PlaceId p = 0; p < n_p; ++p) column_sum += s.incidence[p][t];
    if (column_sum != 0) certs.token_conserving = false;
  }

  if (!certs.p_semiflows_complete || !certs.t_semiflows_complete) {
    add_finding(report, "V-CERT-001", VerifySeverity::kInfo, "",
                "semiflow enumeration incomplete (more than " +
                    std::to_string(options.max_intermediate_rows) +
                    " intermediate rows, or a coefficient beyond 64 bits); boundedness and "
                    "T-coverage rules skipped");
  }

  // Attainable per-place token ceiling: a place no transition net-produces
  // into can never exceed its initial tokens; otherwise the P-invariant
  // bound applies when one exists (kUnbounded = no certificate = assume
  // anything reachable).
  std::vector<long long> attainable(n_p, kUnbounded);
  for (PlaceId p = 0; p < n_p; ++p) {
    if (!s.has_net_producer[p]) {
      attainable[p] = static_cast<long long>(s.initial[p]);
    } else if (certs.p_semiflows_complete) {
      attainable[p] = certs.place_bound[p];
    }
  }

  // ---- structural lint rules ----------------------------------------------
  // V-STRUCT-002: input and inhibitor arcs on the same place that can never
  // be satisfied together (needs >= in and < inh <= in tokens at once).
  for (TransitionId t = 0; t < n_t; ++t) {
    for (const Arc& inh : model.inhibitor_arcs(t)) {
      const TokenCount demand = input_demand(model, t, inh.place);
      if (demand > 0 && inh.multiplicity <= demand) {
        add_finding(report, "V-STRUCT-002", VerifySeverity::kError, model.transition_name(t),
                    "input arc needs >= " + std::to_string(demand) + " tokens in " +
                        model.place_name(inh.place) + " while the inhibitor arc needs < " +
                        std::to_string(inh.multiplicity) + ": never enabled");
        break;
      }
    }
  }

  // V-STRUCT-001: an input arc demanding more tokens than the place can ever
  // hold (supply ceiling from no-producer analysis or P-invariant bounds).
  for (TransitionId t = 0; t < n_t; ++t) {
    for (const Arc& a : model.input_arcs(t)) {
      const long long ceiling = attainable[a.place];
      if (ceiling != kUnbounded && ceiling < static_cast<long long>(a.multiplicity)) {
        add_finding(report, "V-STRUCT-001", VerifySeverity::kError, model.transition_name(t),
                    "structurally dead: needs " + std::to_string(a.multiplicity) + " tokens in " +
                        model.place_name(a.place) + " which can never hold more than " +
                        std::to_string(ceiling));
        break;
      }
    }
  }

  // V-STRUCT-003: immediate shadowed by a strictly-higher-priority unguarded
  // immediate that is enabled whenever it is (subset inputs, no inhibitors):
  // the shadowed immediate is never in the maximal-priority enabled set.
  for (TransitionId t = 0; t < n_t; ++t) {
    if (model.transition_kind(t) != TransitionKind::kImmediate) continue;
    for (TransitionId other = 0; other < n_t; ++other) {
      if (other == t || model.transition_kind(other) != TransitionKind::kImmediate) continue;
      if (model.priority(other) <= model.priority(t)) continue;
      if (model.has_guard(other) || !model.inhibitor_arcs(other).empty()) continue;
      bool dominated = true;
      for (const Arc& a : model.input_arcs(other)) {
        if (input_demand(model, t, a.place) < a.multiplicity) {
          dominated = false;
          break;
        }
      }
      if (dominated) {
        add_finding(report, "V-STRUCT-003", VerifySeverity::kError, model.transition_name(t),
                    "unreachable by construction: " + model.transition_name(other) +
                        " (priority " + std::to_string(model.priority(other)) +
                        ") is unguarded, enabled whenever it is, and outranks priority " +
                        std::to_string(model.priority(t)));
        break;
      }
    }
  }

  // ---- ergodicity pre-checks ----------------------------------------------
  // V-ERGO-003 / V-ERGO-004: net-level absorbing traps.  A sink place
  // swallows tokens forever (in a conservative net it drains the rest); a
  // source-only place drains to permanent emptiness, killing its consumers.
  for (PlaceId p = 0; p < n_p; ++p) {
    if (s.has_net_producer[p] && !s.has_net_consumer[p]) {
      add_finding(report, "V-ERGO-003", VerifySeverity::kError, model.place_name(p),
                  "absorbing token sink: transitions add tokens but none ever removes them");
    } else if (!s.has_net_producer[p] && s.has_net_consumer[p] && s.initial[p] > 0) {
      add_finding(report, "V-ERGO-004", VerifySeverity::kWarning, model.place_name(p),
                  "source-only place: its " + std::to_string(s.initial[p]) +
                      " initial token(s) drain away and can never return, leaving every "
                      "consumer permanently dead");
    }
  }

  // V-ERGO-001: token-flow cycle membership.  Edge t' -> t when t' net-adds
  // tokens to an input place of t.  A timed transition off every cycle can
  // fire at most finitely often (its inputs are never replenished through
  // it); transitions with no input arcs need no replenishment and are
  // exempt.
  {
    std::vector<std::vector<std::size_t>> successors(n_t);
    for (TransitionId from = 0; from < n_t; ++from) {
      for (PlaceId p = 0; p < n_p; ++p) {
        if (s.incidence[p][from] <= 0) continue;
        for (TransitionId to = 0; to < n_t; ++to) {
          if (input_demand(model, to, p) > 0) successors[from].push_back(to);
        }
      }
      std::sort(successors[from].begin(), successors[from].end());
      successors[from].erase(std::unique(successors[from].begin(), successors[from].end()),
                             successors[from].end());
    }
    const std::vector<bool> cyclic = on_cycle(successors);
    for (TransitionId t = 0; t < n_t; ++t) {
      if (model.transition_kind(t) != TransitionKind::kTimed) continue;
      if (model.input_arcs(t).empty()) continue;
      if (!cyclic[t]) {
        add_finding(report, "V-ERGO-001", VerifySeverity::kWarning, model.transition_name(t),
                    "not on any directed cycle of the token-flow graph: it cannot fire "
                    "recurrently");
      }
    }
  }

  // V-ERGO-002: timed transitions outside every T-semiflow cannot appear in
  // any marking-preserving firing cycle — in a bounded net they fire at most
  // finitely often.
  if (certs.t_semiflows_complete) {
    for (TransitionId t = 0; t < n_t; ++t) {
      if (model.transition_kind(t) != TransitionKind::kTimed) continue;
      bool covered = false;
      for (const std::vector<long long>& x : certs.t_semiflows) {
        if (x[t] > 0) {
          covered = true;
          break;
        }
      }
      if (!covered) {
        add_finding(report, "V-ERGO-002", VerifySeverity::kWarning, model.transition_name(t),
                    "not covered by any T-semiflow: no marking-preserving firing cycle "
                    "contains it");
      }
    }
  }

  // V-BOUND-001: places without a boundedness certificate.
  if (certs.p_semiflows_complete) {
    for (PlaceId p = 0; p < n_p; ++p) {
      if (certs.place_bound[p] == kUnbounded) {
        add_finding(report, "V-BOUND-001", VerifySeverity::kWarning, model.place_name(p),
                    "not covered by any P-semiflow: no structural boundedness certificate");
      }
    }
  }

  // ---- probe-based function lint ------------------------------------------
  if (options.probe_functions) {
    // Probe set: the initial marking plus every single-place perturbation
    // that stays inside the attainable ceiling.  Guards/rates/rewards must
    // be total functions over markings of the correct arity.
    std::vector<Marking> probes;
    probes.push_back(s.initial);
    for (PlaceId p = 0; p < n_p; ++p) {
      const long long ceiling = attainable[p];
      if (ceiling == kUnbounded || static_cast<long long>(s.initial[p]) + 1 <= ceiling) {
        Marking up = s.initial;
        ++up[p];
        probes.push_back(std::move(up));
      }
      if (s.initial[p] > 0) {
        Marking down = s.initial;
        --down[p];
        probes.push_back(std::move(down));
      }
    }

    // V-GUARD-001: guards that throw (e.g. Marking::at on a nonexistent
    // place, or a stale name lookup).
    std::vector<bool> guard_broken(n_t, false);
    for (TransitionId t = 0; t < n_t; ++t) {
      if (!model.has_guard(t)) continue;
      const Guard& guard = model.guard(t);
      for (const Marking& probe : probes) {
        try {
          (void)guard(probe);
        } catch (const std::exception& e) {
          guard_broken[t] = true;
          add_finding(report, "V-GUARD-001", VerifySeverity::kError, model.transition_name(t),
                      std::string("guard threw on a probe marking: ") + e.what());
          break;
        } catch (...) {
          guard_broken[t] = true;
          add_finding(report, "V-GUARD-001", VerifySeverity::kError, model.transition_name(t),
                      "guard threw a non-std exception on a probe marking");
          break;
        }
      }
    }

    // V-RATE-001: a per-token rate whose place is empty at a probe marking
    // where the transition is enabled.  Rates are data checked at
    // construction, so this is the only way a rate can be invalid.
    for (TransitionId t = 0; t < n_t; ++t) {
      if (model.transition_kind(t) != TransitionKind::kTimed) continue;
      const std::optional<PlaceId> place = model.timed_rate(t).place;
      if (!place || guard_broken[t]) continue;
      for (const Marking& probe : probes) {
        if (!model.is_enabled(t, probe) || probe[*place] != 0) continue;
        add_finding(report, "V-RATE-001", VerifySeverity::kError, model.transition_name(t),
                    "rate per token of " + model.place_name(*place) +
                        " is 0 at an enabled probe marking " + patchsec::petri::to_string(probe));
        break;
      }
    }

    // V-REWARD-002: rewards must evaluate to a finite value on every probe.
    for (const auto& [name, reward] : rewards) {
      if (!reward) continue;
      for (const Marking& probe : probes) {
        bool flagged = false;
        try {
          const double v = reward(probe);
          if (!std::isfinite(v)) {
            add_finding(report, "V-REWARD-002", VerifySeverity::kError, name,
                        "reward evaluated to " + std::to_string(v) + " at probe marking " +
                            patchsec::petri::to_string(probe));
            flagged = true;
          }
        } catch (const std::exception& e) {
          add_finding(report, "V-REWARD-002", VerifySeverity::kError, name,
                      std::string("reward threw on a probe marking: ") + e.what());
          flagged = true;
        } catch (...) {
          add_finding(report, "V-REWARD-002", VerifySeverity::kError, name,
                      "reward threw a non-std exception on a probe marking");
          flagged = true;
        }
        if (flagged) break;
      }
    }

    // V-REWARD-001: a reward that changes value when a never-markable place
    // is toggled depends on state that cannot exist — usually a stale place
    // id after a model edit.
    for (PlaceId p = 0; p < n_p; ++p) {
      if (s.initial[p] != 0 || s.has_net_producer[p]) continue;
      Marking toggled = s.initial;
      toggled[p] = 1;
      for (const auto& [name, reward] : rewards) {
        if (!reward) continue;
        try {
          const double before = reward(s.initial);
          const double after = reward(toggled);
          if (std::isfinite(before) && std::isfinite(after) && before != after) {
            add_finding(report, "V-REWARD-001", VerifySeverity::kWarning, name,
                        "depends on place " + model.place_name(p) +
                            " which can never be marked (0 initial tokens, no producer)");
          }
        } catch (...) {
          // Already reported as V-REWARD-002.
        }
      }
    }
  }

  return report;
}


inline VerifyReport verify_model(const SrnModel& model, const VerifyOptions& options = {}) {
  return verify_oracle::verify_model(model, {}, options);
}

}  // namespace verify_oracle
