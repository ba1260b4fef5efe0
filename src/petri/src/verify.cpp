#include "patchsec/petri/verify.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace patchsec::petri {

namespace {

constexpr long long kUnbounded = -1;

/// *out = x * p + y * q; false when a product or the sum overflows, or the
/// result is LLONG_MIN (whose negation and llabs are undefined).
[[nodiscard]] bool checked_combination(long long x, long long p, long long y, long long q,
                                       long long* out) {
  long long xp = 0;
  long long yq = 0;
  return !__builtin_mul_overflow(x, p, &xp) && !__builtin_mul_overflow(y, q, &yq) &&
         !__builtin_add_overflow(xp, yq, out) && *out != std::numeric_limits<long long>::min();
}

/// The working rows of one Farkas elimination, stored flat.  Row r's values
/// are its running combination a (m entries, driven to zero column by
/// column) followed by its coefficients y (n entries, the candidate
/// semiflow); its support is the bitset of y's nonzero entries.  Every y is
/// non-negative, so a positive combination's support is exactly the union
/// of its parents' supports.
class FarkasRows {
 public:
  FarkasRows(std::size_t m, std::size_t n) : stride_(m + n), words_((n + 63) / 64) {}

  [[nodiscard]] std::size_t size() const noexcept { return support_.size() / words_; }
  [[nodiscard]] std::size_t words() const noexcept { return words_; }
  long long* row(std::size_t r) noexcept { return values_.data() + r * stride_; }
  [[nodiscard]] const long long* row(std::size_t r) const noexcept {
    return values_.data() + r * stride_;
  }
  std::uint64_t* support(std::size_t r) noexcept { return support_.data() + r * words_; }
  [[nodiscard]] const std::uint64_t* support(std::size_t r) const noexcept {
    return support_.data() + r * words_;
  }

  /// Drop every row, keeping the storage for the next elimination step.
  void clear() noexcept {
    values_.clear();
    support_.clear();
  }

  /// Append an all-zero row and return its index.
  std::size_t append_zero() {
    values_.resize(values_.size() + stride_, 0);
    support_.resize(support_.size() + words_, 0);
    return size() - 1;
  }

  void append_copy(const FarkasRows& from, std::size_t r) {
    values_.insert(values_.end(), from.row(r), from.row(r) + stride_);
    support_.insert(support_.end(), from.support(r), from.support(r) + words_);
  }

  /// support(inner) is a subset of support(outer).
  [[nodiscard]] bool support_contains(std::size_t outer, std::size_t inner) const noexcept {
    const std::uint64_t* o = support(outer);
    const std::uint64_t* i = support(inner);
    for (std::size_t w = 0; w < words_; ++w) {
      if ((i[w] & ~o[w]) != 0) return false;
    }
    return true;
  }

  [[nodiscard]] bool rows_equal(std::size_t r, std::size_t s) const noexcept {
    return std::equal(row(r), row(r) + stride_, row(s));
  }

  /// Keep only the rows with keep[r] != 0, in order.
  void compact(const std::vector<std::uint8_t>& keep) {
    std::size_t to = 0;
    for (std::size_t r = 0; r < keep.size(); ++r) {
      if (keep[r] == 0) continue;
      if (to != r) {
        std::copy_n(row(r), stride_, row(to));
        std::copy_n(support(r), words_, support(to));
      }
      ++to;
    }
    values_.resize(to * stride_);
    support_.resize(to * words_);
  }

 private:
  std::size_t stride_;
  std::size_t words_;
  std::vector<long long> values_;
  std::vector<std::uint64_t> support_;
};

/// Drop duplicate rows and rows whose y-support strictly contains another
/// row's y-support (the Martinez-Silva minimality pruning; applied after
/// every elimination step to keep the row set polynomial on practical nets).
void prune_rows(FarkasRows& rows, std::vector<std::uint8_t>& keep) {
  const std::size_t count = rows.size();
  keep.assign(count, 1);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t j = 0; j < count; ++j) {
      if (i == j || keep[j] == 0) continue;
      if (!rows.support_contains(i, j)) continue;
      // support(y_i) >= support(y_j): drop i when strictly larger, or when
      // equal and i is the later duplicate.
      if (!rows.support_contains(j, i) || (j < i && rows.rows_equal(i, j))) {
        keep[i] = 0;
        break;
      }
    }
  }
  rows.compact(keep);
}

/// Minimal-support non-negative left null space of the row-major n x m
/// `matrix` by Farkas / Martinez-Silva elimination (see semiflows()).
/// Columns are eliminated in order; each step keeps the rows already zero
/// in the column, then appends every positive x negative combination in
/// (positive, negative) row order, then prunes.  `combinations` counts the
/// pairs combined.
std::vector<std::vector<long long>> farkas(const std::vector<long long>& matrix, std::size_t n,
                                           std::size_t m, std::size_t max_intermediate_rows,
                                           bool* complete, std::size_t* combinations) {
  *complete = true;
  if (n == 0) return {};
  FarkasRows rows(m, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = rows.append_zero();
    std::copy_n(matrix.data() + i * m, m, rows.row(r));
    rows.row(r)[m + i] = 1;
    rows.support(r)[i / 64] = std::uint64_t{1} << (i % 64);
  }

  FarkasRows next(m, n);
  std::vector<std::size_t> pos;
  std::vector<std::size_t> neg;
  std::vector<std::uint8_t> keep;
  const auto fail = [complete] {
    *complete = false;  // a truncated or overflowed basis could miss invariants: return none
    return std::vector<std::vector<long long>>{};
  };
  for (std::size_t j = 0; j < m; ++j) {
    next.clear();
    pos.clear();
    neg.clear();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const long long v = rows.row(r)[j];
      if (v == 0) {
        next.append_copy(rows, r);
      } else if (v > 0) {
        pos.push_back(r);
      } else {
        neg.push_back(r);
      }
    }
    for (const std::size_t p : pos) {
      for (const std::size_t q : neg) {
        if (next.size() > max_intermediate_rows) return fail();
        ++*combinations;
        const long long* pr = rows.row(p);
        const long long* qr = rows.row(q);
        const long long cp = -qr[j];  // positive
        const long long cq = pr[j];   // positive
        const std::size_t c = next.append_zero();
        long long* cr = next.row(c);
        std::uint64_t* cs = next.support(c);
        bool exact = true;
        // Columns before j are zero in every row, so their combinations are
        // too; outside the supports' union so are the y entries.
        for (std::size_t k = j; k < m; ++k) {
          exact &= checked_combination(cp, pr[k], cq, qr[k], &cr[k]);
        }
        for (std::size_t w = 0; w < next.words(); ++w) {
          cs[w] = rows.support(p)[w] | rows.support(q)[w];
          for (std::uint64_t bits = cs[w]; bits != 0; bits &= bits - 1) {
            const std::size_t k = m + w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
            exact &= checked_combination(cp, pr[k], cq, qr[k], &cr[k]);
          }
        }
        if (!exact) return fail();  // a semiflow beyond long long
        long long g = 0;
        for (std::size_t k = j; k < m + n; ++k) g = std::gcd(g, std::llabs(cr[k]));
        if (g > 1) {
          for (std::size_t k = j; k < m + n; ++k) cr[k] /= g;
        }
      }
    }
    prune_rows(next, keep);
    if (next.size() > max_intermediate_rows) return fail();
    std::swap(rows, next);
  }

  std::vector<std::vector<long long>> result;
  result.reserve(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::uint64_t* support = rows.support(r);
    if (std::any_of(support, support + rows.words(), [](std::uint64_t w) { return w != 0; })) {
      result.emplace_back(rows.row(r) + m, rows.row(r) + m + n);
    }
  }
  return result;
}

void add_finding(std::vector<VerifyFinding>& findings, const char* rule, VerifySeverity severity,
                 std::string subject, std::string message) {
  findings.push_back(VerifyFinding{rule, severity, std::move(subject), std::move(message)});
}

/// Column-compressed incidence of `model` into `cert` (ascending place order
/// within each transition; zero net deltas omitted).
void build_incidence(const SrnModel& model, StructureCertificate& cert) {
  const std::size_t n_t = model.transition_count();
  std::vector<long long> delta(model.place_count(), 0);
  std::vector<PlaceId> touched;
  cert.incidence_begin.assign(1, 0);
  cert.incidence_begin.reserve(n_t + 1);
  for (TransitionId t = 0; t < n_t; ++t) {
    touched.clear();
    // Arcs are unique per (transition, place), so a place is touched by at
    // most one input and one output arc, and the first always moves it off 0.
    for (const Arc& a : model.input_arcs(t)) {
      if (delta[a.place] == 0) touched.push_back(a.place);
      delta[a.place] -= static_cast<long long>(a.multiplicity);
    }
    for (const Arc& a : model.output_arcs(t)) {
      if (delta[a.place] == 0) touched.push_back(a.place);
      delta[a.place] += static_cast<long long>(a.multiplicity);
    }
    std::sort(touched.begin(), touched.end());
    for (const PlaceId p : touched) {
      if (delta[p] != 0) cert.incidence.push_back({p, delta[p]});
      delta[p] = 0;
    }
    cert.incidence_begin.push_back(cert.incidence.size());
  }
}

/// Max input-arc multiplicity of t on p (0 when p is not an input).
TokenCount input_demand(const SrnModel& model, TransitionId t, PlaceId p) {
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
std::vector<bool> on_cycle(const std::vector<std::vector<std::size_t>>& successors) {
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

/// Calls visit(probe) on the initial marking, then on every single-place
/// perturbation inside the attainable ceiling (place by place: one token
/// up, then one down), until visit returns true.  `probe` is the one scratch
/// marking every probe is built in.
template <typename Visit>
void for_each_probe(const StructureCertificate& cert, Marking& probe, const Visit& visit) {
  probe = cert.initial;
  if (visit(probe)) return;
  for (PlaceId p = 0; p < probe.size(); ++p) {
    const long long ceiling = cert.attainable[p];
    if (ceiling == kUnbounded || static_cast<long long>(cert.initial[p]) + 1 <= ceiling) {
      ++probe[p];
      const bool stop = visit(probe);
      --probe[p];
      if (stop) return;
    }
    if (cert.initial[p] > 0) {
      --probe[p];
      const bool stop = visit(probe);
      ++probe[p];
      if (stop) return;
    }
  }
}

/// Little-endian fixed-width byte writer for structure_key().
class KeyWriter {
 public:
  explicit KeyWriter(std::size_t reserve) { bytes_.reserve(reserve); }
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void str(const std::string& s) {
    u64(s.size());
    bytes_.append(s);
  }
  void arcs(const std::vector<Arc>& arcs) {
    u64(arcs.size());
    for (const Arc& a : arcs) {
      u64(a.place);
      u32(a.multiplicity);
    }
  }
  [[nodiscard]] std::string take() { return std::move(bytes_); }

 private:
  void put(std::uint64_t v, std::size_t width) {
    char buf[8];
    for (std::size_t i = 0; i < width; ++i) buf[i] = static_cast<char>(v >> (8 * i));
    bytes_.append(buf, width);
  }

  std::string bytes_;
};

}  // namespace

const char* to_string(VerifySeverity severity) noexcept {
  switch (severity) {
    case VerifySeverity::kInfo:
      return "info";
    case VerifySeverity::kWarning:
      return "warning";
    case VerifySeverity::kError:
      return "error";
  }
  return "unknown";
}

std::size_t VerifyReport::count(VerifySeverity severity) const noexcept {
  std::size_t n = 0;
  for (const VerifyFinding& f : findings) {
    if (f.severity == severity) ++n;
  }
  return n;
}

std::vector<std::vector<long long>> incidence_matrix(const SrnModel& model) {
  StructureCertificate cert;
  build_incidence(model, cert);
  std::vector<std::vector<long long>> matrix(model.place_count(),
                                             std::vector<long long>(model.transition_count(), 0));
  for (TransitionId t = 0; t < model.transition_count(); ++t) {
    for (std::size_t e = cert.incidence_begin[t]; e < cert.incidence_begin[t + 1]; ++e) {
      matrix[cert.incidence[e].place][t] = cert.incidence[e].delta;
    }
  }
  return matrix;
}

std::vector<std::vector<long long>> semiflows(const std::vector<std::vector<long long>>& matrix,
                                              std::size_t max_intermediate_rows, bool* complete) {
  const std::size_t n = matrix.size();
  const std::size_t m = n == 0 ? 0 : matrix.front().size();
  std::vector<long long> flat;
  flat.reserve(n * m);
  for (const std::vector<long long>& row : matrix) {
    if (row.size() != m) throw std::invalid_argument("semiflows: ragged matrix");
    flat.insert(flat.end(), row.begin(), row.end());
  }
  bool done = true;
  std::size_t combinations = 0;
  std::vector<std::vector<long long>> result =
      farkas(flat, n, m, max_intermediate_rows, &done, &combinations);
  if (complete != nullptr) *complete = done;
  return result;
}

std::string structure_key(const SrnModel& model, const VerifyOptions& options) {
  KeyWriter key(64 * (model.place_count() + model.transition_count() + 1));
  key.u8('S');
  key.u64(options.max_intermediate_rows);
  const Marking initial = model.initial_marking();
  key.u8('P');
  key.u64(model.place_count());
  for (PlaceId p = 0; p < model.place_count(); ++p) {
    key.str(model.place_name(p));
    key.u32(initial[p]);
  }
  key.u8('T');
  key.u64(model.transition_count());
  for (TransitionId t = 0; t < model.transition_count(); ++t) {
    key.str(model.transition_name(t));
    const bool immediate = model.transition_kind(t) == TransitionKind::kImmediate;
    key.u8(immediate ? 1 : 0);
    key.u32(immediate ? model.priority(t) : 0);
    key.u8(model.has_guard(t) ? 1 : 0);
    key.arcs(model.input_arcs(t));
    key.arcs(model.output_arcs(t));
    key.arcs(model.inhibitor_arcs(t));
  }
  return key.take();
}

StructureCertificate certify_structure(const SrnModel& model, const VerifyOptions& options) {
  StructureCertificate cert;
  const std::size_t n_p = model.place_count();
  const std::size_t n_t = model.transition_count();
  cert.initial = model.initial_marking();
  build_incidence(model, cert);
  VerifyCertificates& certs = cert.certificates;
  std::vector<VerifyFinding>& findings = cert.findings;

  std::vector<bool> has_net_producer(n_p, false);  // some transition adds tokens
  std::vector<bool> has_net_consumer(n_p, false);  // some transition removes tokens
  for (const IncidenceEntry& e : cert.incidence) {
    (e.delta > 0 ? has_net_producer : has_net_consumer)[e.place] = true;
  }

  // ---- invariant certificates ---------------------------------------------
  {
    std::vector<long long> by_place(n_p * n_t, 0);  // rows: places
    std::vector<long long> by_transition(n_t * n_p, 0);  // rows: transitions
    for (TransitionId t = 0; t < n_t; ++t) {
      for (std::size_t e = cert.incidence_begin[t]; e < cert.incidence_begin[t + 1]; ++e) {
        by_place[cert.incidence[e].place * n_t + t] = cert.incidence[e].delta;
        by_transition[t * n_p + cert.incidence[e].place] = cert.incidence[e].delta;
      }
    }
    certs.p_semiflows = farkas(by_place, n_p, n_t, options.max_intermediate_rows,
                               &certs.p_semiflows_complete, &cert.farkas_combinations);
    certs.t_semiflows = farkas(by_transition, n_t, n_p, options.max_intermediate_rows,
                               &certs.t_semiflows_complete, &cert.farkas_combinations);
  }

  certs.place_bound.assign(n_p, kUnbounded);
  for (const std::vector<long long>& y : certs.p_semiflows) {
    long long weighted_initial = 0;
    bool exact = true;
    for (PlaceId p = 0; p < n_p && exact; ++p) {
      exact = checked_combination(1, weighted_initial, y[p],
                                  static_cast<long long>(cert.initial[p]), &weighted_initial);
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
    for (std::size_t e = cert.incidence_begin[t]; e < cert.incidence_begin[t + 1]; ++e) {
      column_sum += cert.incidence[e].delta;
    }
    if (column_sum != 0) certs.token_conserving = false;
  }

  if (!certs.p_semiflows_complete || !certs.t_semiflows_complete) {
    add_finding(findings, "V-CERT-001", VerifySeverity::kInfo, "",
                "semiflow enumeration incomplete (more than " +
                    std::to_string(options.max_intermediate_rows) +
                    " intermediate rows, or a coefficient beyond 64 bits); boundedness and "
                    "T-coverage rules skipped");
  }

  // Attainable per-place token ceiling: a place no transition net-produces
  // into can never exceed its initial tokens; otherwise the P-invariant
  // bound applies when one exists (kUnbounded = no certificate = assume
  // anything reachable).
  cert.attainable.assign(n_p, kUnbounded);
  for (PlaceId p = 0; p < n_p; ++p) {
    if (!has_net_producer[p]) {
      cert.attainable[p] = static_cast<long long>(cert.initial[p]);
      if (cert.initial[p] == 0) cert.unmarkable.push_back(p);
    } else if (certs.p_semiflows_complete) {
      cert.attainable[p] = certs.place_bound[p];
    }
  }

  // ---- structural lint rules ----------------------------------------------
  // V-STRUCT-002: input and inhibitor arcs on the same place that can never
  // be satisfied together (needs >= in and < inh <= in tokens at once).
  for (TransitionId t = 0; t < n_t; ++t) {
    for (const Arc& inh : model.inhibitor_arcs(t)) {
      const TokenCount demand = input_demand(model, t, inh.place);
      if (demand > 0 && inh.multiplicity <= demand) {
        add_finding(findings, "V-STRUCT-002", VerifySeverity::kError, model.transition_name(t),
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
      const long long ceiling = cert.attainable[a.place];
      if (ceiling != kUnbounded && ceiling < static_cast<long long>(a.multiplicity)) {
        add_finding(findings, "V-STRUCT-001", VerifySeverity::kError, model.transition_name(t),
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
        add_finding(findings, "V-STRUCT-003", VerifySeverity::kError, model.transition_name(t),
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
    if (has_net_producer[p] && !has_net_consumer[p]) {
      add_finding(findings, "V-ERGO-003", VerifySeverity::kError, model.place_name(p),
                  "absorbing token sink: transitions add tokens but none ever removes them");
    } else if (!has_net_producer[p] && has_net_consumer[p] && cert.initial[p] > 0) {
      add_finding(findings, "V-ERGO-004", VerifySeverity::kWarning, model.place_name(p),
                  "source-only place: its " + std::to_string(cert.initial[p]) +
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
      for (std::size_t e = cert.incidence_begin[from]; e < cert.incidence_begin[from + 1]; ++e) {
        if (cert.incidence[e].delta <= 0) continue;
        for (TransitionId to = 0; to < n_t; ++to) {
          if (input_demand(model, to, cert.incidence[e].place) > 0) successors[from].push_back(to);
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
        add_finding(findings, "V-ERGO-001", VerifySeverity::kWarning, model.transition_name(t),
                    "not on any directed cycle of the token-flow graph: it cannot fire "
                    "recurrently");
      }
    }
  }

  // V-ERGO-002: timed transitions outside every T-semiflow cannot appear in
  // any marking-preserving firing cycle — in a bounded net they fire at most
  // finitely often.
  if (certs.t_semiflows_complete) {
    std::vector<bool> covered(n_t, false);
    for (const std::vector<long long>& x : certs.t_semiflows) {
      for (TransitionId t = 0; t < n_t; ++t) covered[t] = covered[t] || x[t] > 0;
    }
    for (TransitionId t = 0; t < n_t; ++t) {
      if (model.transition_kind(t) != TransitionKind::kTimed || covered[t]) continue;
      add_finding(findings, "V-ERGO-002", VerifySeverity::kWarning, model.transition_name(t),
                  "not covered by any T-semiflow: no marking-preserving firing cycle "
                  "contains it");
    }
  }

  // V-BOUND-001: places without a boundedness certificate.
  if (certs.p_semiflows_complete) {
    for (PlaceId p = 0; p < n_p; ++p) {
      if (certs.place_bound[p] == kUnbounded) {
        add_finding(findings, "V-BOUND-001", VerifySeverity::kWarning, model.place_name(p),
                    "not covered by any P-semiflow: no structural boundedness certificate");
      }
    }
  }
  return cert;
}

VerifyReport verify_values(const StructureCertificate& cert, const SrnModel& model,
                           const std::vector<std::pair<std::string, RewardFunction>>& rewards,
                           const VerifyOptions& options) {
  const std::size_t n_t = model.transition_count();
  if (model.place_count() != cert.initial.size() || n_t + 1 != cert.incidence_begin.size()) {
    throw std::invalid_argument(
        "verify_values: the certificate was built for a net of another structure");
  }
  VerifyReport report;
  report.certificates = cert.certificates;
  report.findings = cert.findings;
  if (!options.probe_functions) return report;
  std::vector<VerifyFinding>& findings = report.findings;

  // ---- probe-based function lint ------------------------------------------
  // Probe set: the initial marking plus every single-place perturbation
  // that stays inside the attainable ceiling.  Guards/rates/rewards must be
  // total functions over markings of the correct arity.
  Marking probe;

  // V-GUARD-001: guards that throw (e.g. Marking::at on a nonexistent
  // place, or a stale name lookup).
  std::vector<bool> guard_broken(n_t, false);
  for (TransitionId t = 0; t < n_t; ++t) {
    if (!model.has_guard(t)) continue;
    const Guard& guard = model.guard(t);
    for_each_probe(cert, probe, [&](const Marking& m) {
      try {
        (void)guard(m);
        return false;
      } catch (const std::exception& e) {
        add_finding(findings, "V-GUARD-001", VerifySeverity::kError, model.transition_name(t),
                    std::string("guard threw on a probe marking: ") + e.what());
      } catch (...) {
        add_finding(findings, "V-GUARD-001", VerifySeverity::kError, model.transition_name(t),
                    "guard threw a non-std exception on a probe marking");
      }
      guard_broken[t] = true;
      return true;
    });
  }

  // V-RATE-001: rates are data, checked at construction, so a rate is 0
  // only as a per-token rate whose place is empty at a marking where the
  // transition is enabled (the only markings the engine evaluates it at).
  for (TransitionId t = 0; t < n_t; ++t) {
    if (model.transition_kind(t) != TransitionKind::kTimed || guard_broken[t]) continue;
    const std::optional<PlaceId> place = model.timed_rate(t).place;
    if (!place) continue;
    for_each_probe(cert, probe, [&](const Marking& m) {
      if (m[*place] != 0 || !model.is_enabled(t, m)) return false;
      add_finding(findings, "V-RATE-001", VerifySeverity::kError, model.transition_name(t),
                  "rate per token of " + model.place_name(*place) +
                      " is 0 at an enabled probe marking " + petri::to_string(m));
      return true;
    });
  }

  // V-REWARD-002: rewards must evaluate to a finite value on every probe.
  for (const auto& [name, reward] : rewards) {
    if (!reward) continue;
    for_each_probe(cert, probe, [&](const Marking& m) {
      try {
        const double v = reward(m);
        if (std::isfinite(v)) return false;
        add_finding(findings, "V-REWARD-002", VerifySeverity::kError, name,
                    "reward evaluated to " + std::to_string(v) + " at probe marking " +
                        petri::to_string(m));
      } catch (const std::exception& e) {
        add_finding(findings, "V-REWARD-002", VerifySeverity::kError, name,
                    std::string("reward threw on a probe marking: ") + e.what());
      } catch (...) {
        add_finding(findings, "V-REWARD-002", VerifySeverity::kError, name,
                    "reward threw a non-std exception on a probe marking");
      }
      return true;
    });
  }

  // V-REWARD-001: a reward that changes value when a never-markable place
  // is toggled depends on state that cannot exist — usually a stale place
  // id after a model edit.
  for (const PlaceId p : cert.unmarkable) {
    probe = cert.initial;
    probe[p] = 1;
    for (const auto& [name, reward] : rewards) {
      if (!reward) continue;
      try {
        // A non-finite value is V-REWARD-002's finding, not a dependence.
        const double before = reward(cert.initial);
        const double after = reward(probe);
        if (std::isfinite(before) && std::isfinite(after) && before != after) {
          add_finding(findings, "V-REWARD-001", VerifySeverity::kWarning, name,
                      "depends on place " + model.place_name(p) +
                          " which can never be marked (0 initial tokens, no producer)");
        }
      } catch (...) {
        // Already reported as V-REWARD-002.
      }
    }
  }
  return report;
}

VerifyReport verify_model(const SrnModel& model, const VerifyOptions& options) {
  return verify_model(model, {}, options);
}

VerifyReport verify_model(const SrnModel& model,
                          const std::vector<std::pair<std::string, RewardFunction>>& rewards,
                          const VerifyOptions& options) {
  return verify_values(certify_structure(model, options), model, rewards, options);
}

void throw_on_verify_errors(const VerifyReport& report, const std::string& stage) {
  if (!report.has_errors()) return;
  std::ostringstream message;
  message << "model verification failed (" << stage << "): " << report.errors() << " error(s)";
  for (const VerifyFinding& f : report.findings) {
    if (f.severity != VerifySeverity::kError) continue;
    message << "; [" << f.rule << "] " << (f.subject.empty() ? "net" : f.subject) << ": "
            << f.message;
  }
  throw std::runtime_error(message.str());
}

std::string format(const VerifyReport& report) {
  const VerifyCertificates& c = report.certificates;
  std::ostringstream out;
  out << "  P-semiflows: " << c.p_semiflows.size()
      << (c.p_semiflows_complete ? "" : " (truncated)")
      << "  T-semiflows: " << c.t_semiflows.size()
      << (c.t_semiflows_complete ? "" : " (truncated)") << "\n";
  out << "  structurally bounded: " << (c.structurally_bounded ? "yes" : "no")
      << "  token conserving: " << (c.token_conserving ? "yes" : "no") << "\n";
  if (report.clean()) {
    out << "  findings: none\n";
  } else {
    out << "  findings: " << report.errors() << " error(s), " << report.warnings()
        << " warning(s)\n";
    for (const VerifyFinding& f : report.findings) {
      out << "    [" << to_string(f.severity) << "] " << f.rule << " "
          << (f.subject.empty() ? "<net>" : f.subject) << ": " << f.message << "\n";
    }
  }
  return out.str();
}

}  // namespace patchsec::petri
