#pragma once
// Shared pieces of the benchmark: the seeded generator, the clock, order
// statistics, the in-memory span trace and the result record every workload
// fills in.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double seconds_since(Clock::time_point from) { return seconds_between(from, Clock::now()); }

inline bool same_bits(double a, double b) noexcept {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// splitmix64 stream.  The standard distributions are implementation-defined,
/// so every draw goes through this generator: one seed gives one input set on
/// every compiler.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n); n must be positive.
  std::size_t below(std::size_t n) noexcept { return static_cast<std::size_t>(next() % n); }

  template <class T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[below(i)]);
  }

  template <class T>
  const T& pick(const std::vector<T>& items) {
    return items[below(items.size())];
  }

 private:
  std::uint64_t state_;
};

/// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

/// Spans kept in memory and written out when the run ends.  A root span is
/// one traced op; every span opened while a root is open becomes its
/// descendant.  A stage's self time is its duration minus its children's.
class Trace {
 public:
  struct Span {
    const char* stage = "";
    std::size_t parent = kNone;
    std::size_t root = 0;
    double start_s = 0.0;
    double duration_s = 0.0;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Trace& trace, const char* stage) : trace_(trace), index_(trace.open(stage)) {}
    ~Scope() { trace_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace& trace_;
    std::size_t index_;
  };

  [[nodiscard]] Scope scope(const char* stage) { return Scope(*this, stage); }

  /// Add to a named counter of the currently open root.
  void count(const char* name, double value) {
    if (!open_.empty()) counts_.push_back({spans_[open_.front()].root, name, value});
  }

  /// Per root: stage -> summed self time (s), root span itself under "op".
  [[nodiscard]] std::vector<std::map<std::string, double>> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].duration_s;
    for (const Span& s : spans_) {
      if (s.parent != kNone) self[s.parent] -= s.duration_s;
    }
    std::vector<std::map<std::string, double>> out(roots_);
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].root][spans_[i].stage] += self[i];
    return out;
  }

  /// Root wall time per root (s).
  [[nodiscard]] std::vector<double> root_times() const {
    std::vector<double> out(roots_);
    for (const Span& s : spans_) {
      if (s.parent == kNone) out[s.root] = s.duration_s;
    }
    return out;
  }

  /// Per root: counter name -> summed value.
  [[nodiscard]] std::vector<std::map<std::string, double>> counters() const {
    std::vector<std::map<std::string, double>> out(roots_);
    for (const Count& c : counts_) out[c.root][c.name] += c.value;
    return out;
  }

  /// Summed stage self time over summed root wall time.
  [[nodiscard]] double coverage() const {
    double covered = 0.0;
    double wall = 0.0;
    for (const auto& root : self_times()) {
      for (const auto& [stage, s] : root) {
        if (stage != kRootStage) covered += s;
      }
    }
    for (double w : root_times()) wall += w;
    return wall > 0.0 ? covered / wall : 0.0;
  }

  /// Stages ranked by total self time over every root (root glue included
  /// under "op").
  [[nodiscard]] std::vector<std::pair<std::string, double>> ranking() const {
    std::map<std::string, double> total;
    for (const auto& root : self_times()) {
      for (const auto& [stage, s] : root) total[stage] += s;
    }
    std::vector<std::pair<std::string, double>> ranked(total.begin(), total.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    return ranked;
  }

  /// One line per span: root,parent,stage,start_s,duration_s.
  [[nodiscard]] std::string csv() const {
    std::string out = "root,span,parent,stage,start_s,duration_s\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out += std::to_string(s.root) + ',' + std::to_string(i) + ',' +
             (s.parent == kNone ? std::string("-") : std::to_string(s.parent)) + ',' + s.stage +
             ',' + std::to_string(s.start_s) + ',' + std::to_string(s.duration_s) + '\n';
    }
    return out;
  }

  static constexpr const char* kRootStage = "op";

 private:
  std::size_t open(const char* stage) {
    Span span;
    span.stage = open_.empty() ? kRootStage : stage;
    span.parent = open_.empty() ? kNone : open_.back();
    if (open_.empty()) {
      span.root = roots_++;
    } else {
      span.root = spans_[open_.front()].root;
    }
    span.start_s = seconds_since(origin_);
    spans_.push_back(span);
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].duration_s = seconds_since(origin_) - spans_[index].start_s;
    open_.pop_back();
  }

  struct Count {
    std::size_t root;
    const char* name;
    double value;
  };

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::vector<Count> counts_;
  std::size_t roots_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  /// Stage ranking lines (traced runs) and other human-readable notes.
  std::vector<std::string> notes;
  /// Span dump of the traced run (CSV), written next to the results.
  std::string spans_csv;
};

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// Host-speed reference.  On a shared host the same op runs in discrete fast
/// and slow states, up to ~1.6x apart and switching every few seconds, as
/// neighbours contend for the memory system; a 25 s run lands anywhere
/// between the two.  reference_kernel_ms() times a fixed allocation- and
/// pointer-chasing kernel that slows down in the same states, and every
/// end-to-end time is scaled by kReferenceMs over the kernel's time measured
/// around it, so it reads as on a host where the kernel takes kReferenceMs.
/// The raw times are reported alongside (the "raw" line and saved record).
constexpr double kReferenceMs = 1.0;
double reference_kernel_ms();

/// Scale factor for a region bracketed by two reference probes.
inline double host_factor(double before_ms, double after_ms) {
  return 2.0 * kReferenceMs / (before_ms + after_ms);
}

/// One op's measured time and the verdict of its output check (the check
/// runs after the measured region, off the clock).
struct OpResult {
  double ms = 0.0;
  bool ok = true;
};

/// An end-to-end run: the set-up times (each workload sets up several times
/// and keeps the last state) and the op times, host-scaled and raw.
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> raw_setup_s;
  std::vector<double> op_ms;
  std::vector<double> raw_op_ms;
  std::vector<double> host_factors;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Time one set-up between two reference probes.
template <class Setup>
void timed_setup(Measured& m, Setup&& setup) {
  const double before = reference_kernel_ms();
  const auto start = Clock::now();
  setup();
  const double raw = seconds_since(start);
  const double factor = host_factor(before, reference_kernel_ms());
  m.raw_setup_s.push_back(raw);
  m.setup_s.push_back(raw * factor);
}

/// Run `op` until `seconds` of op time have elapsed, and at least 20 ops,
/// appending to `out`.  A reference probe follows every op, so each op is
/// scaled by the probes on either side.  An op that throws counts as
/// failed; its time counts toward `seconds` but not toward the sample.
template <class Op>
void measure_ops(double seconds, Measured& out, Op&& op) {
  constexpr std::size_t kMinOps = 20;
  double spent = 0.0;
  double before = reference_kernel_ms();
  for (std::size_t done = 0; spent < seconds || done < kMinOps; ++done) {
    const auto start = Clock::now();
    ++out.attempted;
    try {
      const OpResult r = op();
      const double after = reference_kernel_ms();
      const double factor = host_factor(before, after);
      before = after;
      if (!r.ok) ++out.failed;
      out.raw_op_ms.push_back(r.ms);
      out.op_ms.push_back(r.ms * factor);
      out.host_factors.push_back(factor);
      spent += r.ms / 1000.0;
    } catch (...) {
      ++out.failed;
      spent += seconds_since(start);
    }
  }
}

/// Ops per second of (host-scaled) op time, for workloads that run one op at
/// a time.
inline double serial_throughput(const std::vector<double>& op_ms) {
  double total_ms = 0.0;
  for (double ms : op_ms) total_ms += ms;
  return total_ms > 0.0 ? 1000.0 * static_cast<double>(op_ms.size()) / total_ms : 0.0;
}

/// "raw ..." line: the unscaled set-up, throughput and op times, and the
/// median host factor applied to them.
std::string raw_note(const Measured& m, double tail_percentile, double raw_ops_per_s);

/// The six end-to-end metrics, from a measured run.
std::vector<Metric> end_to_end(const Measured& m, double tail_percentile, double ops_per_s);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Every per-layer metric name with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

/// Per-layer metrics from a trace: stage self times (median over roots of
/// the per-root totals) and counters (median over roots), with `extra`
/// values (ratios and reply timings computed by the workload) overriding.
std::vector<Metric> per_layer(const Trace& trace, const std::map<std::string, double>& extra);

/// "stage self_s share" lines, highest self time first.
std::vector<std::string> ranking_lines(const std::string& workload, const Trace& trace);

Outcome run_sweep(const RunOptions& options);
Outcome run_patch_window(const RunOptions& options);
Outcome run_service_stream(const RunOptions& options);
Outcome run_game_grid(const RunOptions& options);

}  // namespace perfbench
