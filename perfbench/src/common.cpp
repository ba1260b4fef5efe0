#include <sys/resource.h>

#include <cstddef>
#include <cstdio>
#include <map>
#include <memory_resource>
#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

/// Keeps the reference kernel's work observable.
volatile std::size_t g_reference_sink = 0;

}  // namespace

double reference_kernel_ms() {
  // The kernel allocates only from its own fixed buffer, so its time tracks
  // the host, not the state of this process's heap.
  static std::vector<std::byte> arena(std::size_t{1} << 20);
  const auto start = Clock::now();
  std::pmr::monotonic_buffer_resource pool(arena.data(), arena.size(),
                                           std::pmr::null_memory_resource());
  std::pmr::map<int, int> tree(&pool);
  for (int r = 0; r < 6000; ++r) tree[(r * 7919) % 12011] += r;
  std::size_t acc = tree.size();
  for (int pass = 0; pass < 4; ++pass) {
    for (const auto& [key, value] : tree) acc += static_cast<std::size_t>(key ^ value);
  }
  g_reference_sink = g_reference_sink + acc;
  return seconds_since(start) * 1000.0;
}

std::string raw_note(const Measured& m, double tail_percentile, double raw_ops_per_s) {
  char line[256];
  std::snprintf(line, sizeof line,
                "raw setup_s %.6g ops_per_s %.6g op_p50_ms %.6g op_tail_ms %.6g host_factor %.4g",
                median(m.raw_setup_s), raw_ops_per_s, median(m.raw_op_ms),
                percentile(m.raw_op_ms, tail_percentile), median(m.host_factors));
  return line;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

std::vector<Metric> end_to_end(const Measured& m, double tail_percentile, double ops_per_s) {
  const double attempted = static_cast<double>(m.attempted);
  return {
      {"setup_s", median(m.setup_s), "s"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"op_p50_ms", median(m.op_ms), "ms"},
      {"op_tail_ms", percentile(m.op_ms, tail_percentile), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"ok_ratio", attempted > 0 ? (attempted - static_cast<double>(m.failed)) / attempted : 0.0,
       "ratio"},
  };
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"petri.verify_s", "s"},
      {"petri.reach_s", "s"},
      {"petri.reach_calls", "count"},
      {"petri.states", "count"},
      {"avail.aggregate_s", "s"},
      {"avail.aggregate_calls", "count"},
      {"avail.lumped_s", "s"},
      {"linalg.steady_s", "s"},
      {"linalg.steady_iters", "count"},
      {"ctmc.generator_s", "s"},
      {"ctmc.prepare_s", "s"},
      {"ctmc.curve_s", "s"},
      {"ctmc.sweeps", "count"},
      {"ctmc.structure_reuse_ratio", "ratio"},
      {"harm.build_s", "s"},
      {"harm.paths_s", "s"},
      {"harm.classes_s", "s"},
      {"harm.paths", "count"},
      {"harm.truncated", "count"},
      {"service.submit_us", "us"},
      {"service.hit_ratio", "ratio"},
      {"service.coalesced_ratio", "ratio"},
      {"service.panel_width", "count"},
      {"service.queue_wait_ms", "ms"},
      {"service.solve_ms", "ms"},
      {"game.ctor_s", "s"},
      {"game.solve_s", "s"},
      {"game.rounds", "count"},
      {"game.grid_evals", "count"},
      {"game.warm_solve_s", "s"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return catalog;
}

namespace {

/// Median over roots of one stage's per-root self time (0 where absent).
double stage_median(const std::vector<std::map<std::string, double>>& per_root,
                    const std::string& stage) {
  std::vector<double> values;
  values.reserve(per_root.size());
  for (const auto& root : per_root) {
    const auto it = root.find(stage);
    values.push_back(it == root.end() ? 0.0 : it->second);
  }
  return median(std::move(values));
}

double counter_total(const Trace& trace, const std::string& name) {
  double total = 0.0;
  for (const auto& root : trace.counters()) {
    const auto it = root.find(name);
    if (it != root.end()) total += it->second;
  }
  return total;
}

}  // namespace

std::vector<Metric> per_layer(const Trace& trace, const std::map<std::string, double>& extra) {
  const std::vector<std::map<std::string, double>> self = trace.self_times();
  std::vector<Metric> out;
  for (const auto& [name, unit] : per_layer_catalog()) {
    double value = 0.0;
    if (const auto it = extra.find(name); it != extra.end()) {
      value = it->second;
    } else if (name == "ctmc.structure_reuse_ratio") {
      const double prepares = counter_total(trace, "ctmc.prepares");
      value = prepares > 0.0 ? counter_total(trace, "ctmc.structure_reuses") / prepares : 0.0;
    } else if (name == "trace.coverage") {
      value = trace.coverage();
    } else if (unit == "s") {
      value = stage_median(self, name.substr(0, name.size() - 2));
    } else {
      value = stage_median(trace.counters(), name);
    }
    out.push_back({name, value, unit});
  }
  return out;
}

std::vector<std::string> ranking_lines(const std::string& workload, const Trace& trace) {
  const auto ranked = trace.ranking();
  double total = 0.0;
  for (const auto& [stage, s] : ranked) total += s;
  std::vector<std::string> lines;
  std::size_t rank = 0;
  for (const auto& [stage, s] : ranked) {
    char line[160];
    std::snprintf(line, sizeof line, "stage %s %2zu %-18s self %9.4f s  %5.1f%%", workload.c_str(),
                  ++rank, stage.c_str(), s, total > 0.0 ? 100.0 * s / total : 0.0);
    lines.emplace_back(line);
  }
  return lines;
}

}  // namespace perfbench
