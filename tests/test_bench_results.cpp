// Guards the committed benchmark snapshot: BENCH_RESULTS.json is regenerated
// by hand (bench/README.md documents the workflow) and nothing else would
// notice a stale or truncated commit.  This suite asserts the snapshot at the
// repo root parses, carries the current schema version, and contains every
// benchmark id the schema requires — in particular the lumped_* rows whose
// flat-vs-lumped state counts are the PR-facing evidence of the symmetry
// lumping speedup, and the service_* rows whose throughput/hit-rate floors
// are the PR-facing evidence of the evaluation-service layer.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

constexpr int kSchemaVersion = 7;

std::string snapshot_text() {
  const std::string path = std::string(PATCHSEC_SOURCE_DIR) + "/BENCH_RESULTS.json";
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing committed snapshot: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Value of a top-level `"key": <integer>` field; -1 when absent.
long field_value(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return -1;
  return std::stol(text.substr(at + needle.size()));
}

/// Value of a top-level `"key": <number>` field as a double; -1 when absent.
double field_double(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return -1.0;
  return std::stod(text.substr(at + needle.size()));
}

/// The row object (up to the closing brace) of one benchmark id; empty when
/// the id is not present in the snapshot.
std::string bench_row(const std::string& text, const std::string& name) {
  const std::string needle = "\"name\": \"" + name + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t end = text.find('}', at);
  return text.substr(at, end == std::string::npos ? std::string::npos : end - at);
}

/// Every id run_benchmarks emits, in emission order.  Extending the runner
/// without extending this list (and regenerating the snapshot) fails here.
const std::vector<std::string>& required_benchmarks() {
  static const std::vector<std::string> ids = {
      "evaluate_uniform_k2",
      "evaluate_uniform_k4",
      "evaluate_uniform_k6",
      "reachability_network_k6",
      "steady_state_k6_cold",
      "steady_state_k6_warm",
      "server_srn_aggregation",
      "sim_replications_serial",
      "sim_replications_threaded8",
      "transient_curve_k6_cold",
      "transient_curve_k6_warm",
      "transient_curve_k6_simd",
      "transient_batch8_k6",
      "transient_session_paper",
      "sim_transient_curve_threaded8",
      "lumped_k6_evaluate",
      "lumped_k50_evaluate",
      "lumped_k50_transient",
      "schedule_sweep_5x6",
      "service_throughput_k6",
      "service_transient_batch_k6",
      "game_equilibrium_k6",
  };
  return ids;
}

}  // namespace

TEST(BenchResults, CommittedSnapshotMatchesSchema) {
  const std::string text = snapshot_text();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(field_value(text, "schema_version"), kSchemaVersion);
  EXPECT_GT(field_value(text, "repetitions"), 0);
  EXPECT_NE(text.find("\"unit\": \"seconds\""), std::string::npos);

  for (const std::string& id : required_benchmarks()) {
    EXPECT_FALSE(bench_row(text, id).empty()) << "snapshot is missing benchmark: " << id
                                              << " — regenerate BENCH_RESULTS.json "
                                                 "(see bench/README.md)";
  }
}

TEST(BenchResults, EveryRowConvergedWithPositiveTimings) {
  const std::string text = snapshot_text();
  for (const std::string& id : required_benchmarks()) {
    const std::string row = bench_row(text, id);
    if (row.empty()) continue;  // reported by the schema test above
    EXPECT_NE(row.find("\"converged\": true"), std::string::npos) << id;
    EXPECT_EQ(row.find("\"wall_seconds_best\": 0,"), std::string::npos) << id;
    EXPECT_NE(row.find("\"wall_seconds_best\": "), std::string::npos) << id;
  }
}

TEST(BenchResults, SimdRowsRecordThePanelSpeedup) {
  const std::string text = snapshot_text();
  const std::string scalar = bench_row(text, "transient_curve_k6_warm");
  const std::string simd = bench_row(text, "transient_curve_k6_simd");
  const std::string batch = bench_row(text, "transient_batch8_k6");
  ASSERT_FALSE(scalar.empty());
  ASSERT_FALSE(simd.empty());
  ASSERT_FALSE(batch.empty());
  EXPECT_EQ(field_value(scalar, "rhs_count"), 1);
  EXPECT_EQ(field_value(simd, "rhs_count"), 8);
  EXPECT_EQ(field_value(batch, "rhs_count"), 8);

  const double scalar_best = field_double(scalar, "wall_seconds_best");
  const double simd_best = field_double(simd, "wall_seconds_best");
  const double batch_best = field_double(batch, "wall_seconds_best");
  ASSERT_GT(scalar_best, 0.0);
  ASSERT_GT(simd_best, 0.0);
  ASSERT_GT(batch_best, 0.0);
  // The ISSUE 8 acceptance ratio: warm-curve work >= 4x faster on the
  // SIMD+panel path.  The simd row reports PER-CURVE time of an 8-wide
  // panel (bench/README.md); its in-bench `converged` flag asserts this
  // same bound at generation time, so a regenerated snapshot that misses
  // the target fails EveryRowConvergedWithPositiveTimings too.
  EXPECT_GE(scalar_best / simd_best, 4.0)
      << "SIMD+panel per-curve time " << simd_best << "s vs scalar " << scalar_best << "s";
  // The batched 8-wave sweep beats 8 sequential curve solves (in-bench the
  // row's `converged` compares against 8 sequential SIMD solves — stronger
  // than the scalar bound re-checked here).
  EXPECT_LT(batch_best, 8.0 * scalar_best);
  // Work accounting stays honest: the panel rows did the same number of
  // matrix SWEEPS as the single-vector row while advancing 8 curves.
  EXPECT_EQ(field_value(simd, "solver_iterations"), field_value(scalar, "solver_iterations"));
  EXPECT_EQ(field_value(batch, "solver_iterations"), field_value(scalar, "solver_iterations"));
}

TEST(BenchResults, LumpedRowsRecordTheStateReduction) {
  const std::string text = snapshot_text();
  for (const char* id : {"lumped_k50_evaluate", "lumped_k50_transient"}) {
    const std::string row = bench_row(text, id);
    ASSERT_FALSE(row.empty()) << id;
    const long states = field_value(row, "tangible_states");
    const long flat = field_value(row, "flat_states");
    ASSERT_GT(states, 0) << id;
    ASSERT_GT(flat, 0) << id;
    EXPECT_EQ(states, 204) << id;            // 4 tiers x 51 counting states
    EXPECT_EQ(flat, 6765201) << id;          // 51^4 joint states avoided
    EXPECT_GE(flat / states, 100) << id;     // the ISSUE acceptance ratio
  }
}

TEST(BenchResults, ServiceRowsRecordThroughputAndHitRate) {
  const std::string text = snapshot_text();
  const std::string throughput = bench_row(text, "service_throughput_k6");
  const std::string batch = bench_row(text, "service_transient_batch_k6");
  ASSERT_FALSE(throughput.empty());
  ASSERT_FALSE(batch.empty());
  // The ISSUE 9 acceptance floors.  The rows' in-bench `converged` flags
  // additionally assert cache/solo bit-identity (throughput) and full-width
  // panel grouping with 1e-10 solo agreement (batch) at generation time, so
  // EveryRowConvergedWithPositiveTimings re-checks those transitively.
  EXPECT_GE(field_double(throughput, "evals_per_second"), 5000.0)
      << "service throughput below the 5,000 evals/s acceptance floor";
  EXPECT_GE(field_double(throughput, "cache_hit_rate"), 0.8)
      << "cache hit rate below the 0.8 acceptance floor";
  // The 90%-repeat load makes the hit rate exactly 0.9 by construction.
  EXPECT_NEAR(field_double(throughput, "cache_hit_rate"), 0.9, 1e-9);
  // The grouped transient row rode a full-width panel.
  EXPECT_EQ(field_value(batch, "rhs_count"), 8);
  EXPECT_GT(field_double(batch, "evals_per_second"), 0.0);
}

TEST(BenchResults, GameRowRecordsConvergedEquilibriumWithWarmCache) {
  const std::string text = snapshot_text();
  const std::string row = bench_row(text, "game_equilibrium_k6");
  ASSERT_FALSE(row.empty());
  // The acceptance floor: the equilibrium row must be converged (the
  // in-bench flag additionally asserts the deviation-check certificate and
  // the bit-identical warm re-solve at generation time) with a cache hit
  // rate >= 0.5 across its grid sweeps.  The two-solve load (one sweep each,
  // the second all cache hits) makes the hit rate exactly 0.5.
  EXPECT_GE(field_double(row, "cache_hit_rate"), 0.5)
      << "game sweep cache hit rate below the 0.5 acceptance floor";
  EXPECT_NEAR(field_double(row, "cache_hit_rate"), 0.5, 1e-9);
  // solver_iterations carries the grid sweeps of the cold solve: the
  // equilibria are enumerated from one sweep.
  EXPECT_EQ(field_value(row, "solver_iterations"), 1);
  EXPECT_GT(field_double(row, "evals_per_second"), 0.0);
  // tangible_states carries the defender grid size: 6 designs x 4 cadences.
  EXPECT_EQ(field_value(row, "tangible_states"), 24);
}
