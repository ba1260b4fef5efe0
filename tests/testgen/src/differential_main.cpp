// CLI for the differential validation harness (see docs/TESTING.md).
//
//   differential_runner [--scenarios N] [--seed S] [--z Z]
//                       [--allowed-misses M] [--threads T] [--quick]
//                       [--transient] [--lumped] [--replications N]
//                       [--repro SCENARIO_SEED] [--output PATH]
//
//   --quick        reduced replication budget (CI smoke: fewer/shorter
//                  replications); the pass/fail semantics are unchanged.
//   --transient    cross-check the transient coa(t) curve (patch-wave start,
//                  default 0.5..24 h grid) instead of the steady-state COA:
//                  the analytic curve must lie inside the finite-horizon
//                  estimator's CI band at every grid point.  Transient
//                  replications are cheap (one 24 h trajectory each), so the
//                  default budget is 512 (see --replications).
//   --lumped       three-way steady-state check: every scenario is scored
//                  flat-analytic, lumped-analytic (EngineOptions::lumping)
//                  and simulated.  A case passes only when the lumped COA
//                  matches the flat COA to solver tolerance AND both land in
//                  the simulation CI.
//   --replications explicit replication budget for any mode.
//   --repro        replay ONE scenario from the seed a previous run logged,
//                  print its verdict and exit (0 = inside CI).
//
// Exit status: 0 when misses <= allowed_misses (or the repro case agrees),
// 1 otherwise, 2 on usage errors: an unknown flag, a missing, malformed,
// negative or out-of-range value, or options the runner rejects.  Usage
// errors are reported before any scenario runs.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "patchsec/testgen/differential_runner.hpp"

namespace {

const char* program = "differential_runner";

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", program, message.c_str());
  std::fprintf(stderr,
               "usage: %s [--scenarios N] [--seed S] [--z Z] [--allowed-misses M]\n"
               "          [--threads T] [--quick] [--transient] [--lumped]\n"
               "          [--replications N] [--repro SCENARIO_SEED] [--output PATH]\n",
               program);
  std::exit(2);
}

// The whole of `text` as a decimal unsigned integer no larger than `max`
// (no sign, no whitespace, no trailing characters); a usage error otherwise.
std::uint64_t parse_unsigned(const char* flag, const char* text,
                             std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const char* end = text + std::strlen(text);
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || value > max) {
    usage_error(std::string(flag) + " needs a non-negative integer, got '" + text + "'");
  }
  return value;
}

// The whole of `text` as a finite, non-negative decimal number.
double parse_non_negative(const char* flag, const char* text) {
  const char* end = text + std::strlen(text);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value) || value < 0.0) {
    usage_error(std::string(flag) + " needs a finite non-negative number, got '" + text + "'");
  }
  return value;
}

void print_case(const patchsec::testgen::DifferentialCase& c,
                patchsec::testgen::DifferentialMode mode) {
  if (mode == patchsec::testgen::DifferentialMode::kLumped) {
    std::printf("%s seed=%llu %-45s flat=%.9f lumped=%.9f (dev %.2e) sim=%.9f +/-%.9f\n",
                c.inside_ci ? "PASS" : "MISS", static_cast<unsigned long long>(c.scenario_seed),
                c.label.c_str(), c.analytic_coa, c.lumped_coa, c.flat_lumped_deviation,
                c.simulated_coa, c.half_width_95);
    return;
  }
  std::printf("%s seed=%llu %-45s analytic=%.9f sim=%.9f +/-%.9f\n",
              c.inside_ci ? "PASS" : "MISS", static_cast<unsigned long long>(c.scenario_seed),
              c.label.c_str(), c.analytic_coa, c.simulated_coa, c.half_width_95);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 0) program = argv[0];
  patchsec::testgen::DifferentialOptions options;
  std::string output;
  bool repro = false;
  bool replications_set = false;
  std::uint64_t repro_seed = 0;

  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (std::strcmp(flag, "--scenarios") == 0) {
      options.scenarios = parse_unsigned(flag, value());
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.generator.seed = parse_unsigned(flag, value());
    } else if (std::strcmp(flag, "--z") == 0) {
      options.z = parse_non_negative(flag, value());
    } else if (std::strcmp(flag, "--allowed-misses") == 0) {
      options.allowed_misses = parse_unsigned(flag, value());
    } else if (std::strcmp(flag, "--threads") == 0) {
      options.simulation.threads = static_cast<unsigned>(
          parse_unsigned(flag, value(), std::numeric_limits<unsigned>::max()));
    } else if (std::strcmp(flag, "--quick") == 0) {
      options.simulation.replications = 16;
      options.simulation.warmup_hours = 1500.0;
      options.simulation.horizon_hours = 10000.0;
      replications_set = true;
    } else if (std::strcmp(flag, "--transient") == 0) {
      options.mode = patchsec::testgen::DifferentialMode::kTransient;
    } else if (std::strcmp(flag, "--lumped") == 0) {
      options.mode = patchsec::testgen::DifferentialMode::kLumped;
    } else if (std::strcmp(flag, "--replications") == 0) {
      options.simulation.replications = parse_unsigned(flag, value());
      replications_set = true;
    } else if (std::strcmp(flag, "--repro") == 0) {
      repro = true;
      repro_seed = parse_unsigned(flag, value());
    } else if (std::strcmp(flag, "--output") == 0) {
      output = value();
    } else {
      usage_error(std::string("unknown argument '") + flag + "'");
    }
  }

  // Transient replications simulate one short trajectory each; the 32-rep
  // steady-state default would leave a needlessly coarse band.
  if (options.mode == patchsec::testgen::DifferentialMode::kTransient && !replications_set) {
    options.simulation.replications = 512;
  }

  // The runner validates every option up front, for --repro too.
  const patchsec::testgen::DifferentialRunner runner = [&] {
    try {
      return patchsec::testgen::DifferentialRunner(options);
    } catch (const std::invalid_argument& error) {
      usage_error(error.what());
    }
  }();

  if (repro) {
    const auto c = patchsec::testgen::DifferentialRunner::run_one(repro_seed, runner.options());
    print_case(c, options.mode);
    return c.inside_ci ? 0 : 1;
  }

  const patchsec::testgen::DifferentialReport report = runner.run();
  for (const auto& c : report.cases) print_case(c, report.mode);
  std::printf("differential[%s]: %zu/%zu inside the %.2f-sigma CI (%zu misses, budget %zu)\n",
              patchsec::testgen::to_string(report.mode), report.cases.size() - report.misses,
              report.cases.size(), report.z, report.misses, options.allowed_misses);

  if (!output.empty()) {
    std::ofstream out(output);
    if (!out) {
      std::fprintf(stderr, "differential_runner: cannot write %s\n", output.c_str());
      return 2;
    }
    out << report.to_json();
    std::printf("wrote %s\n", output.c_str());
  }
  return report.passed(options.allowed_misses) ? 0 : 1;
}
