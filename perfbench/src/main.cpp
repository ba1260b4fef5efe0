// perfbench — end-to-end and per-layer benchmark of the patchsec engine.
//
//   perfbench --workload <sweep|patch_window|service_stream|game_grid>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints the machine block, the traced run's stage ranking (trace 1), and as
// the last stdout line one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  With --out-dir the full record (machine block included) is
// written to <dir>/<workload>-seed<n>-trace<t>.json and a traced run's spans
// to <dir>/<workload>-seed<n>-spans.csv.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "patchsec/linalg/spmv_kernel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Outcome;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// The machine block: two result sets compare only when these match.
std::string machine_json() {
  std::ostringstream out;
  out << "{\"cpu\": \"" << json_escape(cpu_model()) << "\", \"nproc\": "
      << std::thread::hardware_concurrency() << ", \"spmv_isa\": \""
      << patchsec::linalg::spmv_isa_name(patchsec::linalg::spmv_dispatched_isa())
      << "\", \"compiler\": \""
#if defined(__clang__)
      << "clang "
#elif defined(__GNUC__)
      << "gcc "
#endif
      << json_escape(__VERSION__) << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}";
  return out.str();
}

std::string result_json(const Outcome& outcome) {
  std::ostringstream out;
  out << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    out << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << json_number(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

int usage() {
  std::cerr << "usage: perfbench --workload <sweep|patch_window|service_stream|game_grid> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir;
  perfbench::RunOptions options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out-dir") {
      out_dir = value;
    } else {
      return usage();
    }
  }
  if (workload.empty() || !have_seed || !(options.seconds > 0.0)) return usage();

  Outcome outcome;
  try {
    if (workload == "sweep") {
      outcome = perfbench::run_sweep(options);
    } else if (workload == "patch_window") {
      outcome = perfbench::run_patch_window(options);
    } else if (workload == "service_stream") {
      outcome = perfbench::run_service_stream(options);
    } else if (workload == "game_grid") {
      outcome = perfbench::run_game_grid(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " failed: " << e.what() << '\n';
    return 1;
  }

  const std::string machine = machine_json();
  const std::string result = result_json(outcome);
  if (!out_dir.empty()) {
    const std::string stem = out_dir + "/" + workload + "-seed" + std::to_string(options.seed);
    std::ofstream(stem + "-trace" + (options.trace ? "1" : "0") + ".json")
        << "{\"workload\": \"" << workload << "\", \"seed\": " << options.seed
        << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"machine\": " << machine
        << ", \"result\": " << result << "}\n";
    if (options.trace) std::ofstream(stem + "-spans.csv") << outcome.spans_csv;
  }
  std::cout << "machine " << machine << '\n';
  for (const std::string& note : outcome.notes) std::cout << note << '\n';
  std::cout << result << std::endl;
  return 0;
}
