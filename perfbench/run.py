#!/usr/bin/env python3
"""Build and run the patchsec benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  It configures and builds perfbench/
(Release, the libraries from the enclosing sources) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs one workload in its own process.  The last line of standard
output is the result JSON; the full record, with the machine block, is also
written under <build>/results/.  With --workload all it runs the four
workloads in turn, each in its own process, and prints every metric by name
with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("sweep", "patch_window", "service_stream", "game_grid")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def cached_source(build_dir):
    """The source directory an existing CMake cache was configured for."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt"), encoding="utf-8") as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(source_dir, build_dir):
    """Configure (first time) and build the perfbench target; True on success."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if cached_source(build_dir) != source_dir:
        steps.append(["cmake", "-S", source_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "3"])
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, check=False).returncode:
                log.flush()
                with open(log_path, encoding="utf-8") as read_back:
                    sys.stderr.write("".join(read_back.readlines()[-40:]))
                return False
    return True


def run_workload(build_dir, workload, args):
    """Run one workload in its own process; its output lines, or None."""
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", results_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} exceeded {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last output line is not the result JSON")
        return None
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result JSON has unexpected keys")
        return None
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all four in turn (a metric table)")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src", "core"))):
        return fail("no patchsec sources here; run from the root of a checkout")
    source_dir = os.path.join(root, "perfbench")
    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    if not build(source_dir, build_dir):
        return fail("build failed (log in " + os.path.join(build_dir, "build.log") + ")")

    if args.workload != "all":
        lines = run_workload(build_dir, args.workload, args)
        if lines is None:
            return 1
        print("\n".join(lines))
        return 0

    status = 0
    for workload in WORKLOADS:
        lines = run_workload(build_dir, workload, args)
        if lines is None:
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {workload:<15} {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
