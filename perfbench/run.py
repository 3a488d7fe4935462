#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload stream-200k --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the libraries under src/, fixedpart-worker and
the fpbench driver) into $CARGO_TARGET_DIR, default .bench_build; later
calls rebuild incrementally. The driver's stdout is passed through after
its last line, the result object, has been checked against the metric
names in BENCHMARK.json. Build output goes to stderr. Any failure exits
non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Limit for one measured run; a run must end within 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no src/CMakeLists.txt next to perfbench/: not a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last output line is not the result object")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are not correct/attempted/failed/metrics")
    if list(result["metrics"]) != expected_metrics(trace):
        fail("result metrics differ from BENCHMARK.json")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("result attempted < 1")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so the driver is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    build(build_dir)

    command = [str(build_dir / "bin" / "fpbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", str(build_dir / "work"),
               "--trace-dir", str(build_dir / "traces")]
    # Its own process group, so the worker processes it forks go with it.
    driver = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        stdout, _ = driver.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.wait()
        # The driver removes its scratch directory only when it exits itself.
        shutil.rmtree(build_dir / "work" / f"{args.workload}-{driver.pid}",
                      ignore_errors=True)
        fail(f"run stopped after {RUN_TIMEOUT_S} s or by a signal")
    if driver.returncode != 0:
        fail(f"fpbench exited {driver.returncode}")
    lines = stdout.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace == "1")
    sys.stdout.write(stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
