#!/usr/bin/env python3
"""Repository benchmark: host cost of the CoDS reproduction, by workload and layer.

Builds the measuring program (perfbench/CMakeLists.txt, which compiles the
library sources next to it) into .bench_build/, runs one workload in its own
process, and prints its metrics. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

Workloads: sim_weak, pooled_insitu, modeled_paper, wfgen_faults (see
BENCHMARK.json for why each exists). --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics of a traced run. --selftest runs the span
arithmetic and pin check self-tests, a smoke-sized run of every workload in both modes, a
check that the benchmark's enactment matches wfgen::enact, and a check that a
one-ULP change to a pinned modelled value fails the run.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PINS = os.path.join(HERE, "pins")
WORKLOADS = ("sim_weak", "pooled_insitu", "modeled_paper", "wfgen_faults")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the measuring programs; returns the bin dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the library sources (src/) are missing; nothing to build")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("perfbench: configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr)
    if result.returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return BUILD


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_program(args, pins, timeout=RUN_TIMEOUT_S):
    """Runs the measuring program; returns (exit code, stdout)."""
    command = [os.path.join(BUILD, "perfbench")] + args + ["--pins", pins]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out:", " ".join(command))
        return 1, ""
    return result.returncode, result.stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def measure(args):
    build()
    code, stdout = run_program(
        [args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        os.path.join(PINS, args.workload + ".pins"))
    result = last_json(stdout)
    if result is None:
        sys.stdout.write(stdout)
        log("perfbench: the program printed no result")
        return 1
    names = declared_metrics(args.trace == 1)
    if sorted(result["metrics"]) != sorted(names):
        sys.stdout.write(stdout)
        log("perfbench: printed metrics differ from BENCHMARK.json")
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


def bump_one_ulp(pins_path, out_path, key_part):
    """Copies a pin file with the first double whose key contains key_part
    moved by one ULP; returns the key."""
    with open(pins_path) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        key, value = line.split(" ", 1)
        if key_part in key and value.startswith(("0x", "-0x")):
            bumped = math.nextafter(float.fromhex(value), math.inf)
            lines[i] = key + " " + bumped.hex()
            with open(out_path, "w") as f:
                f.write("\n".join(lines) + "\n")
            return key
    raise RuntimeError("no pinned double matches " + key_part)


def selftest():
    build()
    failures = []

    def check(what, ok):
        log(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    check("span busy/wait split",
          subprocess.run([os.path.join(BUILD, "spans_selftest")],
                         stdout=sys.stderr).returncode == 0)
    check("pin check, missing pins included",
          subprocess.run([os.path.join(BUILD, "pins_selftest")],
                         stdout=sys.stderr).returncode == 0)
    for workload in WORKLOADS:
        pins = os.path.join(PINS, workload + ".pins")
        for trace in (0, 1):
            code, stdout = run_program(
                [workload, "--smoke", "--seed", "3", "--seconds", "0",
                 "--trace", str(trace)], pins)
            result = last_json(stdout)
            check("%s smoke --trace %d" % (workload, trace),
                  code == 0 and result is not None and result["correct"]
                  and sorted(result["metrics"]) == sorted(declared_metrics(trace == 1)))
    code, _ = run_program(["wfgen_faults", "--smoke", "--seed", "3", "--seconds", "0",
                           "--crosscheck"], os.path.join(PINS, "wfgen_faults.pins"))
    check("wfgen_faults enactment equals wfgen::enact", code == 0)
    planted = os.path.join(BUILD, "modeled_paper.ulp.pins")
    key = bump_one_ulp(os.path.join(PINS, "modeled_paper.pins"), planted,
                       "cap.blocked-blocked.dc.app2.retrieve_time")
    code, stdout = run_program(["modeled_paper", "--smoke", "--seconds", "0"], planted)
    result = last_json(stdout)
    check("one-ULP change to pin %s fails the run" % key,
          code != 0 and result is not None and not result["correct"])
    log("self-test: %d failures" % len(failures))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
