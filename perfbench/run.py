#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The program and the benchmark are built
with CMake into .bench_build/perfbench (first run only; later runs rebuild
what changed). The workload runs in its own process with the program's
thread pool pinned to 2 threads. The last line of standard output is the
result object: {"correct", "attempted", "failed", "metrics"}; with --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. Traced runs also write their spans to
.bench_build/perfbench/traces/<workload>-<seed>.json.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
THREADS = "2"
BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def have_sources():
    src = os.path.join(ROOT, "src")
    for _, _, files in os.walk(src):
        if any(name.endswith(".cc") for name in files):
            return True
    return False


def build():
    """Configures (once) and builds the benchmark, serialized by a lock."""
    if not have_sources():
        fail("no program sources under %s; run from a full checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(cmd))
            if done.returncode != 0:
                fail("build failed: " + " ".join(cmd))


def run(cmd, timeout):
    env = dict(os.environ, CORADD_THREADS=THREADS)
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=env, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))


def check_result(line, spec, trace):
    """The result line must carry exactly the declared metrics, with units."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not JSON: " + line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are " + ", ".join(sorted(result)))
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra or "
             "mis-united %s" % (sorted(set(want) - set(got)),
                                sorted(k for k in got if want.get(k) != got[k])))
    if result["attempted"] < 1:
        fail("nothing attempted")


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not args.self_test and args.workload not in names:
        fail("--workload must be one of " + ", ".join(names))
    build()
    if args.self_test:
        done = run([os.path.join(BUILD, "perfbench_selftest")], 60)
        sys.stdout.write(done.stdout)
        sys.exit(done.returncode)

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-%d.json" % (args.workload, args.seed))]
    # A first build may take minutes; the workload itself needs well under 60 s.
    done = run(cmd, max(60.0, RUN_DEADLINE_S - (time.monotonic() - start)))
    if done.returncode != 0:
        fail("workload exited with code %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("workload printed nothing")
    check_result(lines[-1], spec, bool(args.trace))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
