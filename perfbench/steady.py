#!/usr/bin/env python3
"""Steadiness report: runs workloads over several seeds and checks that the
benchmark's figures are steady and its exact counts repeat.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--out report.json] [--compare earlier.json]

For every workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. A spread
above a third of the metric's bound is flagged. The exact counts each run prints before its result
(design_sim_s, mv.*, solver.nodes, solver.solves, discovery.dependencies,
ilp.kept_ratio, ...) must be identical in every run; any that drift are
flagged. Every run must report correct with zero failed operations.

--compare takes an earlier --out file and flags every metric whose median
got worse than the earlier one by more than its bound.

Exits 1 when anything is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Timings printed on the counts line beside the exact counts: their spread
# is reported, and they are not expected to repeat.
TIMING_COUNTS = {"serve_p99_ms", "serve_samples", "write_p50_ms",
                 "write_p95_ms", "write_samples", "writer_share",
                 "host_steal_share", "raw_setup_s", "raw_op_p50_ms",
                 "raw_op_per_s"}


def spread(values):
    """Interquartile distance as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return None
    lines = done.stdout.strip().splitlines()
    counts = json.loads(lines[-2])["counts"] if len(lines) >= 2 else {}
    return json.loads(lines[-1]), counts


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()

    flags = []
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            got = run_once(workload, seed, args.seconds)
            if got is None:
                flags.append("%s seed %d: run failed" % (workload, seed))
                continue
            result, counts = got
            if not result["correct"] or result["failed"] != 0:
                flags.append("%s seed %d: %d of %d operations failed" %
                             (workload, seed, result["failed"], result["attempted"]))
            runs.append((seed, result, counts))
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: v["value"] for k, v in result["metrics"].items()})), flush=True)
        if not runs:
            continue
        entry = report.setdefault(workload, {"metrics": {}, "counts": {}})
        print("\n%-11s %-14s %14s %8s %8s" % (workload, "metric", "median",
                                               "spread", "bound"))
        for m in spec["end_to_end"]:
            values = [r[1]["metrics"][m["name"]]["value"] for r in runs]
            med, spr = statistics.median(values), spread(values)
            entry["metrics"][m["name"]] = {"median": med, "spread": spr,
                                           "values": values}
            mark = ""
            if spr > m["bound"] / 3:
                mark = "  <-- spread above bound/3"
                flags.append("%s %s: spread %.4f > %.4f" %
                             (workload, m["name"], spr, m["bound"] / 3))
            print("%-11s %-14s %14.6g %8.4f %8.3f%s" %
                  (workload, m["name"], med, spr, m["bound"], mark))
        for name in sorted(runs[0][2]):
            values = [r[2].get(name) for r in runs]
            entry["counts"][name] = values
            if name in TIMING_COUNTS:
                nums = [v for v in values if v is not None]
                print("%-11s %-26s median %.6g spread %.4f" %
                      (workload, name, statistics.median(nums), spread(nums)))
            elif len(set(values)) != 1:
                flags.append("%s count %s drifted: %s" % (workload, name, values))
        print(flush=True)

    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
        for workload, entry in report.items():
            for m in spec["end_to_end"]:
                before = earlier.get(workload, {}).get("metrics", {}).get(m["name"])
                if before is None:
                    continue
                now, was = entry["metrics"][m["name"]]["median"], before["median"]
                worse = (now - was) / was if m["better"] == "lower" else (was - now) / was
                print("%-11s %-14s %14.6g -> %-14.6g worse by %+.4f (bound %.3f)" %
                      (workload, m["name"], was, now, worse, m["bound"]))
                if worse > m["bound"]:
                    flags.append("%s %s: median worse by %.4f" %
                                 (workload, m["name"], worse))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    for flag in flags:
        print("FLAG: " + flag)
    print("steady" if not flags else "%d flag(s)" % len(flags))
    sys.exit(1 if flags else 0)


if __name__ == "__main__":
    main()
