#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread, the way its bounds are judged.

Runs dispatchbench/run.py once per seed on each workload and prints, for
every metric, the median and the interquartile range as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. Run from the root of a checkout:

    python3 dispatchbench/steady.py --seeds 1-10
    python3 dispatchbench/steady.py --workloads cityb-day --seeds 1-5 --trace 1

--out FILE also writes every run's metrics as JSON, so two sets taken in
separate sessions can be compared with --compare FILE_A FILE_B (median of
the second set vs the first, as a share of the first, per metric).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d (exit %d)" %
                         (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q = statistics.quantiles(values, n=4)
    return median, (q[2] - q[0]) / abs(median)


def report(runs, bounds):
    by_workload = {}
    for r in runs:
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, rs in by_workload.items():
        shares = sorted({r["failed"] / r["attempted"] for r in rs})
        print("%s: %d runs, failed shares %s" % (workload, len(rs), shares))
        names = list(rs[0]["metrics"])
        for name in names:
            values = [r["metrics"][name]["value"] for r in rs]
            median, iqr = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if iqr < bound / 3 else (
                    "WIDE" if iqr < bound else "OVER")
            print("  %-26s median %14.6g  iqr/median %6.3f  bound %-5s %s" %
                  (name, median, iqr, "-" if bound is None else bound, flag))


def compare(path_a, path_b, bounds):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    better = {m["name"]: m["better"] for m in load_spec()["end_to_end"]}
    for workload in sorted({r["workload"] for r in a}):
        ra = [r for r in a if r["workload"] == workload]
        rb = [r for r in b if r["workload"] == workload]
        if not rb:
            continue
        print(workload)
        for name in ra[0]["metrics"]:
            ma = statistics.median(r["metrics"][name]["value"] for r in ra)
            mb = statistics.median(r["metrics"][name]["value"] for r in rb)
            change = (mb - ma) / abs(ma) if ma else 0.0
            worse = change if better.get(name) == "lower" else -change
            bound = bounds.get(name)
            flag = "" if bound is None else (
                "ok" if worse <= bound else "OVER")
            print("  %-26s %14.6g -> %14.6g  worse by %7.3f  bound %-5s %s" %
                  (name, ma, mb, worse, "-" if bound is None else bound,
                   flag))


def main():
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        compare(args.compare[0], args.compare[1], bounds)
        return
    runs = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            result.update(workload=workload, seed=seed)
            runs.append(result)
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 4)
                 for k, v in result["metrics"].items()})), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    report(runs, bounds)


if __name__ == "__main__":
    main()
