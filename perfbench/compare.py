#!/usr/bin/env python3
"""Collects sets of benchmark runs and compares them against the bounds.

    python3 perfbench/compare.py collect OUT [--runs 10] [--seed0 1]
                                 [--workload W ...] [--trace 0|1]
    python3 perfbench/compare.py report A [B]

`collect` runs perfbench/run.py once per seed (seed0, seed0+1, ...) for each
workload and appends each result line to OUT/<workload>.trace<T>.jsonl.

`report` prints, per workload and metric, the median and quartiles of each
set and the spread (q3 - q1) / median. With one set it marks end-to-end
metrics whose spread exceeds a third of their bound ("unsteady"). With two
sets it also prints B's median against A's as a share in the metric's worse
direction, and a verdict: "worse" when that exceeds the bound, "unresolved"
when either set's spread exceeds the bound (unless every run of B beats every
run of A), otherwise "ok". The spread of setup_s is not gated, only its
median. Exit status 1 when any verdict is "worse" or "unresolved", or any
run in a set was incorrect.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNGATED_SPREAD = {"setup_s"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(out, runs, seed0, workloads, trace):
    spec = load_spec()
    os.makedirs(out, exist_ok=True)
    names = workloads or [w["name"] for w in spec["workloads"]]
    ok = True
    for name in names:
        path = os.path.join(out, "%s.trace%d.jsonl" % (name, trace))
        for seed in range(seed0, seed0 + runs):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: exit %d" % (name, seed, proc.returncode))
                ok = False
                if not lines:
                    continue
            with open(path, "a") as f:
                f.write(lines[-1] + "\n")
            print("%s seed %d: %s" % (name, seed, lines[-1][:160]))
    return 0 if ok else 1


def load_set(directory):
    """{(workload, trace): [result, ...]}"""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.trace*.jsonl"))):
        base = os.path.basename(path)[:-len(".jsonl")]
        workload, trace = base.rsplit(".trace", 1)
        with open(path) as f:
            runs[(workload, int(trace))] = [json.loads(l) for l in f if l.strip()]
    return runs


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def worse_share(a_med, b_med, better):
    """How much worse B's median is than A's, as a share of A's (<0: better)."""
    if a_med == 0:
        return 0.0 if b_med == 0 else float("inf")
    delta = (b_med - a_med) / abs(a_med)
    return delta if better == "lower" else -delta


def all_better(a_vals, b_vals, better):
    if better == "lower":
        return max(b_vals) < min(a_vals)
    return min(b_vals) > max(a_vals)


def fmt(v):
    return "%.6g" % v


def report(a_dir, b_dir):
    spec = load_spec()
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a_runs = load_set(a_dir)
    b_runs = load_set(b_dir) if b_dir else {}
    status = 0
    for key in sorted(a_runs):
        workload, trace = key
        a = a_runs[key]
        b = b_runs.get(key, [])
        bad = [r for r in a + b if not r.get("correct")]
        print("== %s (trace %d): %d runs%s%s" % (
            workload, trace, len(a), "" if not b_dir else " vs %d" % len(b),
            "  INCORRECT RUNS: %d" % len(bad) if bad else ""))
        if bad:
            status = 1
        header = "  %-34s %12s %12s %12s %7s" % ("metric", "median", "q1",
                                                 "q3", "spread")
        if b:
            header += " | %12s %7s %8s %6s  %s" % ("B median", "spread",
                                                  "worse", "bound", "verdict")
        else:
            header += " %6s" % "bound"
        print(header)
        names = sorted({n for r in a for n in r["metrics"]})
        for name in names:
            meta = declared.get(name, {"better": "lower"})
            bound = meta.get("bound")
            a_vals = [r["metrics"][name]["value"] for r in a
                      if name in r["metrics"]]
            med, q1, q3, spread = stats(a_vals)
            line = "  %-34s %12s %12s %12s %6.1f%%" % (
                name, fmt(med), fmt(q1), fmt(q3), 100 * spread)
            gated = bound is not None and name not in UNGATED_SPREAD
            if not b:
                line += " %6s" % ("-" if bound is None else fmt(bound))
                if gated and spread > bound / 3:
                    line += "  unsteady"
                print(line)
                continue
            b_vals = [r["metrics"][name]["value"] for r in b
                      if name in r["metrics"]]
            if not b_vals:
                print(line + " | missing in B")
                status = 1
                continue
            b_med, _bq1, _bq3, b_spread = stats(b_vals)
            worse = worse_share(med, b_med, meta["better"])
            verdict = ""
            if bound is not None:
                if gated and max(spread, b_spread) > bound and \
                        not all_better(a_vals, b_vals, meta["better"]):
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "worse"
                else:
                    verdict = "ok"
                if verdict != "ok":
                    status = 1
            line += " | %12s %6.1f%% %7.1f%% %6s  %s" % (
                fmt(b_med), 100 * b_spread, 100 * worse,
                "-" if bound is None else fmt(bound), verdict)
            print(line)
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--seed0", type=int, default=1)
    c.add_argument("--workload", action="append")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r = sub.add_parser("report")
    r.add_argument("a")
    r.add_argument("b", nargs="?")
    args = ap.parse_args(argv)
    if args.cmd == "collect":
        return collect(args.out, args.runs, args.seed0, args.workload,
                       args.trace)
    return report(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
