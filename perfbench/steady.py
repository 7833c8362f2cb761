#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and summarises each metric.

Usage, from the root of a ppsim checkout:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--workloads a,b] [--json FILE]

Each run goes through perfbench/run.py with its own seed (first-seed,
first-seed + 1, ...) and --trace 0. For every end-to-end metric the tool
prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), and the spread: (q3 - q1) / median. A metric is flagged UNSTEADY when its spread
exceeds 0.1, and its line also shows the bound BENCHMARK.json gives it and
whether the spread is below a third of that bound. --json writes the raw
values, the summaries and the host fingerprint, which perfbench/compare.py
reads. Exits 1 when any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STEADY_SPREAD = 0.1


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    bdir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    full = os.path.join(bdir, "results", f"{workload}-seed{seed}-trace0.json")
    with open(full) as fh:
        record = json.load(fh)
    return result, record


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--json", default="")
    args = ap.parse_args()

    defs = bench["end_to_end"]
    summary = {"seconds": args.seconds, "fingerprint": None, "workloads": {}}
    failed_runs = 0
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in defs}
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        for seed in seeds:
            got = run_once(workload, seed, args.seconds)
            if got is None or not got[0]["correct"]:
                failed_runs += 1
                print(f"{workload} seed {seed}: FAILED", flush=True)
                continue
            result, record = got
            fp = {k: v for k, v in record["fingerprint"].items() if k != "commit"}
            if summary["fingerprint"] is None:
                summary["fingerprint"] = record["fingerprint"]
            elif fp != {k: v for k, v in summary["fingerprint"].items() if k != "commit"}:
                sys.exit("perfbench: the host or build fingerprint changed between runs")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={result['metrics'][n]['value']:.6g}" for n in values), flush=True)
        entry = {}
        print(f"\n{workload} ({len(values[defs[0]['name']])} runs, {args.seconds} s each)")
        print(f"  {'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'bound':>7}  verdict")
        for m in defs:
            vals = values[m["name"]]
            if not vals:
                continue
            s = summarise(vals)
            bound = m["bound"]
            verdict = "UNSTEADY" if s["spread"] > STEADY_SPREAD else "steady"
            verdict += ", < bound/3" if s["spread"] < bound / 3 else ", >= bound/3"
            print(f"  {m['name']:<34}{s['median']:14.6g}{s['q1']:14.6g}{s['q3']:14.6g}"
                  f"{s['spread']:9.4f}{bound:7.2f}  {verdict}")
            entry[m["name"]] = dict(s, values=vals, unit=m["unit"], better=m["better"],
                                    bound=bound)
        summary["workloads"][workload] = entry
        print(flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1)
    sys.exit(1 if failed_runs else 0)


if __name__ == "__main__":
    main()
