#!/usr/bin/env python3
"""Compares two steadiness summaries written by perfbench/steady.py --json.

Usage:

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) when the two summaries come from different hosts or
builds: every fingerprint field except the commit must match. For each
workload and metric in both, it prints the base and new medians, the
change as a share of the base median (positive = worse, whichever way the
metric improves), the base's own spread, and a verdict:

  REGRESSION  worse than the base by more than the metric's bound
  better      better by more than the base's spread
  worse       worse by more than the base's spread, within the bound
  same        within the base's spread

Exits 1 when any metric regressed. A verdict from medians alone is not a claimed gain:
that needs alternating paired runs (see perfbench/README.md).
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as fh:
        base = json.load(fh)
    with open(sys.argv[2]) as fh:
        new = json.load(fh)

    def host(summary):
        return {k: v for k, v in (summary.get("fingerprint") or {}).items() if k != "commit"}

    if not host(base) or host(base) != host(new):
        print("perfbench: refusing to compare results from different hosts or builds",
              file=sys.stderr)
        for key in sorted(set(host(base)) | set(host(new))):
            a, b = host(base).get(key), host(new).get(key)
            if a != b:
                print(f"  {key}: {a!r} vs {b!r}", file=sys.stderr)
        sys.exit(2)
    if base.get("seconds") != new.get("seconds"):
        print("perfbench: the two summaries used different run lengths",
              file=sys.stderr)
        sys.exit(2)

    print(f"base commit {base['fingerprint'].get('commit')}, "
          f"new commit {new['fingerprint'].get('commit')}")
    regressions = 0
    for workload, metrics in base["workloads"].items():
        if workload not in new["workloads"]:
            continue
        print(f"\n{workload}")
        print(f"  {'metric':<34}{'base':>14}{'new':>14}{'change':>9}{'spread':>9}  verdict")
        for name, b in metrics.items():
            n = new["workloads"][workload].get(name)
            if n is None or not b["median"]:
                continue
            change = (n["median"] - b["median"]) / abs(b["median"])
            if b["better"] == "higher":
                change = -change
            if change > b["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif change < -b["spread"]:
                verdict = "better"
            elif change > b["spread"]:
                verdict = "worse"
            else:
                verdict = "same"
            print(f"  {name:<34}{b['median']:14.6g}{n['median']:14.6g}"
                  f"{change:+9.3f}{b['spread']:9.3f}  {verdict}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
