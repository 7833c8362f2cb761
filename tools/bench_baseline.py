#!/usr/bin/env python3
"""Validate a bench_throughput JSON report and diff it against the committed
baseline.

The sweep report is deterministic except for wall-clock measurements: the
per-trial RNG streams are a pure function of (base seed, cell, trial), so
every science metric (interactions, parallel_time, stabilized, ...) must
reproduce bit-for-bit on any host at the pinned smoke scale. This script

  1. fails (exit 2) when the report is not parseable JSON or is missing the
     sweep structure — the "malformed JSON" CI gate;
  2. strips the wall-clock metrics (`wall_seconds` and anything derived from
     it) plus timing params, canonicalizes, and byte-compares with
     the baseline (exit 1 on drift);
  3. with --update, rewrites the baseline from the report instead.

Usage:
  tools/bench_baseline.py REPORT [--baseline bench/baselines/BENCH_throughput.json]
  tools/bench_baseline.py REPORT --update
"""

import argparse
import json
import pathlib
import sys

WALL_CLOCK_METRICS = {"wall_seconds", "interactions_per_second", "speedup"}
WALL_CLOCK_PARAMS = {"speedup"}


def canonicalize(report):
    """Drops timing data, keeps every deterministic field, sorts keys."""
    if not isinstance(report, dict) or "cells" not in report:
        raise ValueError("not a sweep report: no top-level 'cells' array")
    for cell in report["cells"]:
        cell["metrics"] = [m for m in cell.get("metrics", [])
                           if m.get("metric") not in WALL_CLOCK_METRICS]
        cell["params"] = {k: v for k, v in cell.get("params", {}).items()
                          if k not in WALL_CLOCK_PARAMS}
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report")
    parser.add_argument("--baseline",
                        default="bench/baselines/BENCH_throughput.json")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the report")
    args = parser.parse_args()

    try:
        with open(args.report) as f:
            canonical = canonicalize(json.load(f))
    except (OSError, ValueError) as e:
        print(f"bench-baseline: malformed report {args.report}: {e}")
        return 2

    baseline_path = pathlib.Path(args.baseline)
    if args.update:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(canonical)
        print(f"bench-baseline: wrote {baseline_path}")
        return 0

    if not baseline_path.is_file():
        print(f"bench-baseline: no baseline at {baseline_path} "
              f"(generate one with --update)")
        return 2
    expected = baseline_path.read_text()
    if canonical == expected:
        print("bench-baseline: report matches the committed baseline")
        return 0
    import difflib
    diff = difflib.unified_diff(expected.splitlines(), canonical.splitlines(),
                                fromfile=str(baseline_path),
                                tofile=args.report, lineterm="", n=2)
    shown = list(diff)[:60]
    print("bench-baseline: DRIFT against the committed baseline "
          "(science metrics changed — if intentional, rerun with --update):")
    print("\n".join(shown))
    return 1


if __name__ == "__main__":
    sys.exit(main())
