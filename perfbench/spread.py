#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload query --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, at the
``run_seconds`` of ``BENCHMARK.json`` and untraced, and prints
per end-to-end metric the median, the quartiles, and the interquartile
distance as a share of the median next to the metric's bound in
``BENCHMARK.json``.  Use it to check that a change to the benchmark
keeps every spread well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode or not result["correct"]:
            print(f"seed {seed}: exit {out.returncode}, correct={result['correct']}")
            return 1
        row = {name: m["value"] for name, m in result["metrics"].items()}
        report = json.loads("\n".join(out.stdout.strip().splitlines()[:-1]))
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in row.items())
              + f"  [calibration_ms={report['calibration_ms']:.1f}]", flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = quartile_spread(vals)
        bound = bounds.get(name)
        print(f"{name:>24}: median {median:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
              f"spread {spread:.3f}" + (f"  bound {bound}" if bound else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
