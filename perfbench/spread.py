"""Run-to-run spread of the benchmark's metrics over several seeds.

Runs ``run.py`` once per seed and prints, per metric, the median and the
distance between the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.  A benchmark is steady when every spread except
``setup_s``'s stays below a third of its bound.

Usage: python3 perfbench/spread.py --workload service-mix --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={out['correct']} "
              f"failed={out['failed']}/{out['attempted']}", flush=True)
        for name, metric in out["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        mid = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / mid
        flag = "" if spread < bounds[name] / 3 else "  <-- not below bound/3"
        print(f"{name:14s} median {mid:12.6g}  spread {spread:7.2%}  "
              f"bound {bounds[name]:.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
