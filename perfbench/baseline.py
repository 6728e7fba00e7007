#!/usr/bin/env python3
"""Record a point of the bench trajectory: every workload over a range of
seeds, each run in a fresh process, one after another.

    python3 perfbench/baseline.py --seeds 0-9 --out perfbench/trajectory/BENCH_seed.json

For each workload and end-to-end metric it stores the ten values, their
median and quartiles (``statistics.quantiles(n=4)``), and the spread
``(q3 - q1) / median`` next to the metric's bound from ``BENCHMARK.json``.
One traced run per workload, at the first seed, adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    *_, summary, result = proc.stdout.splitlines()
    return json.loads(result), json.loads(summary)


def main(argv=None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range a-b")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"run_seconds": spec["run_seconds"], "seeds": [first, last], "workloads": {}}
    for name in args.workloads.split(","):
        values = {metric: [] for metric in bounds}
        attempted = failed = 0
        for seed in range(first, last + 1):
            result, summary = bench(name, seed, spec["run_seconds"], 0)
            report["env"] = summary["env"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        stats = {}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            stats[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[metric], "values": vals}
            print(f"{name:16} {metric:16} median {median:12.5g}  spread {spread:6.3f}"
                  f"  bound {bounds[metric]}", file=sys.stderr)
        traced, _ = bench(name, first, spec["run_seconds"], 1)
        report["workloads"][name] = {
            "attempted": attempted, "failed": failed, "end_to_end": stats,
            "per_layer": {key: m["value"] for key, m in traced["metrics"].items()},
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
