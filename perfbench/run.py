#!/usr/bin/env python3
"""rbcsp benchmark: one workload per run, single process and thread.

    python3 perfbench/run.py --workload sweep_rb2_n20 --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/`` and
exits with status 2, printing no result, when there is none.  Workloads are
defined in ``workloads.py``.  A run repeats batches with fresh seeded inputs
until ``--seconds`` is spent; every batch's outputs are checked (each
workload's ``check``) and, for the seeds pinned in ``goldens/``, the first
batches are compared with the recorded counters and digests.  Any mismatch
is a failed instance.

``--trace 0`` reports the end-to-end metrics, measured untraced:

* ``instances_per_s``: median over batches of instances per second of the
  workload's main call;
* ``setup_s``: median over fresh processes, started at even intervals
  during the run, of the time from process start until the first instance
  can start (imports, then one tiny batch so that any lazy set-up is done);
* ``peak_rss_mb``: peak resident memory of this process.

The two timings are taken at a steady host speed: the reference computation
of ``calibrate.py`` is timed after every batch and probe, and each batch or
probe is scaled by the mean of the reference times on either side of it
over ``REFERENCE_SECONDS``.  The summary line gives the median slowdown and
the unscaled throughput and set-up time.

``--trace 1`` runs every batch twice, untraced and then traced with spans
around each call into the package's public functions (``tracing.py``), and
reports the per-layer metrics of the traced copies; ``trace.overhead_frac``
is traced over untraced wall time minus one.  Layers a workload does not
cross read 0.  Per-instance records (stream index, seed, status, counters,
milliseconds per layer) go to ``perfbench/out/trace-<workload>-<seed>.jsonl``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment fingerprint and the failed fraction.  ``--tiny`` shrinks
every workload to a few small instances, for the smoke test
(``test_bench_smoke.py``).  ``goldens.py`` re-records the goldens and
``baseline.py`` records a trajectory point under ``trajectory/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 11

END_TO_END = [
    ("instances_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("solver.ms_per_instance", "ms"),
    ("solver.us_per_node", "us"),
    ("solver.instance_ms_p50", "ms"),
    ("solver.instance_ms_tail", "ms"),
    ("solver.tail_pct", "%"),
    ("solver.instance_samples", "count"),
    ("solver.share", "frac"),
    ("solver.nodes", "count"),
    ("solver.backtracks", "count"),
    ("solver.censored", "count"),
    ("solver.sat_frac", "frac"),
    ("generator.ms_per_instance", "ms"),
    ("generator.us_per_tuple", "us"),
    ("generator.tuples", "count"),
    ("generator.share", "frac"),
    ("encoder.encode_ms_per_instance", "ms"),
    ("encoder.write_dimacs_ms_per_instance", "ms"),
    ("encoder.write_native_ms_per_instance", "ms"),
    ("encoder.read_native_ms_per_instance", "ms"),
    ("encoder.bytes_written", "B"),
    ("encoder.write_mb_per_s", "MB/s"),
    ("encoder.read_mb_per_s", "MB/s"),
    ("encoder.share", "frac"),
    ("core.check_us_per_instance", "us"),
    ("harness.self_ms_per_instance", "ms"),
    ("cli.self_ms_per_instance", "ms"),
    ("bench.self_ms_per_instance", "ms"),
    ("trace.overhead_frac", "frac"),
]

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class BatchRun:
    index: int
    seed: int
    seconds: float
    outcome: object
    failed: int
    spans: list = field(default_factory=list)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_batch(workload, index: int, seed: int, tiny: bool, workdir: Path, timed: bool) -> BatchRun:
    """Run one batch, check its outputs, and count its failed instances."""
    from tracing import ROOT as ROOT_SPAN, Boundaries

    for module in workload.modules:  # the boundaries wrap only modules already loaded
        importlib.import_module(module)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    bounds = Boundaries(timed=timed)
    try:
        with bounds:
            if timed:
                with bounds.span(ROOT_SPAN) as root:
                    out = workload.main(seed, tiny, workdir, bounds)
                elapsed = root.duration
            else:
                start = time.perf_counter()
                out = workload.main(seed, tiny, workdir, bounds)
                elapsed = time.perf_counter() - start
        outcome = workload.check(seed, tiny, out, bounds)
    except Exception:  # a crash in the program fails the whole batch, the run goes on
        import traceback

        traceback.print_exc(file=sys.stderr)
        return BatchRun(index, seed, 0.0, None, workload.size(tiny))

    problems = list(outcome.failures)
    failed = min(len(problems), outcome.instances)
    expected = workload.expected_spans(outcome)
    crossed = {name: bounds.count(name) for name in expected}
    if crossed != expected:
        problems.append(f"boundary crossings {crossed}, expected {expected}")
        failed = outcome.instances
    for problem in problems[:5]:
        print(f"perfbench: batch {index}: {problem}", file=sys.stderr)
    return BatchRun(index, seed, elapsed, outcome, failed, bounds.spans)


def combine(digests: list[dict]) -> dict:
    """One digest for a run of batches: counts add up, hashes chain."""
    out = {"batches": len(digests)}
    for key, first in digests[0].items():
        values = [d[key] for d in digests]
        if isinstance(first, dict):
            out[key] = {k: sum(v[k] for v in values) for k in first}
        elif isinstance(first, str):
            out[key] = hashlib.sha256("".join(values).encode()).hexdigest()
        else:
            out[key] = sum(values)
    return out


def load_goldens(name: str) -> dict:
    """``{"batches": B, "seeds": {seed: digest of the first B batches}}``."""
    path = HERE / "goldens" / f"{name}.json"
    if not path.is_file():
        return {"batches": 0, "seeds": {}}
    return json.loads(path.read_text(encoding="utf-8"))


def _setup(workload, workdir: Path):
    """Import what the workload's main call needs and run it once at tiny size."""
    from tracing import Boundaries
    from workloads import batch_seed

    for module in workload.modules:
        importlib.import_module(module)
    workdir.mkdir(parents=True, exist_ok=True)
    workload.main(batch_seed(workload.name, 0, 0), True, workdir, Boundaries(timed=False))


def probe_setup(name: str) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to run."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1]) - start


def layer_metrics(runs: list[BatchRun], untraced: list[BatchRun]) -> tuple[dict, list[dict]]:
    """Per-layer metrics and per-instance records from the traced batches."""
    from tracing import ROOT as ROOT_SPAN

    by_layer = defaultdict(float)
    by_name = defaultdict(float)
    per_instance = defaultdict(lambda: defaultdict(float))
    wall = 0.0
    for run in runs:
        for span in run.spans:
            layer = span.name.split(".")[0]
            by_layer[layer] += span.self_time
            by_name[span.name] += span.self_time
            if span.name == ROOT_SPAN:
                wall += span.duration
            if span.key is not None:
                per_instance[(run.index, span.key)][layer] += span.self_time
    if abs(sum(by_layer.values()) - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError("layer self times do not add up to the traced wall time")

    records = [dict(rec, batch=run.index, batch_seed=run.seed,
                    ms={layer: 1e3 * s for layer, s in per_instance[(run.index, rec["seed"])].items()})
               for run in runs for rec in run.outcome.records]
    n = len(records)
    solved = [rec for rec in records if rec["status"] is not None]
    solver_ms = sorted(rec["ms"].get("solver", 0.0) for rec in solved)
    tail_pct = next((p for p in TAIL_PERCENTILES if len(solver_ms) * (1 - p / 100) >= 10), 50.0)
    completed = [rec for rec in solved if rec["status"] != "LIMIT"]
    nodes = sum(rec["nodes"] for rec in records)
    tuples = sum(run.outcome.tuples for run in runs)
    written = sum(run.outcome.bytes_written for run in runs)
    read = sum(run.outcome.bytes_read for run in runs)
    writes = sum(by_name[f"encoder.{w}"] for w in ("write_dimacs", "write_csp_native", "write_solution"))

    def nearest_rank(pct: float) -> float:
        if not solver_ms:
            return 0.0
        return solver_ms[max(0, math.ceil(len(solver_ms) * pct / 100) - 1)]

    values = {
        "solver.ms_per_instance": _ratio(1e3 * by_layer["solver"], n),
        "solver.us_per_node": _ratio(1e6 * by_layer["solver"], nodes),
        "solver.instance_ms_p50": nearest_rank(50.0),
        "solver.instance_ms_tail": nearest_rank(tail_pct),
        "solver.tail_pct": tail_pct if solver_ms else 0.0,
        "solver.instance_samples": len(solver_ms),
        "solver.share": _ratio(by_layer["solver"], wall),
        "solver.nodes": nodes,
        "solver.backtracks": sum(rec["backtracks"] for rec in records),
        "solver.censored": sum(rec["status"] == "LIMIT" for rec in records),
        "solver.sat_frac": _ratio(sum(rec["status"] == "SAT" for rec in completed), len(completed)),
        "generator.ms_per_instance": _ratio(1e3 * by_layer["generator"], n),
        "generator.us_per_tuple": _ratio(1e6 * by_layer["generator"], tuples),
        "generator.tuples": tuples,
        "generator.share": _ratio(by_layer["generator"], wall),
        "encoder.encode_ms_per_instance": _ratio(1e3 * by_name["encoder.encode_cnf"], n),
        "encoder.write_dimacs_ms_per_instance": _ratio(1e3 * by_name["encoder.write_dimacs"], n),
        "encoder.write_native_ms_per_instance": _ratio(1e3 * by_name["encoder.write_csp_native"], n),
        "encoder.read_native_ms_per_instance": _ratio(1e3 * by_name["encoder.read_csp_native"], n),
        "encoder.bytes_written": written,
        "encoder.write_mb_per_s": _ratio(written / 1e6, writes),
        "encoder.read_mb_per_s": _ratio(read / 1e6, by_name["encoder.read_csp_native"]),
        "encoder.share": _ratio(by_layer["encoder"], wall),
        "core.check_us_per_instance": _ratio(1e6 * by_layer["core"], n),
        "harness.self_ms_per_instance": _ratio(1e3 * by_layer["harness"], n),
        "cli.self_ms_per_instance": _ratio(1e3 * by_layer["cli"], n),
        "bench.self_ms_per_instance": _ratio(1e3 * by_layer["bench"], n),
        "trace.overhead_frac": _ratio(wall, sum(run.seconds for run in untraced)) - 1.0,
    }
    return values, records


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            goldens: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns the result object and a summary for the log."""
    from calibrate import REFERENCE_SECONDS, reference_seconds
    from workloads import WORKLOADS, batch_seed

    workload = WORKLOADS[name]
    if goldens is None:
        goldens = {"batches": 0, "seeds": {}} if tiny else load_goldens(name)
    pinned = goldens["batches"]
    golden = goldens["seeds"].get(str(seed))
    workdir = OUT / f"work-{os.getpid()}"
    probes = 0 if trace else 1 if tiny else SETUP_PROBES
    setup, raw_setup = [], []
    host = []  # untraced: the host's slowdown over each batch, reference / REFERENCE_SECONDS
    try:
        _setup(workload, workdir)
        untraced, traced = [], []
        start = time.monotonic()
        index = 0
        reference = 0.0 if trace else reference_seconds()
        while True:
            # spread the set-up probes over the run, so they see the machine as the batches do
            if len(setup) < probes and time.monotonic() - start >= len(setup) * seconds / probes:
                raw_setup.append(probe_setup(name))
                after = reference_seconds()
                setup.append(raw_setup[-1] * 2 * REFERENCE_SECONDS / (reference + after))
                reference = after
            began = time.monotonic()
            bseed = batch_seed(name, seed, index)
            untraced.append(run_batch(workload, index, bseed, tiny, workdir, False))
            if trace:
                traced.append(run_batch(workload, index, bseed, tiny, workdir, True))
            else:
                after = reference_seconds()
                host.append((reference + after) / (2 * REFERENCE_SECONDS))
                reference = after
            index += 1
            now = time.monotonic()
            if index >= pinned and len(setup) == probes and now + (now - began) > start + seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = untraced + traced
    attempted = sum(workload.size(tiny) for _ in runs)
    failed = sum(run.failed for run in runs)
    head = untraced[:pinned]
    digest = None
    if head and not any(run.failed for run in head):
        digest = combine([run.outcome.digest for run in head])
    if golden is not None and digest != golden:
        failed += sum(workload.size(tiny) - run.failed for run in head)
        print(f"perfbench: first {pinned} batches give {digest}, golden {golden}", file=sys.stderr)
    ok = [(run, slow) for run, slow in zip(untraced, host)
          if run.outcome is not None and run.seconds > 0]
    if trace:
        pairs = [(u, t) for u, t in zip(untraced, traced) if u.outcome and t.outcome]
        values, records = layer_metrics([t for _, t in pairs], [u for u, _ in pairs])
        units = dict(PER_LAYER)
        for u, t in pairs:
            if u.outcome.digest != t.outcome.digest:
                failed += t.outcome.instances
                print(f"perfbench: batch {u.index} differs between untraced and traced runs",
                      file=sys.stderr)
    else:
        values = {
            "instances_per_s": statistics.median(
                [run.outcome.instances / run.seconds * slow for run, slow in ok] or [0.0]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        records = []
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }
    summary = {
        "workload": name, "seed": seed, "batches": len(untraced),
        "golden": {"batches": pinned, "digest": digest, "checked": golden is not None},
        "failed_frac": failed / attempted,
        "host_slowdown": statistics.median(host) if host else None,
        "raw_instances_per_s": statistics.median(
            [run.outcome.instances / run.seconds for run, _ in ok] or [0.0]) if host else None,
        "raw_setup_s": statistics.median(raw_setup) if raw_setup else None,
        "env": fingerprint(),
    }
    if trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{name}-{seed}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": summary, "metrics": result["metrics"]}) + "\n")
            for rec in records:
                fh.write(json.dumps(dict(rec, workload=name)) + "\n")
        summary["trace_file"] = str(path.relative_to(ROOT))
    return result, summary


def fingerprint() -> dict:
    import importlib.metadata
    import importlib.util

    import numpy
    from rbcsp import _search

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": importlib.metadata.version("mpmath"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": _search.active_backend(),
        "RBCSP_NO_NUMBA": os.environ.get("RBCSP_NO_NUMBA"),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def use_sources() -> bool:
    """Put the repository's ``src/`` and this directory first on the import path."""
    src = ROOT / "src"
    if not (src / "rbcsp" / "__init__.py").is_file():
        print(f"perfbench: no rbcsp package under {src}", file=sys.stderr)
        return False
    sys.path[:0] = [str(src), str(HERE)]
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few small instances (smoke test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not use_sources():
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.setup_probe:
        workdir = OUT / f"probe-{os.getpid()}"
        try:
            _setup(WORKLOADS[args.workload], workdir)
            ready = time.monotonic()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(ready)
        return 0

    result, summary = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
