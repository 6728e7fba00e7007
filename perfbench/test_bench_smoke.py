"""Smoke test for the benchmark: every workload at tiny size in both modes,
the result schema against ``BENCHMARK.json``, the golden gate, and the
refusal to run without the package sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    summary = json.loads(proc.stdout.splitlines()[-2])
    assert summary["failed_frac"] == 0.0
    assert {"python", "numpy", "mpmath", "numba_importable", "kernel_backend",
            "RBCSP_NO_NUMBA", "cpu_count", "cpu_model", "git_commit"} <= set(summary["env"])
    if trace:
        lines = (ROOT / summary["trace_file"]).read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines[1:]]
        assert records and all({"workload", "stream_index", "seed", "status", "nodes",
                                "backtracks", "ms"} <= set(rec) for rec in records)


def test_wrong_golden_is_a_failure(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run

    name = "forced_rb2_n20"
    unpinned = {"batches": 2, "seeds": {}}
    result, summary = run.measure(name, 5, 0.0, False, tiny=True, goldens=unpinned)
    assert result["correct"] is True and summary["golden"]["checked"] is False
    digest = summary["golden"]["digest"]
    assert digest["batches"] == 2

    right = {"batches": 2, "seeds": {"5": digest}}
    result, summary = run.measure(name, 5, 0.0, False, tiny=True, goldens=right)
    assert result["correct"] is True and summary["golden"]["checked"] is True

    wrong = {"batches": 2, "seeds": {"5": dict(digest, nodes=digest["nodes"] + 1)}}
    result, summary = run.measure(name, 5, 0.0, False, tiny=True, goldens=wrong)
    assert result["correct"] is False
    assert summary["failed_frac"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
