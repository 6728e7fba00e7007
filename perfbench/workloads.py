"""The benchmark's workloads: seeded inputs, the timed main call, and the
output checks.

A run is a sequence of batches.  Batch ``b`` of a run with seed ``s`` gets
its own 64-bit base seed (:func:`batch_seed`), and that base seed is all the
program receives besides fixed parameters; everything else (instance seeds,
file contents) the program derives itself.  Each workload's ``main`` is the
timed call; its ``check`` then verifies the outputs, untimed, and returns
the batch's deterministic digest, which ``goldens/<workload>.json`` pins for
the seeds recorded there.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

NODE_LIMIT = 10_000_000
SWEEP_FACTORS = tuple(0.5 + 0.1 * j for j in range(11))  # the grid of acceptance test 08


def p_threshold(alpha: float, r: float) -> float:
    """p_cr = 1 - e^(-alpha/r), as the paper defines it."""
    return -math.expm1(-alpha / r)


def r_threshold(alpha: float, p: float) -> float:
    """r_cr = -alpha / ln(1 - p)."""
    return -alpha / math.log1p(-p)


def batch_seed(workload: str, seed: int, batch: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{batch}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class Outcome:
    """What :meth:`Workload.check` found in one batch."""

    instances: int
    digest: dict
    failures: list[str] = field(default_factory=list)  # one entry per failed instance
    records: list[dict] = field(default_factory=list)  # per instance, no timing
    tuples: int = 0  # forbidden tuples generated
    bytes_written: int = 0
    bytes_read: int = 0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class HarnessWorkload:
    """Solve seeded instances through ``harness.sweep`` or
    ``harness.scaling_study``; instance ``i`` of point ``j`` uses stream
    index ``j * samples + i`` of the batch seed."""

    name: str
    why: str
    experiment: str  # "sweep" or "scale"
    model: str
    k: int
    n: int
    alpha: float
    r: float
    factors: tuple[float, ...]  # p = factor * p_cr at each point
    samples: int
    forced: bool
    tiny_n: int
    tiny_samples: int
    modules = ("rbcsp.harness",)

    def size(self, tiny: bool) -> int:
        return len(self.factors) * (self.tiny_samples if tiny else self.samples)

    def _points(self, tiny: bool):
        from rbcsp.core import CspParams, ModelKind

        p_cr = p_threshold(self.alpha, self.r)
        base = CspParams(ModelKind(self.model), self.k, self.tiny_n if tiny else self.n,
                         self.alpha, self.r, p_cr)
        values = tuple(p_cr * f for f in self.factors)
        return base, values, self.tiny_samples if tiny else self.samples

    def main(self, seed: int, tiny: bool, workdir: Path, bounds):
        from rbcsp import harness

        base, values, samples = self._points(tiny)
        if self.experiment == "sweep":
            spec = harness.SweepSpec(base=base, axis="p", values=values,
                                     samples_per_point=samples, base_seed=seed,
                                     node_limit=NODE_LIMIT, forced=self.forced)
            return harness.sweep(spec)
        return harness.scaling_study(base=base, n_values=(base.n,), samples=samples,
                                     base_seed=seed, node_limit=NODE_LIMIT, forced=self.forced)

    def expected_spans(self, outcome: Outcome) -> dict[str, int]:
        sat = sum(rec["status"] == "SAT" for rec in outcome.records)
        return {
            "harness.sweep" if self.experiment == "sweep" else "harness.scaling_study": 1,
            "generator.generate": outcome.instances,
            "solver.solve_csp": outcome.instances,
            "core.check_assignment": sat,  # solve_csp checks each witness
        }

    def check(self, seed: int, tiny: bool, out, bounds) -> Outcome:
        from rbcsp import harness
        from rbcsp.core import check_assignment
        from rbcsp.rng import derive_stream
        from rbcsp.solver import SolveStatus

        base, values, samples = self._points(tiny)
        expected = len(values) * samples
        gens = bounds.calls.get("generator.generate", [])
        solves = bounds.calls.get("solver.solve_csp", [])
        if len(gens) != expected or len(solves) != expected:
            return Outcome(expected, {}, [f"{len(gens)} generate / {len(solves)} solve_csp "
                                          f"calls, expected {expected}"] * expected)
        if self.experiment == "sweep":
            rows = [(rec.axis_value, rec) for rec in out]
            csv = harness.sweep_csv(out)
        else:
            rows = [(values[0], rec) for _, rec in out]
            csv = harness.scaling_csv(out)

        outcome = Outcome(expected, {})
        statuses = {"SAT": 0, "UNSAT": 0, "LIMIT": 0}
        nodes = backtracks = 0
        for idx, (((request,), instance), ((solved, *_), res)) in enumerate(zip(gens, solves)):
            j = idx // samples
            status = res.status.value
            statuses[status] += 1
            nodes += res.nodes
            backtracks += res.backtracks
            outcome.tuples += sum(len(con.incompatible) for con in instance.constraints)
            outcome.records.append({"stream_index": idx, "seed": instance.seed, "status": status,
                                    "nodes": res.nodes, "backtracks": res.backtracks})
            problems = []
            if (request.seed != derive_stream(seed, idx) or request.forced != self.forced
                    or instance.params != dataclasses.replace(base, p=values[j])):
                problems.append("instance not drawn from its stream and point")
            if solved.seed != instance.seed:
                problems.append("solved a different instance than generated")
            if res.status is SolveStatus.SAT and not check_assignment(instance, res.witness).satisfied:
                problems.append("SAT witness violates a constraint")
            if self.forced:
                if instance.forced is None or not check_assignment(instance, instance.forced).satisfied:
                    problems.append("hidden assignment violates a constraint")
                if res.status is not SolveStatus.SAT:
                    problems.append(f"forced instance came back {status}")
            if problems:
                outcome.failures.append(f"stream {idx}: " + "; ".join(problems))

        if len(rows) != len(values):
            outcome.failures.extend([f"{len(rows)} CSV rows for {len(values)} points"] * expected)
        for j, ((value, rec), want) in enumerate(zip(rows, values)):
            point = [res for _, res in solves[j * samples:(j + 1) * samples]]
            completed = [res for res in point if res.status is not SolveStatus.LIMIT]
            sat = sum(res.status is SolveStatus.SAT for res in completed)
            if (value != want or rec.samples != samples
                    or rec.censored != samples - len(completed)
                    or (completed and rec.sat_fraction != sat / len(completed))
                    or (len(completed) == samples
                        and rec.median_nodes != statistics.median(r.nodes for r in point))):
                outcome.failures.extend([f"point {j}: CSV row disagrees with its runs"] * samples)

        outcome.digest = {"nodes": nodes, "backtracks": backtracks, "status": statuses,
                          "csv_sha256": _sha256(csv)}
        return outcome


@dataclass(frozen=True)
class GenIoWorkload:
    """``rbcsp gen --forced --format both --emit-solution`` of one instance into
    a scratch directory, then the ``.csp`` read back and the ``.solution``
    checked against it."""

    name: str
    why: str
    n: int
    alpha: float
    p: float
    tiny_n: int
    modules = ("rbcsp.cli",)

    def size(self, tiny: bool) -> int:
        return 1

    def main(self, seed: int, tiny: bool, workdir: Path, bounds):
        from rbcsp import cli, core, encoder

        out_dir = workdir / "gen"
        argv = ["gen", "--model", "rb", "--k", "2", "--n", str(self.tiny_n if tiny else self.n),
                "--alpha", repr(self.alpha), "--r", repr(r_threshold(self.alpha, self.p)),
                "--p", repr(self.p), "--seed", str(seed), "--forced", "--format", "both",
                "--emit-solution", "--out-dir", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.cli_main(argv)
        csps = list(out_dir.glob("*.csp"))
        if len(csps) != 1:
            return code, out_dir, None
        bounds.key = seed
        instance = encoder.read_csp_native(csps[0].read_text(encoding="utf-8"))
        lines = csps[0].with_suffix(".solution").read_text(encoding="utf-8").split("\n")
        hidden = core.Assignment(tuple(int(line.split()[1]) - 1 for line in lines if line))
        return code, out_dir, (instance, hidden, core.check_assignment(instance, hidden))

    def expected_spans(self, outcome: Outcome) -> dict[str, int]:
        per_instance = ("generator.generate", "encoder.encode_cnf", "encoder.write_dimacs",
                        "encoder.write_csp_native", "encoder.write_solution",
                        "encoder.read_csp_native", "core.check_assignment")
        return {"cli.cli_main": 1, **{name: outcome.instances for name in per_instance}}

    def check(self, seed: int, tiny: bool, out, bounds) -> Outcome:
        code, out_dir, read_back = out
        gens = bounds.calls.get("generator.generate", [])
        files = sorted(out_dir.iterdir())
        blob = b"".join(f.name.encode() + f.read_bytes() for f in files)
        outcome = Outcome(1, {"gen_sha256": hashlib.sha256(blob).hexdigest()})
        outcome.bytes_written = sum(f.stat().st_size for f in files)
        outcome.bytes_read = sum(f.stat().st_size for f in files if f.suffix == ".csp")
        if code != 0 or read_back is None or len(gens) != 1 or len(files) != 3:
            outcome.failures = [f"gen exited {code}, wrote {[f.name for f in files]}"]
            return outcome
        ((request,), written), = gens
        instance, hidden, report = read_back
        outcome.tuples = sum(len(con.incompatible) for con in written.constraints)
        outcome.digest["tuples"] = outcome.tuples
        outcome.records.append({"stream_index": 0, "seed": seed, "status": None,
                                "nodes": 0, "backtracks": 0})
        problems = []
        if request.seed != seed or not request.forced:
            problems.append("instance not drawn from the given seed")
        if (instance.params, instance.sizes, instance.constraints, instance.seed) != (
                written.params, written.sizes, written.constraints, written.seed):
            problems.append("read-back instance differs from the written one")
        if hidden != written.forced or not report.satisfied:
            problems.append("hidden assignment lost or violates a constraint")
        cnf = [f for f in files if f.suffix == ".cnf"]
        if not cnf or _cnf_header(cnf[0]) != _cnf_counts(written):
            problems.append("DIMACS header disagrees with the instance")
        if problems:
            outcome.failures.append("; ".join(problems))
        return outcome


def _cnf_header(path: Path) -> tuple[int, int] | None:
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("p cnf"):
                _, _, num_vars, num_clauses = line.split()
                return int(num_vars), int(num_clauses)
    return None


def _cnf_counts(instance) -> tuple[int, int]:
    """Direct encoding: n*d variables; one domain clause per variable, d(d-1)/2
    at-most-one clauses per variable, one conflict clause per forbidden tuple."""
    n, d = instance.params.n, instance.sizes.d
    conflicts = sum(len(con.incompatible) for con in instance.constraints)
    return n * d, n + n * d * (d - 1) // 2 + conflicts


WORKLOADS = {w.name: w for w in (
    HarnessWorkload(
        name="sweep_rb2_n20",
        why="the paper's phase-transition sweep: random RB k=2 n=20 over (0.5..1.5)p_cr, "
            "generator-bound easy ends around a kernel-bound peak",
        experiment="sweep", model="rb", k=2, n=20, alpha=0.8, r=1.5, factors=SWEEP_FACTORS,
        samples=4, forced=False, tiny_n=8, tiny_samples=1,
    ),
    HarnessWorkload(
        name="forced_rb2_n20",
        why="forced-instance hardness: forced RB k=2 n=20 at p_cr through the scaling "
            "study, where the search kernel does most of the work",
        experiment="scale", model="rb", k=2, n=20, alpha=0.8, r=1.5, factors=(1.0,),
        samples=8, forced=True, tiny_n=10, tiny_samples=1,
    ),
    HarnessWorkload(
        name="rd3_n10",
        why="the only arity-3 kernel path and RD coin-walk generator: random RD k=3 n=10 "
            "r=1 at p_cr, a mix of SAT and UNSAT",
        experiment="sweep", model="rd", k=3, n=10, alpha=0.8, r=1.0, factors=(1.0,),
        samples=12, forced=False, tiny_n=7, tiny_samples=1,
    ),
    GenIoWorkload(
        name="gen_io_rb2_n59",
        why="the paper's benchmark point d=26 m=669 q=169 written as DIMACS, native and "
            "solution files and read back: generator and encoder, no solver",
        n=59, alpha=0.8, p=0.25, tiny_n=12,
    ),
)}
