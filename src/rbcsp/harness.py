"""Experiment drivers: transition sweeps, hardness scaling, forced-vs-random
comparison.  Everything is seeded through :func:`rbcsp.rng.derive_stream`
(instance i of grid point j uses stream index ``j * samples + i``), so a
re-run with the same spec reproduces identical CSV bytes.

Cost statistics use medians first (search costs at the threshold are heavy
tailed); means are reported alongside.  Runs stopped by the node limit are
"censored": they are counted separately, and excluded from the median only
while they are fewer than half the samples (past that the median of all
runs, a censored one counting ``node_limit + 1`` nodes, is reported as a
lower bound).  ``sat_fraction`` is taken over completed runs only.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from dataclasses import dataclass

from .core import CspParams, InsufficientSamplesError, ParameterError
from .generator import GenRequest, generate
from .rng import derive_stream
from .solver import SolveConfig, SolveResult, SolveStatus, solve_csp

__all__ = [
    "SweepSpec",
    "ExperimentRecord",
    "sweep",
    "sweep_csv",
    "crossing_estimate",
    "scaling_study",
    "scaling_csv",
    "forced_vs_random",
]


@dataclass(frozen=True)
class SweepSpec:
    base: CspParams
    axis: str
    values: tuple[float, ...]
    samples_per_point: int
    base_seed: int
    node_limit: int
    forced: bool = False
    heuristic: str = "mrv"

    def __post_init__(self):
        if self.axis not in ("p", "r"):
            raise ParameterError(f"axis must be 'p' or 'r', got {self.axis!r}")
        if not self.values:
            raise ParameterError("sweep needs at least one axis value")
        if list(self.values) != sorted(self.values):
            raise ParameterError("axis values must be sorted ascending")


@dataclass(frozen=True)
class ExperimentRecord:
    axis_value: float
    sat_fraction: float
    median_nodes: float
    mean_nodes: float
    censored: int
    samples: int


def _point_stats(axis_value: float, results: list[SolveResult]) -> ExperimentRecord:
    samples = len(results)
    completed = [res for res in results if res.status is not SolveStatus.LIMIT]
    censored = samples - len(completed)
    if completed:
        sat_fraction = sum(res.status is SolveStatus.SAT for res in completed) / len(completed)
        mean_nodes = statistics.fmean(res.nodes for res in completed)
    else:
        sat_fraction = math.nan
        mean_nodes = math.nan
    if censored < samples / 2 and completed:
        median_nodes = statistics.median(res.nodes for res in completed)
    else:
        median_nodes = statistics.median(res.nodes for res in results)
    return ExperimentRecord(
        axis_value=axis_value,
        sat_fraction=sat_fraction,
        median_nodes=float(median_nodes),
        mean_nodes=float(mean_nodes),
        censored=censored,
        samples=samples,
    )


def _runs(params: CspParams, forced: bool, seeds, cfg: SolveConfig):
    """Generate and solve one instance per seed, lazily.  The only place the
    harness calls ``generate`` and ``solve_csp``."""
    for seed in seeds:
        yield solve_csp(generate(GenRequest(params=params, seed=seed, forced=forced)), cfg)


def _grid(points, samples: int, base_seed: int, node_limit: int, forced: bool,
          heuristic: str) -> list[ExperimentRecord]:
    """One record per ``(axis_value, params)`` point; run i of point j
    uses stream ``j * samples + i``."""
    if samples < 1:
        raise ParameterError(f"samples per point must be >= 1, got {samples}")
    cfg = SolveConfig(node_limit=node_limit, heuristic=heuristic)
    records = []
    for j, (axis_value, params) in enumerate(points):
        seeds = (derive_stream(base_seed, j * samples + i) for i in range(samples))
        records.append(_point_stats(axis_value, list(_runs(params, forced, seeds, cfg))))
    return records


def sweep(spec: SweepSpec) -> list[ExperimentRecord]:
    """Solve samples_per_point instances at each axis value."""
    points = ((v, dataclasses.replace(spec.base, **{spec.axis: v})) for v in spec.values)
    return _grid(points, spec.samples_per_point, spec.base_seed, spec.node_limit,
                 spec.forced, spec.heuristic)


def crossing_estimate(records: list[ExperimentRecord]) -> float | None:
    """Axis value where sat_fraction crosses 0.5, linearly interpolated
    between the bracketing grid points; None if it never crosses."""
    for a, b in zip(records, records[1:]):
        if a.sat_fraction >= 0.5 >= b.sat_fraction and a.sat_fraction != b.sat_fraction:
            frac = (a.sat_fraction - 0.5) / (a.sat_fraction - b.sat_fraction)
            return a.axis_value + frac * (b.axis_value - a.axis_value)
    return None


def scaling_study(
    base: CspParams,
    n_values: tuple[int, ...],
    samples: int,
    base_seed: int,
    node_limit: int,
    forced: bool = True,
    heuristic: str = "mrv",
) -> list[tuple[int, ExperimentRecord]]:
    """Hardness growth in n at fixed (k, alpha, r, p): forced instances
    solved per n, medians reported."""
    points = ((float(n), dataclasses.replace(base, n=n)) for n in n_values)
    return list(zip(n_values, _grid(points, samples, base_seed, node_limit, forced, heuristic)))


MIN_COMPARE_SAMPLES = 10  # satisfiable runs each arm of forced_vs_random needs
RANDOM_BUDGET_FACTOR = 20  # random instances drawn per requested sample, at most


@dataclass(frozen=True)
class ForcedVsRandom:
    median_forced: float
    median_random_sat: float
    ratio: float
    samples_forced: int
    samples_random_sat: int
    discarded_unsat: int
    censored_forced: int
    censored_random: int


def forced_vs_random(
    params: CspParams,
    samples: int,
    base_seed: int,
    node_limit: int,
    heuristic: str = "mrv",
) -> ForcedVsRandom:
    """Median cost of forced instances vs random instances filtered to the
    satisfiable ones (rejection).  Censored runs are left out of both medians
    and counted per arm."""
    if samples < MIN_COMPARE_SAMPLES:
        raise ParameterError(f"samples must be >= {MIN_COMPARE_SAMPLES}, got {samples}")
    cfg = SolveConfig(node_limit=node_limit, heuristic=heuristic)
    forced_seed_base = derive_stream(base_seed, 1)
    random_seed_base = derive_stream(base_seed, 2)

    forced_seeds = (derive_stream(forced_seed_base, i) for i in range(samples))
    forced_nodes = [
        r.nodes for r in _runs(params, True, forced_seeds, cfg) if r.status is SolveStatus.SAT
    ]
    if len(forced_nodes) < MIN_COMPARE_SAMPLES:
        raise InsufficientSamplesError(
            f"only {len(forced_nodes)} forced runs finished within the node limit"
        )

    random_nodes = []
    discarded = censored_random = 0
    budget = RANDOM_BUDGET_FACTOR * samples
    random_seeds = (derive_stream(random_seed_base, i) for i in range(budget))
    for res in _runs(params, False, random_seeds, cfg):
        if res.status is SolveStatus.SAT:
            random_nodes.append(res.nodes)
            if len(random_nodes) == samples:
                break
        elif res.status is SolveStatus.UNSAT:
            discarded += 1
        else:
            censored_random += 1
    if len(random_nodes) < MIN_COMPARE_SAMPLES:
        raise InsufficientSamplesError(
            f"only {len(random_nodes)} random satisfiable instances in a budget of {budget}"
        )

    median_forced = float(statistics.median(forced_nodes))
    median_random = float(statistics.median(random_nodes))
    return ForcedVsRandom(
        median_forced=median_forced,
        median_random_sat=median_random,
        ratio=median_forced / median_random,
        samples_forced=len(forced_nodes),
        samples_random_sat=len(random_nodes),
        discarded_unsat=discarded,
        censored_forced=samples - len(forced_nodes),  # a forced instance is never UNSAT
        censored_random=censored_random,
    )


def _csv(header: tuple[str, ...], rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(repr(x) if isinstance(x, float) else str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def sweep_csv(records: list[ExperimentRecord]) -> str:
    columns = ("axis_value", "sat_fraction", "median_nodes", "mean_nodes", "censored", "samples")
    return _csv(columns, ([getattr(rec, c) for c in columns] for rec in records))


def scaling_csv(rows: list[tuple[int, ExperimentRecord]]) -> str:
    columns = ("median_nodes", "sat_fraction", "mean_nodes", "censored", "samples")
    return _csv(("n", *columns), ([n, *(getattr(rec, c) for c in columns)] for n, rec in rows))
