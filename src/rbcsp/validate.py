"""Self-checks behind `rbcsp validate`: cross-oracle agreement of the three
solvers on small instances, and Monte-Carlo agreement of instance solution
counts with the closed-form moments."""

from __future__ import annotations

import math
import statistics

from .analysis import first_moment_log, forced_expected_count_log
from .core import CspParams, ModelKind, ParameterError
from .encoder import encode_cnf
from .generator import GenRequest, generate
from .rng import derive_stream
from .solver import SolveConfig, SolveStatus, dpll, enumerate_solutions, solve_csp

MOMENT_SIGMAS = 4.0  # standard errors a Monte-Carlo mean may stray from its closed form
SMALL_FAMILIES = [
    # (model, k, n, d, m, p) with d^n small enough to enumerate instantly
    (ModelKind.RB, 2, 4, 2, 5, 0.3),
    (ModelKind.RB, 2, 5, 3, 8, 0.25),
    (ModelKind.RB, 2, 6, 2, 10, 0.5),
    (ModelKind.RB, 3, 5, 2, 6, 0.4),
    (ModelKind.RD, 2, 4, 3, 6, 0.3),
    (ModelKind.RD, 2, 6, 3, 9, 0.45),
    (ModelKind.RD, 2, 5, 2, 7, 0.6),
    (ModelKind.RD, 3, 6, 2, 8, 0.35),
]


def small_params(index: int) -> CspParams:
    model, k, n, d, m, p = SMALL_FAMILIES[index % len(SMALL_FAMILIES)]
    return CspParams.from_sizes(model, k, n, d, m, p)


def cross_check_instance(instance) -> tuple[bool, str]:
    """All three procedures must agree on status and on the model count."""
    truth = enumerate_solutions(instance)
    expected = SolveStatus.SAT if truth > 0 else SolveStatus.UNSAT
    for heuristic in ("lex", "mrv"):
        res = solve_csp(instance, SolveConfig(heuristic=heuristic))
        if res.status is not expected:
            return False, f"solve_csp[{heuristic}] said {res.status.value}, oracle {expected.value}"
    counted = solve_csp(instance, SolveConfig(count_all=True))
    if counted.solutions != truth:
        return False, f"solve_csp count {counted.solutions} != oracle {truth}"
    cnf_res = dpll(encode_cnf(instance), SolveConfig(count_all=True))
    if cnf_res.status is not expected:
        return False, f"dpll said {cnf_res.status.value}, oracle {expected.value}"
    models = cnf_res.solutions or 0
    if models != truth:
        return False, f"CNF model count {models} != CSP solution count {truth}"
    return True, ""


def oracle_equivalence_suite(seed: int, instances: int) -> tuple[int, list[str]]:
    failures = []
    for i in range(instances):
        params = small_params(i)
        forced = i % 2 == 1
        instance = generate(GenRequest(params=params, seed=derive_stream(seed, i), forced=forced))
        ok, msg = cross_check_instance(instance)
        if not ok:
            failures.append(f"instance {i} ({params.model.value}, forced={forced}): {msg}")
    return instances, failures


def moment_suite(seed: int, instances: int) -> list[str]:
    """Mean enumerated solution count vs exp(ln E[N]) and, for forced
    instances, exp(ln E_f[N])."""
    params = CspParams.from_sizes(ModelKind.RD, 2, 4, 3, 6, 0.3)
    failures = []
    for forced, closed_form in (
        (False, math.exp(first_moment_log(params))),
        (True, math.exp(forced_expected_count_log(params))),
    ):
        counts = [
            enumerate_solutions(
                generate(GenRequest(params=params, seed=derive_stream(seed + forced, i), forced=forced))
            )
            for i in range(instances)
        ]
        mean = statistics.fmean(counts)
        se = statistics.stdev(counts) / math.sqrt(len(counts))
        if abs(mean - closed_form) > MOMENT_SIGMAS * se:
            failures.append(
                f"{'forced' if forced else 'random'} mean {mean:.4f} vs {closed_form:.4f} "
                f"(off by {abs(mean - closed_form) / se:.2f} SE)"
            )
    return failures


def run_validation(seed: int, instances: int = 200) -> bool:
    """Run both suites, printing a [PASS]/[FAIL] line for each."""
    if instances < 1:
        raise ParameterError(f"instances must be >= 1, got {instances}")
    total, failures = oracle_equivalence_suite(seed, instances)
    print(f"[{'FAIL' if failures else 'PASS'}] oracle equivalence on {total} instances")
    for msg in failures:
        print(f"       {msg}")
    moment_failures = moment_suite(seed, max(instances, 500))
    print(f"[{'FAIL' if moment_failures else 'PASS'}] moment Monte-Carlo vs closed forms")
    for msg in moment_failures:
        print(f"       {msg}")
    return not failures and not moment_failures
