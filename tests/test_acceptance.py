"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The experiment criteria
(08-10) solve a few thousand seeded instances and take a minute or two.
"""

import math
import statistics
from contextlib import contextmanager

import numpy as np
import pytest

from rbcsp.analysis import (
    _logsumexp,
    distance_profile,
    first_moment_log,
    flawed_prob_rb,
    flawed_prob_rd,
    forced_expected_count_log,
    maximize_exponent,
    p_threshold,
    r_threshold,
    threesat_profile_exponent,
)
from rbcsp.cli import cli_main
from rbcsp.core import CspParams, ModelKind, derive_sizes
from rbcsp.generator import GenRequest, generate
from rbcsp.harness import SweepSpec, crossing_estimate, forced_vs_random, scaling_study, sweep
from rbcsp.rng import derive_stream
from rbcsp.solver import enumerate_solutions
from rbcsp.validate import oracle_equivalence_suite

P_CR_BENCH = p_threshold(0.8, 1.5)  # 0.413353780489968...


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


def test_01_threshold_formulas(capsys):
    with criterion(1, "threshold formulas reproduce the benchmark set"):
        r_cr = r_threshold(0.8, 0.25)
        assert abs(p_threshold(0.8, r_cr) - 0.25) <= 1e-12
        sizes = derive_sizes(CspParams(ModelKind.RB, 2, 59, 0.8, r_cr, 0.25))
        assert (sizes.d, sizes.m) == (26, 669)
        code = cli_main(["thresholds", "--k", "2", "--alpha", "0.8", "--p", "0.25", "--n", "59"])
        out = capsys.readouterr().out
        assert code == 0
        values = dict(line.split("=", 1) for line in out.splitlines())
        assert abs(float(values["p_cr"]) - 0.25) <= 1e-12
        assert values["d"] == "26" and values["m"] == "669"


def test_02_threshold_round_trip():
    with criterion(2, "p/r threshold round trip on a 20x20 grid"):
        for alpha in np.linspace(0.2, 2.0, 20):
            for p in np.linspace(0.04, 0.96, 20):
                back = p_threshold(alpha, r_threshold(alpha, p))
                assert abs(back - p) <= 1e-12 * p


def test_03_oracle_equivalence():
    with criterion(3, "solver/dpll/enumeration agree on 500 instances"):
        total, failures = oracle_equivalence_suite(seed=990001, instances=500)
        assert total == 500
        assert failures == []


def test_04_moment_validation():
    with criterion(4, "Monte-Carlo solution counts match the moment formulas"):
        params = CspParams.from_sizes(ModelKind.RD, 2, 4, 3, 6, 0.3)
        for forced, target in (
            (False, math.exp(first_moment_log(params))),
            (True, math.exp(forced_expected_count_log(params))),
        ):
            counts = [
                enumerate_solutions(
                    generate(GenRequest(params, seed=derive_stream(88100 + forced, i), forced=forced))
                )
                for i in range(2000)
            ]
            mean = statistics.fmean(counts)
            se = statistics.stdev(counts) / math.sqrt(len(counts))
            assert abs(mean - target) <= 3 * se
        # second-moment domination on the whole tested grid
        for model in (ModelKind.RB, ModelKind.RD):
            for n in (6, 12, 20):
                for alpha in (0.6, 0.8, 1.1):
                    for p in (0.1, 0.25, 0.5):
                        grid_params = CspParams(model, 2, n, alpha, 1.5, p)
                        assert forced_expected_count_log(grid_params) >= first_moment_log(grid_params) - 1e-9


def test_05_profile_identities():
    with criterion(5, "distance profiles sum to the moment formulas"):
        r_cr = r_threshold(0.8, 0.25)
        grid = [(model, n, 0.8, r, p)
                for model in (ModelKind.RB, ModelKind.RD)
                for n in (8, 20, 59)
                for r in (1.5, r_cr)
                for p in (0.1, 0.25, 0.5)]
        assert (ModelKind.RB, 59, 0.8, r_cr, 0.25) in grid  # the benchmark point
        for model, n, alpha, r, p in grid:
            params = CspParams(model, 2, n, alpha, r, p)
            lse_r = _logsumexp(pt.log_expected for pt in distance_profile(params, forced=False))
            lse_f = _logsumexp(pt.log_expected for pt in distance_profile(params, forced=True))
            target_r = first_moment_log(params)
            target_f = forced_expected_count_log(params)
            assert abs(lse_r - target_r) <= 1e-9 * max(abs(target_r), 1.0)
            assert abs(lse_f - target_f) <= 1e-9 * max(abs(target_f), 1.0)


def test_06_threesat_maxima():
    with criterion(6, "3-SAT profile maxima at r=4.25"):
        arg_random, _ = maximize_exponent(lambda x: threesat_profile_exponent(x, 4.25, False))
        assert abs(arg_random - 0.5) <= 1e-4
        arg_forced, _ = maximize_exponent(lambda x: threesat_profile_exponent(x, 4.25, True))
        assert 0.23 <= arg_forced <= 0.25


def _simulate_flawed_rd(d, p, i, trials, seed):
    rng = np.random.default_rng(seed)
    flawed, remaining = 0, trials
    while remaining:
        size = min(200_000, remaining)
        coins = rng.random((size, d, i)) < p
        flawed += int(coins.any(axis=2).all(axis=1).sum())
        remaining -= size
    return flawed / trials


def _simulate_flawed_rb(d, k, q, i, trials, seed):
    rng = np.random.default_rng(seed)
    space = d ** k
    flawed, remaining = 0, trials
    while remaining:
        size = min(100_000, remaining)
        subsets = rng.random((size, i, space)).argsort(axis=2)[:, :, :q]
        member = (subsets[:, :, :, None] == np.arange(d)).any(axis=2)
        flawed += int(member.any(axis=1).all(axis=1).sum())
        remaining -= size
    return flawed / trials


def test_07_flawed_probabilities():
    with criterion(7, "flawed-tuple formulas match simulation"):
        trials = 10 ** 6
        rd_points = [(2, 0.5, 1), (3, 0.3, 4), (2, 0.2, 3), (4, 0.6, 2), (3, 0.5, 2)]
        for seed, (d, p, i) in enumerate(rd_points, start=501):
            exact = flawed_prob_rd(d, p, i)
            est = _simulate_flawed_rd(d, p, i, trials, seed)
            sigma = math.sqrt(exact * (1 - exact) / trials)
            assert abs(est - exact) <= 3 * sigma
        rb_points = [(2, 2, 2, 1), (2, 2, 3, 2), (3, 2, 4, 2), (3, 2, 5, 1), (2, 3, 4, 3)]
        for seed, (d, k, q, i) in enumerate(rb_points, start=601):
            exact = flawed_prob_rb(d, k, q, i)
            est = _simulate_flawed_rb(d, k, q, i, trials, seed)
            sigma = math.sqrt(exact * (1 - exact) / trials)
            assert abs(est - exact) <= 3 * sigma
        # exhaustive check: of the C(4,2)=6 possible 2-subsets exactly one
        # contains both tuples that flaw the variable
        from itertools import combinations

        subsets = list(combinations(range(4), 2))
        target = sum(1 for s in subsets if set(s) == {0, 1}) / len(subsets)
        assert flawed_prob_rb(2, 2, 2, 1) == pytest.approx(target, abs=1e-14)
        assert target == pytest.approx(1 / 6)


def test_08_phase_transition_crossing():
    with criterion(8, "finite-size transition crossing and easy-hard-easy peak"):
        values = tuple(P_CR_BENCH * (0.5 + 0.1 * j) for j in range(11))
        spec = SweepSpec(
            base=CspParams(ModelKind.RB, 2, 20, 0.8, 1.5, P_CR_BENCH),
            axis="p", values=values, samples_per_point=200,
            base_seed=20260809, node_limit=10_000_000,
        )
        records = sweep(spec)
        assert all(rec.censored == 0 for rec in records)
        fractions = [rec.sat_fraction for rec in records]
        inversions = sum(1 for a, b in zip(fractions, fractions[1:]) if b > a + 0.02)
        assert inversions <= 1, f"sat fractions not monotone: {fractions}"
        crossing = crossing_estimate(records)
        assert crossing is not None
        assert abs(crossing - P_CR_BENCH) <= 0.08, f"crossing {crossing} vs p_cr {P_CR_BENCH}"
        peak = max(records, key=lambda rec: rec.median_nodes)
        assert abs(peak.axis_value - P_CR_BENCH) <= 0.1 * P_CR_BENCH + 1e-12, (
            f"median-node peak at {peak.axis_value}, p_cr {P_CR_BENCH}"
        )


def test_09_exponential_scaling():
    with criterion(9, "forced hardness grows exponentially in n at the threshold"):
        rows = scaling_study(
            base=CspParams(ModelKind.RB, 2, 12, 0.8, 1.5, P_CR_BENCH),
            n_values=(12, 16, 20, 24), samples=100,
            base_seed=771177, node_limit=10_000_000,
        )
        medians = [rec.median_nodes for _, rec in rows]
        ns = [n for n, _ in rows]
        assert all(a <= b for a, b in zip(medians, medians[1:])), medians
        assert medians[-1] / medians[0] >= 4.0, medians
        logs = [math.log(m) for m in medians]
        n_mean = statistics.fmean(ns)
        slope = sum((n - n_mean) * y for n, y in zip(ns, logs)) / sum((n - n_mean) ** 2 for n in ns)
        assert slope > 0.0, f"ln(median) slope {slope}"


def test_10_forced_vs_random_parity():
    with criterion(10, "forced and random-satisfiable costs are comparable"):
        summary = forced_vs_random(
            params=CspParams(ModelKind.RB, 2, 20, 0.8, 1.5, P_CR_BENCH),
            samples=100, base_seed=551133, node_limit=10_000_000,
        )
        assert summary.samples_forced >= 100
        assert summary.samples_random_sat >= 100
        assert 0.3 <= summary.ratio <= 3.0, summary


def test_11_cli_determinism(tmp_path, capsys):
    with criterion(11, "gen/sweep/scale commands are byte-deterministic"):
        gen_argv = ["gen", "--model", "rb", "--k", "2", "--n", "12", "--alpha", "0.8",
                    "--r", "1.5", "--p", "0.4", "--seed", "31415", "--count", "2",
                    "--forced", "--format", "both", "--emit-solution", "--out-dir"]
        sweep_argv = ["sweep", "--model", "rb", "--k", "2", "--n", "10", "--alpha", "0.8",
                      "--r", "1.5", "--p", "0.3", "--seed", "9", "--axis", "p",
                      "--values", "0.2,0.35,0.5", "--samples", "20", "--out"]
        scale_argv = ["scale", "--model", "rb", "--k", "2", "--n", "10", "--alpha", "0.8",
                      "--r", "1.5", "--p", "0.35", "--seed", "10", "--n-values", "8,10,12",
                      "--samples", "20", "--out"]
        for label, argv, is_dir in (("gen", gen_argv, True),
                                    ("sweep", sweep_argv, False),
                                    ("scale", scale_argv, False)):
            outputs = []
            for run_id in ("a", "b"):
                target = tmp_path / f"{label}_{run_id}"
                if not is_dir:
                    target = target.with_suffix(".csv")
                assert cli_main(argv + [str(target)]) == 0
                if is_dir:
                    blob = b"".join(
                        f.name.encode() + f.read_bytes() for f in sorted(target.iterdir())
                    )
                else:
                    blob = target.read_bytes()
                outputs.append(blob)
            assert outputs[0] == outputs[1], f"{label} outputs differ between runs"
        capsys.readouterr()
