import itertools
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rbcsp import _search
from rbcsp.analysis import p_threshold
from rbcsp.core import (
    Assignment,
    Constraint,
    CspInstance,
    CspParams,
    ModelKind,
    RbcspError,
    SizeError,
    check_assignment,
    tuple_rank,
)
from rbcsp.encoder import CnfFormula, encode_cnf
from rbcsp.generator import GenRequest, generate
from rbcsp.rng import derive_stream
from rbcsp.solver import (
    SolveConfig,
    SolveStatus,
    dpll,
    enumerate_solutions,
    solve_csp,
)
from rbcsp.validate import cross_check_instance, small_params

import reference_solver


def p0_instance(n=4):
    params = CspParams(ModelKind.RB, 2, n, 0.5, 1.0, 0.0)
    return generate(GenRequest(params, seed=1))


def unsat_instance():
    params = CspParams(ModelKind.RD, 2, 4, 0.5, 1.0, 0.5)
    inst = generate(GenRequest(params, seed=1))
    every = tuple(range(4))
    cons = (Constraint((0, 1), every),) + inst.constraints[1:]
    return CspInstance(inst.params, cons, seed=1)


class TestSolveCsp:
    @pytest.mark.parametrize("heuristic", ["lex", "mrv"])
    def test_p0_sat_no_backtracks(self, heuristic):
        res = solve_csp(p0_instance(), SolveConfig(heuristic=heuristic))
        assert res.status is SolveStatus.SAT
        assert res.backtracks == 0
        assert res.nodes == 4

    def test_all_forbidden_unsat(self):
        res = solve_csp(unsat_instance())
        assert res.status is SolveStatus.UNSAT
        assert res.witness is None

    def test_witness_satisfies(self):
        params = CspParams.from_sizes(ModelKind.RB, 2, 6, 3, 9, 0.4)
        for i in range(20):
            inst = generate(GenRequest(params, seed=derive_stream(55, i)))
            res = solve_csp(inst)
            if res.status is SolveStatus.SAT:
                assert check_assignment(inst, res.witness).satisfied

    def test_counters_deterministic(self):
        params = CspParams.from_sizes(ModelKind.RB, 2, 6, 3, 9, 0.45)
        inst = generate(GenRequest(params, seed=77))
        runs = [solve_csp(inst, SolveConfig(heuristic="mrv")) for _ in range(3)]
        assert len({(r.nodes, r.backtracks, r.status) for r in runs}) == 1

    def test_nodes_at_least_n_when_sat(self):
        params = CspParams.from_sizes(ModelKind.RD, 2, 5, 3, 7, 0.3)
        for i in range(20):
            inst = generate(GenRequest(params, seed=derive_stream(4, i)))
            res = solve_csp(inst)
            if res.status is SolveStatus.SAT:
                assert res.nodes >= 5
            assert res.nodes >= res.backtracks

    def test_node_limit_reports_limit(self):
        params = CspParams.from_sizes(ModelKind.RB, 2, 6, 3, 10, 0.5)
        inst = generate(GenRequest(params, seed=13))
        res = solve_csp(inst, SolveConfig(node_limit=2))
        assert res.status is SolveStatus.LIMIT
        assert res.nodes == 3  # stops on the first attempt past the budget

    def test_count_all_matches_enumeration(self):
        params = CspParams.from_sizes(ModelKind.RD, 2, 5, 2, 6, 0.4)
        for i in range(30):
            inst = generate(GenRequest(params, seed=derive_stream(21, i)))
            res = solve_csp(inst, SolveConfig(count_all=True))
            assert res.solutions == enumerate_solutions(inst)

    def test_count_all_interrupted_reports_limit_without_count(self):
        res = solve_csp(p0_instance(), SolveConfig(count_all=True, node_limit=6))
        assert res.status is SolveStatus.LIMIT
        assert res.solutions is None

    def test_forced_always_sat(self):
        params = CspParams.from_sizes(ModelKind.RB, 2, 10, 4, 20, 0.4)
        for i in range(30):
            inst = generate(GenRequest(params, seed=derive_stream(31, i), forced=True))
            assert solve_csp(inst).status is SolveStatus.SAT


class TestOracleEquivalence:
    def test_cross_check_sweep(self):
        # quick slice of the acceptance sweep: both models, random and forced
        for i in range(80):
            params = small_params(i)
            inst = generate(GenRequest(params, seed=derive_stream(606, i), forced=i % 2 == 1))
            ok, msg = cross_check_instance(inst)
            assert ok, msg

    def test_lex_and_mrv_agree_on_status(self):
        params = CspParams.from_sizes(ModelKind.RB, 2, 6, 3, 10, 0.5)
        for i in range(40):
            inst = generate(GenRequest(params, seed=derive_stream(17, i)))
            a = solve_csp(inst, SolveConfig(heuristic="lex"))
            b = solve_csp(inst, SolveConfig(heuristic="mrv"))
            assert a.status == b.status


class TestEnumerate:
    def test_p0_counts_domain_power(self):
        assert enumerate_solutions(p0_instance()) == 16

    def test_two_var_example(self):
        params = CspParams(ModelKind.RD, 2, 2, 1.0, 1 / (2 * math.log(2)), 0.25)
        con = Constraint(scope=(0, 1), incompatible=(1,))  # forbids (0, 1)
        inst = CspInstance(params, (con,), seed=0)
        assert enumerate_solutions(inst) == 3

    def test_cap_early_exit(self):
        assert enumerate_solutions(p0_instance(), cap=5) == 5

    def test_advisory_warning(self):
        params = CspParams(ModelKind.RD, 2, 24, 0.5, 0.5, 0.0)  # 5^24 >> advisory bound
        inst = generate(GenRequest(params, seed=0))
        with pytest.warns(UserWarning):
            enumerate_solutions(inst, cap=1)


class TestDpll:
    def test_empty_clause_unsat_zero_nodes(self):
        cnf = CnfFormula(num_vars=2, clauses=((1, 2), ()))
        res = dpll(cnf)
        assert res.status is SolveStatus.UNSAT
        assert res.nodes == 0

    def test_rejects_oversized_variable_count(self):
        with pytest.raises(SizeError, match="DPLL bound"):
            dpll(CnfFormula(num_vars=2 ** 31, clauses=()))

    def test_two_var_example_three_models(self):
        params = CspParams(ModelKind.RD, 2, 2, 1.0, 1 / (2 * math.log(2)), 0.25)
        con = Constraint(scope=(0, 1), incompatible=(1,))  # forbids (0, 1)
        inst = CspInstance(params, (con,), seed=0)
        res = dpll(encode_cnf(inst), SolveConfig(count_all=True))
        assert res.status is SolveStatus.SAT
        assert res.solutions == 3

    def test_witness_is_model(self):
        cnf = CnfFormula(num_vars=3, clauses=((1, -2), (-1, 3), (2, 3)))
        res = dpll(cnf)
        assert res.status is SolveStatus.SAT
        model = res.witness
        for clause in cnf.clauses:
            assert any(model[abs(l) - 1] == (l > 0) for l in clause)

    def test_node_limit(self):
        # pigeonhole-ish contradiction needs search; 1-node budget trips it
        clauses = tuple(
            c for c in itertools.product((1, -1), repeat=3)
        )
        cnf = CnfFormula(num_vars=3, clauses=tuple(
            tuple(s * v for s, v in zip(signs, (1, 2, 3))) for signs in clauses
        ))
        res = dpll(cnf, SolveConfig(node_limit=1))
        assert res.status is SolveStatus.LIMIT

    def test_split_depth_needs_no_recursion_limit(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("dpll must not change the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        chain = tuple((-v, v + 1) for v in range(1, 5000))
        res = dpll(CnfFormula(num_vars=5000, clauses=((1,),) + chain))
        assert res.status is SolveStatus.SAT
        # tautologies force nothing: one split per variable, deeper than the
        # default recursion limit of 1000
        deep = tuple((v, -v) for v in range(1, 1101))
        res = dpll(CnfFormula(num_vars=1100, clauses=deep))
        assert (res.status, res.nodes, res.backtracks) == (SolveStatus.SAT, 1100, 0)

    def test_status_matches_csp_solver(self):
        params = CspParams.from_sizes(ModelKind.RB, 2, 5, 3, 9, 0.5)
        for i in range(30):
            inst = generate(GenRequest(params, seed=derive_stream(23, i)))
            assert dpll(encode_cnf(inst)).status == solve_csp(inst).status


# (status, nodes, backtracks, solutions) recorded with the numpy
# forward-checking kernel that the bitset kernel replaced; a change here
# means search behaviour changed.  Per SMALL_FAMILIES instance the four
# entries are lex, mrv, lex count-all and mrv count-all.
SMALL_FAMILY_COUNTERS = {
    (0, False): (("SAT", 5, 1, None), ("SAT", 4, 0, None), ("SAT", 12, 12, 3), ("SAT", 10, 10, 3)),
    (0, True): (("SAT", 4, 0, None), ("SAT", 4, 0, None), ("SAT", 12, 12, 5), ("SAT", 12, 12, 5)),
    (1, False): (("SAT", 6, 1, None), ("SAT", 5, 0, None), ("SAT", 66, 66, 28), ("SAT", 60, 60, 28)),
    (1, True): (("SAT", 5, 0, None), ("SAT", 5, 0, None), ("SAT", 90, 90, 49), ("SAT", 88, 88, 49)),
    (2, False): (("UNSAT", 6, 6, None), ("UNSAT", 7, 7, None), ("UNSAT", 6, 6, 0), ("UNSAT", 7, 7, 0)),
    (2, True): (("SAT", 7, 1, None), ("SAT", 6, 0, None), ("SAT", 13, 13, 2), ("SAT", 8, 8, 2)),
    (3, False): (("SAT", 5, 0, None), ("SAT", 5, 0, None), ("SAT", 13, 13, 2), ("SAT", 12, 12, 2)),
    (3, True): (("SAT", 6, 1, None), ("SAT", 5, 0, None), ("SAT", 23, 23, 4), ("SAT", 20, 20, 4)),
    (4, False): (("SAT", 9, 5, None), ("SAT", 7, 3, None), ("SAT", 36, 36, 14), ("SAT", 28, 28, 14)),
    (4, True): (("SAT", 5, 1, None), ("SAT", 4, 0, None), ("SAT", 51, 51, 21), ("SAT", 39, 39, 21)),
    (5, False): (("UNSAT", 9, 9, None), ("UNSAT", 7, 7, None), ("UNSAT", 9, 9, 0), ("UNSAT", 7, 7, 0)),
    (5, True): (("SAT", 8, 2, None), ("SAT", 7, 1, None), ("SAT", 19, 19, 5), ("SAT", 14, 14, 5)),
    (6, False): (("UNSAT", 4, 4, None), ("UNSAT", 3, 3, None), ("UNSAT", 4, 4, 0), ("UNSAT", 3, 3, 0)),
    (6, True): (("SAT", 5, 0, None), ("SAT", 5, 0, None), ("SAT", 9, 9, 2), ("SAT", 7, 7, 2)),
    (7, False): (("UNSAT", 8, 8, None), ("UNSAT", 8, 8, None), ("UNSAT", 8, 8, 0), ("UNSAT", 8, 8, 0)),
    (7, True): (("SAT", 13, 7, None), ("SAT", 13, 7, None), ("SAT", 20, 20, 4), ("SAT", 17, 17, 4)),
}

# (model, k, n, alpha, r, forced, stream index, heuristic, status, nodes,
# backtracks) at p_cr(alpha, r), same provenance as above
THRESHOLD_COUNTERS = [
    ("rb", 2, 16, 0.8, 1.5, True, 0, "mrv", "SAT", 24, 8),
    ("rb", 2, 16, 0.8, 1.5, True, 0, "lex", "SAT", 35572, 35556),
    ("rb", 2, 16, 0.8, 1.5, True, 1, "mrv", "SAT", 92, 76),
    ("rb", 2, 16, 0.8, 1.5, True, 1, "lex", "SAT", 964, 948),
    ("rb", 2, 16, 0.8, 1.5, True, 2, "mrv", "SAT", 105, 89),
    ("rb", 2, 16, 0.8, 1.5, True, 2, "lex", "SAT", 123, 107),
    ("rb", 2, 20, 0.8, 1.5, True, 0, "mrv", "SAT", 109, 89),
    ("rb", 2, 20, 0.8, 1.5, True, 1, "mrv", "SAT", 278, 258),
    ("rb", 2, 20, 0.8, 1.5, True, 2, "mrv", "SAT", 306, 286),
    ("rd", 3, 10, 0.8, 1.0, False, 0, "mrv", "UNSAT", 1612, 1612),
    ("rd", 3, 10, 0.8, 1.0, False, 1, "mrv", "UNSAT", 169, 169),
    ("rd", 3, 10, 0.8, 1.0, False, 2, "mrv", "UNSAT", 510, 510),
    ("rd", 3, 10, 0.8, 1.0, False, 3, "mrv", "UNSAT", 1066, 1066),
    ("rd", 3, 10, 0.8, 1.0, False, 4, "mrv", "UNSAT", 642, 642),
    ("rd", 3, 10, 0.8, 1.0, False, 5, "mrv", "UNSAT", 868, 868),
    ("rd", 3, 10, 0.8, 1.0, False, 6, "mrv", "UNSAT", 291, 291),
    ("rd", 3, 10, 0.8, 1.0, False, 7, "mrv", "SAT", 152, 142),
]


# (status, nodes, backtracks, solutions) of dpll on the direct encoding, the
# search-tree size that stands in for a tree-like refutation's.  Keyed by
# (SMALL_FAMILIES index, forced, stream index); the six entries are split
# width None then 3, each under the default config, count-all and a 3-node
# limit.
DPLL_COUNTERS = {
    (0, False, 0): (("SAT", 2, 0, None), ("SAT", 10, 10, 6), ("SAT", 2, 0, None),
                   ("SAT", 2, 0, None), ("SAT", 10, 10, 6), ("SAT", 2, 0, None)),
    (0, False, 1): (("SAT", 2, 0, None), ("SAT", 4, 4, 2), ("SAT", 2, 0, None),
                   ("SAT", 2, 0, None), ("SAT", 4, 4, 2), ("SAT", 2, 0, None)),
    (0, True, 0): (("SAT", 2, 0, None), ("SAT", 10, 10, 6), ("SAT", 2, 0, None),
                  ("SAT", 2, 0, None), ("SAT", 10, 10, 6), ("SAT", 2, 0, None)),
    (0, True, 1): (("SAT", 1, 0, None), ("SAT", 6, 6, 4), ("SAT", 1, 0, None),
                  ("SAT", 1, 0, None), ("SAT", 6, 6, 4), ("SAT", 1, 0, None)),
    (1, False, 0): (("SAT", 4, 0, None), ("SAT", 44, 44, 19), ("LIMIT", 3, 3, None),
                   ("SAT", 4, 0, None), ("SAT", 44, 44, 19), ("LIMIT", 3, 3, None)),
    (1, False, 1): (("SAT", 4, 0, None), ("SAT", 62, 62, 32), ("LIMIT", 3, 3, None),
                   ("SAT", 4, 0, None), ("SAT", 62, 62, 32), ("LIMIT", 3, 3, None)),
    (1, True, 0): (("SAT", 5, 1, None), ("SAT", 98, 98, 44), ("LIMIT", 3, 3, None),
                  ("SAT", 5, 1, None), ("SAT", 98, 98, 44), ("LIMIT", 3, 3, None)),
    (1, True, 1): (("SAT", 6, 1, None), ("SAT", 72, 72, 34), ("LIMIT", 3, 3, None),
                  ("SAT", 6, 1, None), ("SAT", 72, 72, 34), ("LIMIT", 3, 3, None)),
    (2, False, 0): (("UNSAT", 2, 2, None), ("UNSAT", 2, 2, 0), ("UNSAT", 2, 2, None),
                   ("UNSAT", 2, 2, None), ("UNSAT", 2, 2, 0), ("UNSAT", 2, 2, None)),
    (2, False, 1): (("UNSAT", 2, 2, None), ("UNSAT", 2, 2, 0), ("UNSAT", 2, 2, None),
                   ("UNSAT", 2, 2, None), ("UNSAT", 2, 2, 0), ("UNSAT", 2, 2, None)),
    (2, True, 0): (("SAT", 2, 1, None), ("SAT", 2, 2, 1), ("SAT", 2, 1, None),
                  ("SAT", 2, 1, None), ("SAT", 2, 2, 1), ("SAT", 2, 1, None)),
    (2, True, 1): (("SAT", 2, 0, None), ("SAT", 4, 4, 2), ("SAT", 2, 0, None),
                  ("SAT", 2, 0, None), ("SAT", 4, 4, 2), ("SAT", 2, 0, None)),
    (3, False, 0): (("SAT", 3, 1, None), ("SAT", 6, 6, 2), ("SAT", 3, 1, None),
                   ("SAT", 3, 1, None), ("SAT", 6, 6, 2), ("SAT", 3, 1, None)),
    (3, False, 1): (("SAT", 3, 0, None), ("SAT", 12, 12, 4), ("SAT", 3, 0, None),
                   ("SAT", 3, 0, None), ("SAT", 12, 12, 4), ("SAT", 3, 0, None)),
    (3, True, 0): (("SAT", 8, 4, None), ("SAT", 10, 10, 2), ("LIMIT", 3, 3, None),
                  ("SAT", 8, 4, None), ("SAT", 10, 10, 2), ("LIMIT", 3, 3, None)),
    (3, True, 1): (("SAT", 3, 0, None), ("SAT", 10, 10, 4), ("SAT", 3, 0, None),
                  ("SAT", 3, 0, None), ("SAT", 10, 10, 4), ("SAT", 3, 0, None)),
    (4, False, 0): (("SAT", 4, 0, None), ("SAT", 16, 16, 8), ("LIMIT", 3, 3, None),
                   ("SAT", 4, 0, None), ("SAT", 16, 16, 8), ("LIMIT", 3, 3, None)),
    (4, False, 1): (("SAT", 6, 1, None), ("SAT", 22, 22, 10), ("LIMIT", 3, 3, None),
                   ("SAT", 6, 1, None), ("SAT", 22, 22, 10), ("LIMIT", 3, 3, None)),
    (4, True, 0): (("SAT", 5, 1, None), ("SAT", 20, 20, 10), ("LIMIT", 3, 3, None),
                  ("SAT", 5, 1, None), ("SAT", 20, 20, 10), ("LIMIT", 3, 3, None)),
    (4, True, 1): (("SAT", 3, 0, None), ("SAT", 50, 50, 26), ("SAT", 3, 0, None),
                  ("SAT", 3, 0, None), ("SAT", 50, 50, 26), ("SAT", 3, 0, None)),
    (5, False, 0): (("SAT", 11, 5, None), ("SAT", 60, 60, 18), ("LIMIT", 3, 3, None),
                   ("SAT", 11, 5, None), ("SAT", 60, 60, 18), ("LIMIT", 3, 3, None)),
    (5, False, 1): (("UNSAT", 8, 8, None), ("UNSAT", 8, 8, 0), ("LIMIT", 3, 3, None),
                   ("UNSAT", 8, 8, None), ("UNSAT", 8, 8, 0), ("LIMIT", 3, 3, None)),
    (5, True, 0): (("SAT", 5, 1, None), ("SAT", 58, 58, 24), ("LIMIT", 3, 3, None),
                  ("SAT", 5, 1, None), ("SAT", 58, 58, 24), ("LIMIT", 3, 3, None)),
    (5, True, 1): (("SAT", 6, 1, None), ("SAT", 22, 22, 5), ("LIMIT", 3, 3, None),
                  ("SAT", 6, 1, None), ("SAT", 22, 22, 5), ("LIMIT", 3, 3, None)),
    (6, False, 0): (("SAT", 2, 1, None), ("SAT", 2, 2, 1), ("SAT", 2, 1, None),
                   ("SAT", 2, 1, None), ("SAT", 2, 2, 1), ("SAT", 2, 1, None)),
    (6, False, 1): (("UNSAT", 2, 2, None), ("UNSAT", 2, 2, 0), ("UNSAT", 2, 2, None),
                   ("UNSAT", 2, 2, None), ("UNSAT", 2, 2, 0), ("UNSAT", 2, 2, None)),
    (6, True, 0): (("SAT", 2, 1, None), ("SAT", 2, 2, 1), ("SAT", 2, 1, None),
                  ("SAT", 2, 1, None), ("SAT", 2, 2, 1), ("SAT", 2, 1, None)),
    (6, True, 1): (("SAT", 3, 1, None), ("SAT", 4, 4, 2), ("SAT", 3, 1, None),
                  ("SAT", 3, 1, None), ("SAT", 4, 4, 2), ("SAT", 3, 1, None)),
    (7, False, 0): (("SAT", 4, 1, None), ("SAT", 8, 8, 2), ("LIMIT", 3, 3, None),
                   ("SAT", 4, 1, None), ("SAT", 8, 8, 2), ("LIMIT", 3, 3, None)),
    (7, False, 1): (("SAT", 9, 3, None), ("SAT", 30, 30, 10), ("LIMIT", 3, 3, None),
                   ("SAT", 9, 3, None), ("SAT", 30, 30, 10), ("LIMIT", 3, 3, None)),
    (7, True, 0): (("SAT", 5, 0, None), ("SAT", 20, 20, 8), ("LIMIT", 3, 3, None),
                  ("SAT", 5, 0, None), ("SAT", 20, 20, 8), ("LIMIT", 3, 3, None)),
    (7, True, 1): (("SAT", 9, 4, None), ("SAT", 14, 14, 4), ("LIMIT", 3, 3, None),
                  ("SAT", 9, 4, None), ("SAT", 14, 14, 4), ("LIMIT", 3, 3, None)),
}
DPLL_CONFIGS = (SolveConfig(), SolveConfig(count_all=True), SolveConfig(node_limit=3))


class TestCounterParity:
    @pytest.mark.parametrize("family,forced", sorted(SMALL_FAMILY_COUNTERS))
    def test_small_families(self, family, forced):
        inst = generate(GenRequest(small_params(family), seed=derive_stream(2718, 2 * family + forced),
                                   forced=forced))
        got = []
        for count_all in (False, True):
            for heuristic in ("lex", "mrv"):
                res = solve_csp(inst, SolveConfig(heuristic=heuristic, count_all=count_all))
                got.append((res.status.value, res.nodes, res.backtracks, res.solutions))
        assert tuple(got) == SMALL_FAMILY_COUNTERS[family, forced]

    @pytest.mark.parametrize("model,k,n,alpha,r,forced,index,heuristic,status,nodes,backtracks",
                             THRESHOLD_COUNTERS)
    def test_at_threshold(self, model, k, n, alpha, r, forced, index, heuristic, status, nodes,
                          backtracks):
        params = CspParams(ModelKind(model), k, n, alpha, r, p_threshold(alpha, r))
        seed = derive_stream(31415 if forced else 27182, index)
        inst = generate(GenRequest(params, seed=seed, forced=forced))
        res = solve_csp(inst, SolveConfig(heuristic=heuristic))
        assert (res.status.value, res.nodes, res.backtracks) == (status, nodes, backtracks)

    @pytest.mark.parametrize("family,forced,index", sorted(DPLL_COUNTERS))
    def test_dpll_on_small_families(self, family, forced, index):
        seed = derive_stream(1618, 4 * family + 2 * forced + index)
        inst = generate(GenRequest(small_params(family), seed=seed, forced=forced))
        got = []
        for width in (None, 3):
            cnf = encode_cnf(inst, width)
            for cfg in DPLL_CONFIGS:
                res = dpll(cnf, cfg)
                got.append((res.status.value, res.nodes, res.backtracks, res.solutions))
        assert tuple(got) == DPLL_COUNTERS[family, forced, index]


PARITY_CONFIGS = DPLL_CONFIGS + (SolveConfig(node_limit=1), SolveConfig(node_limit=3, count_all=True))


@st.composite
def small_cnfs(draw):
    """0-8 variables, 0-20 clauses of width 0-4; empty clauses, repeated
    literals and tautologies all occur."""
    num_vars = draw(st.integers(0, 8))
    lits = st.integers(-num_vars, num_vars).filter(bool)
    widths = st.integers(0, 4 if num_vars else 0)
    clauses = draw(st.lists(widths.flatmap(lambda w: st.tuples(*[lits] * w)), max_size=20))
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


@settings(max_examples=300, deadline=None)
@given(small_cnfs())
def test_dpll_matches_recursive_reference(cnf):
    for cfg in PARITY_CONFIGS:
        assert dpll(cnf, cfg) == reference_solver.dpll(cnf, cfg)  # every SolveResult field


class TestWitnessCheck:
    def test_unsound_witness_raises(self, monkeypatch):
        inst = unsat_instance()
        monkeypatch.setattr(_search, "fc_search",
                            lambda *args: (SolveStatus.SAT, 1, 0, 1, (0,) * inst.params.n))
        with pytest.raises(RbcspError, match="unsound witness, violates constraint 0"):
            solve_csp(inst)

    def test_tuple_space_guard(self):
        params = CspParams(ModelKind.RB, 3, 120, 1.0, 0.01, 0.0)  # 120^3 > 2^20
        inst = CspInstance(params, (Constraint((0, 1, 2), ()),) * 6, seed=0)
        with pytest.raises(SizeError, match="exceeds the solver bound"):
            solve_csp(inst)


@st.composite
def constraint_sets(draw):
    """(n, d, constraints): random scopes and random forbidden-rank sets."""
    k = draw(st.sampled_from([2, 3]))
    n, d = draw(st.integers(k, 6)), draw(st.integers(2, 4))
    scopes = st.permutations(range(n)).map(lambda order: tuple(order[:k]))
    ranks = st.sets(st.integers(0, d ** k - 1), max_size=d ** k)
    cons = draw(st.lists(st.builds(Constraint, scopes, ranks.map(tuple)), min_size=1, max_size=6))
    return n, d, tuple(cons)


def _search_recording_watch(n, d, constraints, mrv):
    """Run a count-all search and return the watch lists it built."""
    built = []
    watch_lists = _search._watch_lists

    def recording(*args):
        built.append(watch_lists(*args))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_search, "_watch_lists", recording)
        _search.fc_search(n, d, constraints, mrv, None, True)
    ((watch, _),) = built
    return watch


def _check_cached_masks(watch, d, constraints):
    """Assert that each variable has one entry per distinct scope on it, with
    the mask source `_watch_lists` documents for the union of the forbidden
    ranks on that scope, and that every cached mask is the set of values its
    free position may not take under that union, given the other coordinates
    of its key: the entry's own value, for a binary entry, else the partial
    rank.  The entries are binary exactly when every scope is.  Return how
    many masks were cached."""
    binary = all(len(con.scope) == 2 for con in constraints)
    checked = 0
    for u, entries in enumerate(watch):
        unions = {}
        for con in constraints:
            if u in con.scope:
                unions.setdefault(con.scope, set()).update(con.incompatible)
        assert len(entries) == len(unions)
        for (scope, ranks), entry in zip(unions.items(), entries):
            k = len(scope)
            if binary:
                var, own_mult, mult, masks, walk, test = entry
                assert sorted(scope) == sorted((u, var))
                others = ((var, mult, masks),)
            else:
                own_mult, walk, test, others = entry
            if d ** k <= 32 * len(ranks):
                assert walk is None and test == bytes(49 if r in ranks else 48 for r in range(d ** k))
            elif len(ranks) < d:
                assert sorted(walk) == sorted(ranks) and test is None
            else:
                assert walk is None and test == frozenset(ranks)
            assert own_mult == d ** (k - 1 - scope.index(u))
            for var, mult, masks in others:
                j = scope.index(var)
                assert mult == d ** (k - 1 - j)
                for key, mask in masks.items():
                    if binary:
                        assert 0 <= key < d
                        coords = [0] * k
                        coords[scope.index(u)] = key
                    else:
                        coords = [key // d ** (k - 1 - i) % d for i in range(k)]
                        assert coords[j] == 0 and 0 <= key < d ** k
                    want = 0
                    for v in range(d):
                        coords[j] = v
                        if tuple_rank(coords, d) in ranks:
                            want |= 1 << v
                    assert mask == want
                    checked += 1
    return checked


class TestLazyMasks:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(problem=constraint_sets(), mrv=st.booleans())
    def test_cached_masks_match_brute_force(self, problem, mrv):
        n, d, constraints = problem
        _check_cached_masks(_search_recording_watch(n, d, constraints, mrv), d, constraints)

    def test_masks_are_built_on_lookup(self):
        """Masks start empty; a search fills only the ones it looks up."""
        params = CspParams(ModelKind.RB, 2, 20, 0.8, 1.5, p_threshold(0.8, 1.5))
        inst = generate(GenRequest(params, seed=5, forced=True))
        n, d, constraints = params.n, inst.sizes.d, inst.constraints
        watch, binary = _search._watch_lists(n, d, constraints)
        assert binary and not any(masks for entries in watch for _, _, _, masks, _, _ in entries)
        watch = _search_recording_watch(n, d, constraints, True)
        cached = _check_cached_masks(watch, d, constraints)
        assert 0 < cached < len(constraints) * 2 * d

    # (d, q, source): with k = 3 flags when d^3 <= 32 q (d = 4, q = 2 is the
    # boundary), else the q ranks are walked when q < d, else a frozenset
    SOURCES = [(4, 2, bytearray), (4, 1, tuple), (6, 5, tuple), (6, 6, frozenset), (6, 7, bytearray)]

    @pytest.mark.parametrize("d,q,source", SOURCES)
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_every_line_of_each_source_and_position(self, d, q, source, position):
        """A lex count-all search on x0, x1, x2 leaves x2 free after each of the
        d^2 pairs (x0, x1), so every line of x2's scope position is looked up,
        partial rank 0 and the last line among them."""
        scope = {0: (2, 0, 1), 1: (0, 2, 1), 2: (0, 1, 2)}[position]
        ranks = tuple(sorted({0, d ** 3 - 1, *range(d + 2, d ** 3, 7)})[:q])
        assert len(ranks) == q
        constraints = (Constraint(scope, ranks),)
        watch = _search_recording_watch(3, d, constraints, False)
        _, walk, test, others = watch[0][0]
        assert type(test if walk is None else walk) is source
        _check_cached_masks(watch, d, constraints)
        (masks,) = [masks for var, _, masks in others if var == 2]
        assert len(masks) == d * d
        assert min(masks) == 0 and max(masks) == d ** 3 - 1 - (d - 1) * d ** (2 - position)

    def test_constraints_on_one_scope_share_an_entry(self):
        """Two constraints on (x0, x1) act as one: a single entry on each of
        their variables, whose masks forbid the union of their ranks.  Each
        alone would walk its one rank (d^2 = 36 > 32); together they are
        flags."""
        d = 6
        constraints = (Constraint((0, 1), (7,)), Constraint((1, 2), (0,)), Constraint((0, 1), (9,)))
        watch = _search_recording_watch(3, d, constraints, False)
        assert [len(entries) for entries in watch] == [1, 2, 1]
        assert type(watch[0][0][5]) is bytearray and type(watch[2][0][4]) is tuple  # flags, walk
        var, _, _, masks, _, _ = watch[0][0]
        assert var == 1 and masks[1] == 1 << 1 | 1 << 3  # x0 = 1 forbids x1 in {1, 3}: ranks 7 and 9
        assert _check_cached_masks(watch, d, constraints) > 0


@st.composite
def mixed_arity_sets(draw):
    """(n, d, constraints) where each constraint draws its own arity, 2 or 3,
    so a set may be binary, ternary or mixed."""
    n, d = draw(st.integers(3, 6)), draw(st.integers(2, 4))

    def constraints(k):
        scopes = st.permutations(range(n)).map(lambda order: tuple(order[:k]))
        ranks = st.sets(st.integers(0, d ** k - 1), max_size=d ** k)
        return st.builds(Constraint, scopes, ranks.map(tuple))

    cons = draw(st.lists(st.sampled_from([2, 3]).flatmap(constraints), min_size=1, max_size=6))
    return n, d, tuple(cons)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(problem=mixed_arity_sets(), mrv=st.booleans())
def test_mixed_arity_sets_match_brute_force(problem, mrv):
    """Count-all search counts every one of the d^n assignments that satisfies
    all scopes, and its witness is one of them: no scope is dropped when
    arities mix.  Only an all-binary set builds binary entries."""
    n, d, constraints = problem
    forbidden = [(con.scope, set(con.incompatible)) for con in constraints]

    def satisfies(values):
        return all(tuple_rank([values[u] for u in scope], d) not in ranks for scope, ranks in forbidden)

    count = sum(map(satisfies, itertools.product(range(d), repeat=n)))
    status, _, _, solutions, witness = _search.fc_search(n, d, constraints, mrv, None, True)
    assert solutions == count
    assert (status is SolveStatus.SAT) == (count > 0)
    assert witness is None if count == 0 else satisfies(witness)
    watch, binary = _search._watch_lists(n, d, constraints)
    assert binary == all(len(con.scope) == 2 for con in constraints)
    assert all(len(entry) == (6 if binary else 4) for entries in watch for entry in entries)


SPARSE_SOLVE = """
import sys
from rbcsp.core import CspParams, ModelKind
from rbcsp.generator import GenRequest, generate
from rbcsp.solver import solve_csp
res = solve_csp(generate(GenRequest(CspParams(ModelKind.RB, 2, 1000, 1.0, 0.5, float(sys.argv[1])), seed=1)))
print(res.status.value, res.nodes, res.backtracks)
"""


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _solve_rb2_n1000_in_capped_memory(p):
    """Solve RB k=2 n=1000 alpha=1 r=0.5 at tightness p, seed 1, under 1 GB of
    address space: d = 1000, d^k = 10^6 ranks per constraint and m = 3454."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", SPARSE_SOLVE, str(p)], preexec_fn=_cap_address_space,
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["SAT", "1000", "0"]


def test_sparse_large_domain_solves_in_capped_memory():
    """q = 1: the kernel holds O(q) per scope, so the solve fits in 1 GB; a
    structure sized d^k per scope would need gigabytes."""
    _solve_rb2_n1000_in_capped_memory(1e-6)


def test_frozenset_scopes_solve_in_capped_memory():
    """q = d = 1000, so every scope tests lines against a frozenset of its
    ranks.  Flags would take d^k = 10^6 bytes per scope, about 3.4 GB in all;
    their rule d^k <= 32 q keeps them to at most 32 B per rank."""
    _solve_rb2_n1000_in_capped_memory(1e-3)
