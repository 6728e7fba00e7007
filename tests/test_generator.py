import itertools
import math
import statistics

import pytest

from rbcsp.core import (
    Assignment,
    CspParams,
    ForcedInfeasibleError,
    ModelKind,
    check_assignment,
    derive_sizes,
    tuple_rank,
)
from rbcsp.encoder import write_csp_native
from rbcsp.generator import GenRequest, generate
from rbcsp.rng import SplitMix64, derive_stream


def test_rb_exact_q_per_constraint():
    params = CspParams(ModelKind.RB, 2, 4, 0.5, 1.0, 0.5)
    inst = generate(GenRequest(params, seed=99))
    assert len(inst.constraints) == 6
    for con in inst.constraints:
        assert len(con.incompatible) == 2
        assert len(set(con.incompatible)) == 2


def test_scope_sorted_distinct():
    params = CspParams.from_sizes(ModelKind.RB, 3, 6, 2, 9, 0.25)
    inst = generate(GenRequest(params, seed=5))
    for con in inst.constraints:
        assert list(con.scope) == sorted(set(con.scope))
        assert all(0 <= u < 6 for u in con.scope)


def test_tuples_sorted_by_rank():
    params = CspParams.from_sizes(ModelKind.RD, 2, 5, 3, 7, 0.5)
    inst = generate(GenRequest(params, seed=2))
    for con in inst.constraints:
        assert list(con.incompatible) == sorted(set(con.incompatible))
        assert all(0 <= rank < 9 for rank in con.incompatible)


def test_rd_p0_all_empty():
    params = CspParams(ModelKind.RD, 2, 4, 0.5, 1.0, 0.0)
    inst = generate(GenRequest(params, seed=123))
    assert all(not con.incompatible for con in inst.constraints)
    for values in itertools.product(range(2), repeat=4):
        assert check_assignment(inst, Assignment(values)).satisfied


def test_forced_hidden_always_satisfies():
    params = CspParams.from_sizes(ModelKind.RB, 2, 6, 3, 8, 0.4)
    for i in range(1000):
        inst = generate(GenRequest(params, seed=derive_stream(424242, i), forced=True))
        assert inst.forced is not None
        assert check_assignment(inst, inst.forced).satisfied


def test_forced_rd_hidden_always_satisfies():
    params = CspParams.from_sizes(ModelKind.RD, 2, 5, 3, 7, 0.6)
    for i in range(300):
        inst = generate(GenRequest(params, seed=derive_stream(9, i), forced=True))
        assert check_assignment(inst, inst.forced).satisfied


def test_forced_tuple_frequencies_uniform():
    """Across seeds, the non-hidden ranks of each constraint are chosen
    uniformly: every relative rank lands within 4 sigma of its binomial
    expectation."""
    params = CspParams.from_sizes(ModelKind.RB, 2, 6, 3, 6, 0.4)
    sizes = derive_sizes(params)
    space, q = sizes.tuple_space, sizes.q
    counts = [0] * (space - 1)
    trials = 0
    for i in range(1000):
        inst = generate(GenRequest(params, seed=derive_stream(7117, i), forced=True))
        for con in inst.constraints:
            hidden_rank = tuple_rank([inst.forced[u] for u in con.scope], sizes.d)
            trials += 1
            for rank in con.incompatible:
                assert rank != hidden_rank
                counts[rank - 1 if rank > hidden_rank else rank] += 1
    prob = q / (space - 1)
    sigma = math.sqrt(trials * prob * (1 - prob))
    for c in counts:
        assert abs(c - trials * prob) < 4 * sigma


def test_forced_matches_rejection_sampling_oracle():
    """The construction that excludes the hidden rank must equal literal
    constraint-level rejection sampling: draw (scope, q-subset) and redraw
    whole constraints that forbid the hidden assignment."""
    params = CspParams.from_sizes(ModelKind.RB, 2, 3, 2, 1, 0.5)
    sizes = derive_sizes(params)
    d, q, space = sizes.d, sizes.q, sizes.tuple_space
    n, k = params.n, params.k
    draws = 100_000

    def outcome(inst):
        con = inst.constraints[0]
        hidden_rank = tuple_rank([inst.forced[u] for u in con.scope], d)
        rel = tuple(
            sorted(rk - 1 if rk > hidden_rank else rk
                   for rk in con.incompatible)
        )
        return con.scope, rel

    construction = {}
    for i in range(draws):
        inst = generate(GenRequest(params, seed=derive_stream(1001, i), forced=True))
        key = outcome(inst)
        construction[key] = construction.get(key, 0) + 1

    # literal rejection implementation, on an independent stream
    rng = SplitMix64(555)
    rejection = {}
    for i in range(draws):
        hidden = Assignment(tuple(rng.next_below(d) for _ in range(n)))
        while True:
            idx = list(range(n))
            for j in range(k):
                t = j + rng.next_below(n - j)
                idx[j], idx[t] = idx[t], idx[j]
            scope = tuple(sorted(idx[:k]))
            chosen = set()
            for j in range(space - q, space):
                t = rng.next_below(j + 1)
                chosen.add(j if t in chosen else t)
            hidden_rank = tuple_rank([hidden[u] for u in scope], d)
            if hidden_rank not in chosen:
                break
        rel = tuple(sorted(rk - 1 if rk > hidden_rank else rk for rk in chosen))
        key = (scope, rel)
        rejection[key] = rejection.get(key, 0) + 1

    cells = sorted(set(construction) | set(rejection))
    assert len(cells) == 3 * math.comb(space - 1, q)  # 3 scopes x 3 relative subsets
    expected = draws / len(cells)
    sigma = math.sqrt(draws * (1 / len(cells)) * (1 - 1 / len(cells)))
    for key in cells:
        assert abs(construction.get(key, 0) - expected) < 4.5 * sigma
        assert abs(rejection.get(key, 0) - expected) < 4.5 * sigma


def test_rd_incompatible_fraction_binomial():
    params = CspParams.from_sizes(ModelKind.RD, 2, 5, 3, 7, 0.35)
    sizes = derive_sizes(params)
    fractions = []
    for i in range(400):
        inst = generate(GenRequest(params, seed=derive_stream(88, i)))
        for con in inst.constraints:
            fractions.append(len(con.incompatible) / sizes.tuple_space)
    mean = statistics.fmean(fractions)
    se = statistics.stdev(fractions) / math.sqrt(len(fractions))
    assert abs(mean - 0.35) < 3 * se


def test_generation_deterministic_batch():
    params = CspParams.from_sizes(ModelKind.RB, 2, 6, 3, 8, 0.4)

    def batch():
        return [
            write_csp_native(generate(GenRequest(params, seed=derive_stream(321, i), forced=i % 2 == 0)))
            for i in range(100)
        ]

    assert batch() == batch()


def test_forced_infeasible_rb():
    params = CspParams(ModelKind.RB, 2, 4, 0.5, 1.0, 1.0)  # q = d^k
    with pytest.raises(ForcedInfeasibleError):
        generate(GenRequest(params, seed=1, forced=True))


def test_forced_infeasible_rd():
    params = CspParams(ModelKind.RD, 2, 4, 0.5, 1.0, 1.0)
    with pytest.raises(ForcedInfeasibleError):
        generate(GenRequest(params, seed=1, forced=True))


def test_rd_p1_random_all_incompatible():
    params = CspParams(ModelKind.RD, 2, 4, 0.5, 1.0, 1.0)
    inst = generate(GenRequest(params, seed=3))
    for con in inst.constraints:
        assert len(con.incompatible) == 4
