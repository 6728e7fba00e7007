import itertools
import math
import statistics

import pytest

from rbcsp.core import (
    Assignment,
    CspParams,
    ForcedInfeasibleError,
    ModelKind,
    SizeError,
    check_assignment,
    derive_sizes,
    tuple_rank,
)
from rbcsp.encoder import write_csp_native
from rbcsp.generator import MAX_GEN_DRAWS, GenRequest, generate
from rbcsp.rng import GAMMA, MASK64, SplitMix64, derive_stream, mix64

from reference_rng import ScalarSplitMix64


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


def reference_generate(params, seed, forced):
    """The documented draw protocol written out call by call on the scalar
    stream: (hidden assignment, constraints as (scope, ranks), rejections)."""
    sizes = derive_sizes(params)
    d, m, q, space = sizes.d, sizes.m, sizes.q, sizes.tuple_space
    n, k = params.n, params.k
    rng = ScalarSplitMix64(seed)
    hidden = tuple(rng.next_below(d) for _ in range(n)) if forced else None
    scopes = []
    for _ in range(m):
        idx = list(range(n))
        for j in range(k):
            t = j + rng.next_below(n - j)
            idx[j], idx[t] = idx[t], idx[j]
        scopes.append(tuple(sorted(idx[:k])))
    constraints = []
    for scope in scopes:
        hidden_rank = None if hidden is None else tuple_rank([hidden[u] for u in scope], d)
        if params.model is ModelKind.RB:
            size = space if hidden is None else space - 1
            chosen = set()
            for j in range(size - q, size):
                t = rng.next_below(j + 1)
                chosen.add(j if t in chosen else t)
            ranks = sorted(rk + 1 if hidden is not None and rk >= hidden_rank else rk for rk in chosen)
        else:
            ranks = [rk for rk in range(space) if rk != hidden_rank and rng.next_float() < params.p]
        constraints.append((scope, tuple(ranks)))
    return hidden, constraints, rng.rejections


RB12 = (ModelKind.RB, 2, 12, 0.8, 1.5, 0.3)  # d=7 m=45 q=15
# d=11 m=90 q=48: draws 15/16 (the first block's edge) are hidden-value or
# scope draws, and draws 1023/1024 and 1039/1040 (later block edges) Floyd draws
RB20 = (ModelKind.RB, 2, 20, 0.8, 1.5, 0.4)
RD3 = (ModelKind.RD, 3, 10, 1.0, 1.0, 1 - math.exp(-1.0))  # d=10 m=23: 23k coins, 23 blocks


@pytest.mark.parametrize("family,forced,draw,rejections", [
    (RB12, True, "hidden", 1),
    (RB12, False, "scope", 1),
    (RB12, True, "scope", 1),
    (RB12, False, "floyd", 1),
    (RB12, True, "floyd", 1),
    (RB20, False, 1023, 1),
    (RB20, False, 1024, 1),
    (RB20, True, 1023, 1),
    (RD3, True, "hidden", 1),
    (RD3, True, "scope", 1),
    (RD3, True, 1024, 0),  # a coin: a zero draw is a head, not a rejection
    (RB20, True, 15, 1),
    (RB20, False, 16, 1),
    (RB20, False, 1039, 1),
    (RB20, True, 1040, 1),
])
def test_zero_draw_matches_scalar_reference(family, forced, draw, rejections):
    """mix64(0) == 0, so seed -(i+1)*GAMMA makes raw draw i zero, and every
    next_below with a bound that is not a power of two rejects it.  The
    rejection must shift every later draw by exactly one."""
    params = CspParams(*family)
    sizes = derive_sizes(params)
    first_scope = params.n if forced else 0
    i = {"hidden": 0, "scope": first_scope, "floyd": first_scope + sizes.m * params.k}.get(draw, draw)
    seed = (-(i + 1) * GAMMA) & MASK64
    assert mix64(seed + (i + 1) * GAMMA) == 0
    hidden, constraints, rejected = reference_generate(params, seed, forced)
    assert rejected == rejections
    inst = generate(GenRequest(params, seed=seed, forced=forced))
    assert [(con.scope, con.incompatible) for con in inst.constraints] == constraints
    assert (inst.forced.values if forced else None) == hidden


@pytest.mark.parametrize("family", [RB12, RD3])
@pytest.mark.parametrize("forced", [False, True])
def test_matches_scalar_reference(family, forced):
    params = CspParams(*family)
    for i in range(5):
        seed = derive_stream(31337, i)
        hidden, constraints, _ = reference_generate(params, seed, forced)
        inst = generate(GenRequest(params, seed=seed, forced=forced))
        assert [(con.scope, con.incompatible) for con in inst.constraints] == constraints
        assert (inst.forced.values if forced else None) == hidden


@pytest.mark.parametrize("model,k,n,alpha,r,p", [
    (ModelKind.RB, 2, 10, 0.8, 1e300, 0.3),  # m has 302 digits
    (ModelKind.RB, 2, 10, 0.8, 1e300, 0.0),  # q = 0: the scope draws alone are too many
    (ModelKind.RD, 2, 10, 7.0, 1.0, 0.3),  # d^k = 10^14 coins per constraint
])
def test_oversized_generation_rejected_before_drawing(monkeypatch, model, k, n, alpha, r, p):
    monkeypatch.setattr("rbcsp.generator.SplitMix64", None)  # any draw would fail
    with pytest.raises(SizeError):
        generate(GenRequest(CspParams(model, k, n, alpha, r, p), seed=1))


def test_generation_bound_covers_benchmark_point():
    params = CspParams(ModelKind.RB, 2, 59, 0.8, 2.780845, 0.25)  # d=26 m=669 q=169
    sizes = derive_sizes(params)
    assert params.n + sizes.m * (params.k + sizes.q) < MAX_GEN_DRAWS
    inst = generate(GenRequest(params, seed=1, forced=True))
    assert len(inst.constraints) == 669
