import itertools
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from rbcsp.analysis import check_conditions, first_moment_log, forced_expected_count_log
from rbcsp.core import (
    Assignment,
    Constraint,
    CspInstance,
    CspParams,
    DerivedSizes,
    DimensionMismatchError,
    ModelKind,
    ParameterError,
    RbcspError,
    check_assignment,
    derive_sizes,
    distance,
    rank_tuple,
    round_half_away,
    similarity,
    tuple_rank,
)
from rbcsp.encoder import read_csp_native, write_csp_native
from rbcsp.generator import GenRequest, generate


def params(model=ModelKind.RB, k=2, n=4, alpha=0.5, r=1.0, p=0.0):
    return CspParams(model=model, k=k, n=n, alpha=alpha, r=r, p=p)


class TestDeriveSizes:
    def test_classic_benchmark_n59(self):
        p = params(n=59, alpha=0.8, r=0.8 / math.log(4 / 3), p=0.25)
        sizes = derive_sizes(p)
        assert (sizes.d, sizes.m, sizes.q) == (26, 669, 169)

    def test_classic_benchmark_n30(self):
        p = params(n=30, alpha=math.log(15) / math.log(30), r=250 / (30 * math.log(30)), p=0.3)
        sizes = derive_sizes(p)
        assert (sizes.d, sizes.m) == (15, 250)

    def test_tiny_family(self):
        sizes = derive_sizes(params())  # k=2 n=4 alpha=0.5 r=1 p=0
        assert (sizes.d, sizes.m, sizes.q, sizes.tuple_space) == (2, 6, 0, 4)

    def test_deterministic(self):
        p = params(n=17, alpha=0.7, r=1.3, p=0.4)
        assert derive_sizes(p) == derive_sizes(p)

    def test_rejects_degenerate_domain(self):
        with pytest.raises(ParameterError):
            derive_sizes(params(n=4, alpha=0.1))

    def test_rejects_degenerate_constraints(self):
        with pytest.raises(ParameterError):
            derive_sizes(params(n=2, alpha=1.0, r=0.1))

    @pytest.mark.parametrize("kwargs", [
        dict(n=10, alpha=400.0),  # n^alpha beyond float range
        dict(n=10, alpha=200.0),  # d^k beyond float range
        dict(n=10, r=1e308),  # r n ln n beyond float range
    ])
    def test_rejects_overflowing_sizes(self, kwargs):
        with pytest.raises(ParameterError, match="overflow"):
            derive_sizes(params(**kwargs))

    def test_huge_arity_rejected_before_exponentiating(self):
        # d^k with k = 10^7 is a 1.9e8-bit integer: computing it takes seconds
        start = time.perf_counter()
        with pytest.raises(ParameterError, match="overflow"):
            derive_sizes(params(k=10**7, n=10**7, alpha=0.8))
        assert time.perf_counter() - start < 1.0


class TestRounding:
    @pytest.mark.parametrize("x,expected", [
        (0.5, 1), (1.5, 2), (2.4999, 2), (2.5, 3), (-0.5, -1), (-1.5, -2), (0.0, 0),
    ])
    def test_half_away_from_zero(self, x, expected):
        assert round_half_away(x) == expected


class TestParamsValidation:
    def test_rejects_bad_arity(self):
        with pytest.raises(ParameterError):
            params(k=1)

    def test_rejects_bad_p(self):
        with pytest.raises(ParameterError):
            params(p=1.5)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ParameterError):
            params(alpha=0.0)

    @pytest.mark.parametrize("field,value", [
        ("alpha", math.inf), ("alpha", math.nan), ("r", math.inf), ("r", math.nan),
    ])
    def test_rejects_nonfinite(self, field, value):
        with pytest.raises(ParameterError, match="finite"):
            params(**{field: value})

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_model_name_is_the_enum_member(self, kind):
        by_name = CspParams(kind.value, 2, 10, 0.8, 1.0, 0.3)
        assert by_name == CspParams(kind, 2, 10, 0.8, 1.0, 0.3)
        assert by_name.model is kind
        for forced in (False, True):
            texts = {write_csp_native(generate(GenRequest(p, seed=7, forced=forced)))
                     for p in (by_name, CspParams(kind, 2, 10, 0.8, 1.0, 0.3))}
            assert len(texts) == 1

    @pytest.mark.parametrize("model", ["xx", "RB", "", None, 1])
    def test_rejects_unknown_model(self, model):
        with pytest.raises(ParameterError, match="model must be 'rb' or 'rd'"):
            params(model=model)

    def test_from_sizes_reproduces(self):
        p = CspParams.from_sizes(ModelKind.RD, 2, 4, 3, 6, 0.3)
        sizes = derive_sizes(p)
        assert (sizes.d, sizes.m) == (3, 6)



# edge values of each real field: out of range, zero, tiny, ordinary, large,
# infinite and nan
EDGE_ALPHAS = (-1.0, 0.0, 1e-12, 0.4, 1.0, 3.0, 600.0, math.inf, math.nan)
EDGE_RS = (-1.0, 0.0, 1e-12, 0.3, 1.0, 3.0, math.inf, math.nan)
EDGE_PS = (-0.1, 0.0, 1e-12, 0.5, 1 - 1e-12, 1.0, 1.1, math.nan)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(model=st.sampled_from(list(ModelKind)), k=st.integers(1, 4), n=st.integers(1, 6),
       alpha=st.sampled_from(EDGE_ALPHAS), r=st.sampled_from(EDGE_RS), p=st.sampled_from(EDGE_PS))
def test_edge_grid_returns_or_raises_rbcsp_error(model, k, n, alpha, r, p):
    """A pair of fields that are each valid can still meet at a point no
    closed form or generator handles.  Either the constructor rejects the
    point, or every library entry point on it returns (a moment never as nan)
    or raises an RbcspError; both generators run where d^k <= 4096."""
    try:
        params = CspParams(model, k, n, alpha, r, p)
    except RbcspError:
        return
    calls = [lambda: derive_sizes(params), lambda: check_conditions(k, alpha, r, p),
             lambda: first_moment_log(params), lambda: forced_expected_count_log(params)]
    try:
        small = derive_sizes(params).tuple_space <= 4096
    except RbcspError:
        small = False
    if small:
        calls += [lambda: generate(GenRequest(params, seed=1)),
                  lambda: generate(GenRequest(params, seed=1, forced=True))]
    for call in calls:
        try:
            value = call()
        except RbcspError:
            continue
        assert not (isinstance(value, float) and math.isnan(value)), params

class TestTupleRank:
    def test_row_major(self):
        assert tuple_rank((0, 0), 3) == 0
        assert tuple_rank((1, 2), 3) == 5
        assert tuple_rank((2, 2), 3) == 8

    def test_roundtrip(self):
        d, k = 4, 3
        for rank in range(d ** k):
            assert tuple_rank(rank_tuple(rank, d, k), d) == rank


def single_constraint_instance():
    p = params(n=2, alpha=1.0, r=1 / (2 * math.log(2)), p=0.25)
    con = Constraint(scope=(0, 1), incompatible=(1,))  # forbids (0, 1)
    return CspInstance(params=p, constraints=(con,), seed=0)


class TestCheckAssignment:
    def test_p0_always_satisfied(self):
        from rbcsp.generator import GenRequest, generate

        inst = generate(GenRequest(params(), seed=4))
        for values in itertools.product(range(2), repeat=4):
            assert check_assignment(inst, Assignment(values)).satisfied

    def test_single_constraint_example(self):
        inst = single_constraint_instance()
        bad = check_assignment(inst, Assignment((0, 1)))
        assert not bad.satisfied and bad.violated_index == 0
        assert check_assignment(inst, Assignment((1, 1))).satisfied

    def test_matches_exhaustive_oracle(self):
        # oracle: test every constraint directly, instead of the early-exit path
        from rbcsp.generator import GenRequest, generate
        from rbcsp.rng import derive_stream

        fam = CspParams.from_sizes(ModelKind.RD, 2, 5, 3, 8, 0.4)
        for i in range(30):
            inst = generate(GenRequest(fam, seed=derive_stream(31337, i)))
            for values in itertools.product(range(3), repeat=5):
                expected = all(
                    tuple_rank([values[u] for u in con.scope], 3) not in con.incompatible
                    for con in inst.constraints
                )
                assert check_assignment(inst, Assignment(values)).satisfied == expected

    def test_dimension_mismatch(self):
        inst = single_constraint_instance()
        with pytest.raises(DimensionMismatchError):
            check_assignment(inst, Assignment((0, 0, 0)))

    def test_value_out_of_domain(self):
        inst = single_constraint_instance()
        with pytest.raises(DimensionMismatchError):
            check_assignment(inst, Assignment((0, 5)))


class TestSimilarityDistance:
    def test_identity(self):
        t = Assignment((0, 1, 2))
        assert similarity(t, t) == 3
        assert distance(t, t) == 0.0

    def test_partial_agreement(self):
        assert similarity(Assignment((0, 1, 2)), Assignment((0, 2, 2))) == 2
        assert distance(Assignment((0, 1, 2, 3)), Assignment((0, 1, 2, 0))) == 0.25

    def test_total_disagreement(self):
        assert distance(Assignment((0, 0)), Assignment((1, 1))) == 1.0

    def test_exhaustive_tally_n2_d2(self):
        # brute-force count of agreeing positions over all 16 ordered pairs
        for t1 in itertools.product(range(2), repeat=2):
            for t2 in itertools.product(range(2), repeat=2):
                expected = sum(1 for a, b in zip(t1, t2) if a == b)
                assert similarity(Assignment(t1), Assignment(t2)) == expected

    def test_symmetry_and_bounds(self):
        import random

        rnd = random.Random(7)
        for _ in range(200):
            n = rnd.randint(1, 12)
            t1 = Assignment(tuple(rnd.randrange(3) for _ in range(n)))
            t2 = Assignment(tuple(rnd.randrange(3) for _ in range(n)))
            assert distance(t1, t2) == distance(t2, t1)
            assert 0.0 <= distance(t1, t2) <= 1.0
            assert (distance(t1, t2) == 0.0) == (t1 == t2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            similarity(Assignment((0,)), Assignment((0, 1)))


class TestConstraint:
    def test_rejects_repeated_scope_variable(self):
        with pytest.raises(ParameterError):
            Constraint(scope=(1, 1), incompatible=())

    @staticmethod
    def rd_instance(con):
        p = params(model=ModelKind.RD)  # k=2 n=4 d=2 m=6
        return CspInstance(params=p, constraints=(con,) * 6, seed=0)

    def test_rejects_duplicate_tuples(self):
        self.rd_instance(Constraint(scope=(0, 1), incompatible=(1, 3)))
        with pytest.raises(ParameterError, match="duplicate"):
            self.rd_instance(Constraint(scope=(0, 1), incompatible=(1, 1)))

    def test_rejects_arity_mismatch(self):
        # ranks live in [0, d^k) = [0, 4) and scopes hold k = 2 variables of [0, 4)
        self.rd_instance(Constraint(scope=(2, 3), incompatible=(0, 3)))
        for con in (Constraint(scope=(0, 1), incompatible=(4,)),
                    Constraint(scope=(0, 1), incompatible=(-1,)),
                    Constraint(scope=(0, 1, 2), incompatible=()),
                    Constraint(scope=(0, 4), incompatible=())):
            with pytest.raises(ParameterError):
                self.rd_instance(con)

    def test_canonicalizes_tuple_order(self):
        con = Constraint(scope=(0, 1), incompatible=(2, 1))
        assert con.incompatible == (1, 2)

    def test_instance_rejects_wrong_constraint_count(self):
        p = params()
        with pytest.raises(ParameterError):
            CspInstance(params=p, constraints=(), seed=0)

    def test_instance_rejects_rb_with_wrong_q(self):
        p = params(p=0.5)  # q = 2
        sizes = derive_sizes(p)
        cons = tuple(Constraint((0, 1), (0,)) for _ in range(sizes.m))
        with pytest.raises(ParameterError):
            CspInstance(params=p, constraints=cons, seed=0)


class TestInstanceSizes:
    # RD k=2 n=4 alpha=0.5 r=1 p=0: d=2, m=6
    cons = (Constraint(scope=(0, 1), incompatible=(1,)),) * 6

    def test_sizes_are_derived_from_params(self):
        p = params(model=ModelKind.RD)
        inst = CspInstance(p, self.cons, 0)
        assert inst.sizes == derive_sizes(p) == DerivedSizes(d=2, m=6, q=0, tuple_space=4)

    def test_sizes_cannot_be_passed(self):
        p = params(model=ModelKind.RD)
        with pytest.raises(TypeError):
            CspInstance(p, sizes=DerivedSizes(d=3, m=6, q=0, tuple_space=9), constraints=self.cons, seed=0)

    def test_hand_built_instance_round_trips_native(self):
        inst = CspInstance(params(model=ModelKind.RD), self.cons, seed=5)
        assert read_csp_native(write_csp_native(inst)) == inst
