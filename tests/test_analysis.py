import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from rbcsp.analysis import (
    _logsumexp,
    check_conditions,
    distance_profile,
    effective_tightness,
    first_moment_log,
    flawed_prob_rb,
    flawed_prob_rd,
    forced_expected_count_log,
    maximize_exponent,
    p_threshold,
    pair_sat_prob_log,
    r_threshold,
    threesat_profile_exponent,
)
from rbcsp.core import CspParams, ModelKind, ParameterError, SizeError, derive_sizes


class TestThresholds:
    def test_classic_benchmark_r(self):
        assert r_threshold(0.8, 0.25) == pytest.approx(0.8 / math.log(4 / 3), rel=1e-15)

    def test_unit_r(self):
        assert r_threshold(1.0, 1.0 - 1.0 / math.e) == pytest.approx(1.0, rel=1e-12)

    def test_derived_value(self):
        # frozen from 40-digit mpmath evaluation of -0.8/ln(1/2)
        assert r_threshold(0.8, 0.5) == pytest.approx(1.1541560327111707, abs=1e-15)

    def test_classic_benchmark_p(self):
        assert p_threshold(0.8, 0.8 / math.log(4 / 3)) == pytest.approx(0.25, abs=1e-12)

    def test_derived_p_value(self):
        # frozen from 40-digit mpmath evaluation of 1 - e^(-8/15)
        assert p_threshold(0.8, 1.5) == pytest.approx(0.4133537804899682, abs=1e-15)

    def test_round_trip_grid(self):
        for alpha in np.linspace(0.2, 2.0, 20):
            for p in np.linspace(0.04, 0.96, 20):
                back = p_threshold(alpha, r_threshold(alpha, p))
                assert abs(back - p) <= 1e-12 * p

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            r_threshold(0.8, 0.0)
        with pytest.raises(ParameterError):
            r_threshold(0.8, 1.0)
        with pytest.raises(ParameterError):
            p_threshold(-0.1, 1.0)
        with pytest.raises(ParameterError):
            p_threshold(0.8, 0.0)


class TestConditions:
    def test_classic_benchmark_set_all_satisfied(self):
        params = CspParams(ModelKind.RB, 2, 59, 0.8, 0.8 / math.log(4 / 3), 0.25)
        conds = {c.name: c for c in check_conditions(params.k, params.alpha, params.r, params.p)}
        assert conds["k_ge_1_over_1mp"].satisfied
        assert conds["k_ge_1_over_1mp"].margin == pytest.approx(2 - 4 / 3)
        assert conds["k_exp_ge_1"].satisfied
        assert conds["k_exp_ge_1"].margin == pytest.approx(0.5, abs=1e-12)  # 2*0.75 - 1
        assert conds["alpha_gt_1_over_k"].satisfied

    def test_alpha_condition_fails(self):
        params = CspParams(ModelKind.RB, 2, 10, 0.4, 1.0, 0.3)
        conds = {c.name: c for c in check_conditions(params.k, params.alpha, params.r, params.p)}
        assert not conds["alpha_gt_1_over_k"].satisfied
        assert conds["alpha_gt_1_over_k"].margin == pytest.approx(-0.1)


class TestFirstMoment:
    def test_direct_substitution(self):
        params = CspParams.from_sizes(ModelKind.RD, 2, 4, 3, 6, 0.3)
        assert first_moment_log(params) == pytest.approx(math.log(81 * 0.7 ** 6), rel=1e-12)

    def test_p0(self):
        params = CspParams(ModelKind.RD, 2, 4, 0.5, 1.0, 0.0)
        assert first_moment_log(params) == pytest.approx(4 * math.log(2))

    def test_rb_matches_rd_when_q_exact(self):
        rb = CspParams(ModelKind.RB, 2, 4, 0.5, 1.0, 0.5)  # q = 2 = p * d^k exactly
        rd = CspParams(ModelKind.RD, 2, 4, 0.5, 1.0, 0.5)
        assert first_moment_log(rb) == pytest.approx(first_moment_log(rd), rel=1e-15)

    def test_p1_is_neg_inf(self):
        params = CspParams(ModelKind.RD, 2, 4, 0.5, 1.0, 1.0)
        assert first_moment_log(params) == -math.inf


class TestPairSatProb:
    def test_s_equals_n(self):
        params = CspParams.from_sizes(ModelKind.RD, 2, 5, 3, 7, 0.4)
        assert pair_sat_prob_log(params, 5) == pytest.approx(math.log(0.6), rel=1e-12)

    def test_s_below_k(self):
        params = CspParams.from_sizes(ModelKind.RD, 2, 5, 3, 7, 0.4)
        assert pair_sat_prob_log(params, 1) == pytest.approx(2 * math.log(0.6), rel=1e-12)

    def test_rb_distinct_tuple_factor_by_enumeration(self):
        # oracle: all C(4,2)=6 incompatible sets; count those avoiding two
        # fixed distinct ranks -> 1/6
        space, q = 4, 2
        sets = list(itertools.combinations(range(space), q))
        hits = sum(1 for s in sets if 0 not in s and 1 not in s)
        assert hits / len(sets) == pytest.approx(1 / 6)
        params = CspParams(ModelKind.RB, 2, 4, 0.5, 1.0, 0.5)  # d=2, q=2
        # S=0 < k: sigma=0, so the value is exactly the distinct-tuple factor
        assert pair_sat_prob_log(params, 0) == pytest.approx(math.log(1 / 6), rel=1e-12)

    def test_domain_error(self):
        params = CspParams.from_sizes(ModelKind.RD, 2, 5, 3, 7, 0.4)
        with pytest.raises(ParameterError):
            pair_sat_prob_log(params, 6)


def brute_force_moments(params):
    """Exact E[N] and E[N^2] by enumerating the whole instance distribution.

    Tractable only for tiny families; this is the independent oracle for the
    closed forms."""
    from rbcsp.core import derive_sizes

    sizes = derive_sizes(params)
    n, k, d, p = params.n, params.k, sizes.d, params.p
    scopes = list(itertools.combinations(range(n), k))
    all_tuples = list(itertools.product(range(d), repeat=k))
    options = []
    if params.model is ModelKind.RD:
        for scope in scopes:
            for bits in range(1 << len(all_tuples)):
                forb = frozenset(t for i, t in enumerate(all_tuples) if bits >> i & 1)
                prob = (1 / len(scopes)) * p ** len(forb) * (1 - p) ** (len(all_tuples) - len(forb))
                options.append((prob, scope, forb))
    else:
        subsets = list(itertools.combinations(all_tuples, sizes.q))
        for scope in scopes:
            for forb in subsets:
                options.append((1 / (len(scopes) * len(subsets)), scope, frozenset(forb)))

    EN = 0.0
    EN2 = 0.0
    for combo in itertools.product(options, repeat=sizes.m):
        weight = math.prod(opt[0] for opt in combo)
        count = 0
        for t in itertools.product(range(d), repeat=n):
            if all(tuple(t[u] for u in scope) not in forb for _, scope, forb in combo):
                count += 1
        EN += weight * count
        EN2 += weight * count * count
    return EN, EN2


class TestForcedExpectedCount:
    def test_p0_equals_first_moment(self):
        params = CspParams(ModelKind.RD, 2, 4, 0.5, 1.0, 0.0)
        assert forced_expected_count_log(params) == pytest.approx(first_moment_log(params), rel=1e-12)

    def test_rd_brute_force_oracle(self):
        params = CspParams.from_sizes(ModelKind.RD, 2, 3, 2, 2, 0.5)
        EN, EN2 = brute_force_moments(params)
        assert first_moment_log(params) == pytest.approx(math.log(EN), abs=1e-12)
        assert forced_expected_count_log(params) == pytest.approx(math.log(EN2 / EN), abs=1e-12)

    def test_rb_brute_force_oracle(self):
        params = CspParams.from_sizes(ModelKind.RB, 2, 3, 2, 2, 0.5)
        EN, EN2 = brute_force_moments(params)
        assert first_moment_log(params) == pytest.approx(math.log(EN), abs=1e-12)
        assert forced_expected_count_log(params) == pytest.approx(math.log(EN2 / EN), abs=1e-12)

    def test_second_moment_dominates_on_grid(self):
        # Cauchy-Schwarz: E[N^2] >= E[N]^2, so ln E_f[N] >= ln E[N]
        for model in (ModelKind.RB, ModelKind.RD):
            for n in (6, 12, 20):
                for alpha in (0.6, 0.8, 1.1):
                    for p in (0.1, 0.25, 0.5):
                        for r in (0.8, 1.5, 3.0):
                            params = CspParams(model, 2, n, alpha, r, p)
                            assert forced_expected_count_log(params) >= first_moment_log(params) - 1e-9

    def test_matches_exact_rational_sum(self):
        """E_f[N] = sum_S C(n,S) (d-1)^(n-S) pair_S^m / (1-p_eff)^m summed in
        exact rationals over test_05's grid, independent of the profile."""
        r_cr = r_threshold(0.8, 0.25)
        for model, n, r, p in itertools.product(
                (ModelKind.RB, ModelKind.RD), (8, 20, 59), (1.5, r_cr), (0.1, 0.25, 0.5)):
            params = CspParams(model, 2, n, 0.8, r, p)
            sizes = derive_sizes(params)
            d, m, N, q = sizes.d, sizes.m, sizes.tuple_space, sizes.q
            if model is ModelKind.RD:
                c1 = 1 - Fraction(p)
                both = c1 * c1
            else:
                c1 = Fraction(N - q, N)
                both = Fraction((N - q) * (N - q - 1), N * (N - 1))
            total = Fraction(0)
            for S in range(n + 1):
                sigma = Fraction(math.comb(S, 2), math.comb(n, 2))
                pair = c1 * sigma + both * (1 - sigma)
                total += math.comb(n, S) * (d - 1) ** (n - S) * (pair / c1) ** m
            exact = math.log(total.numerator) - math.log(total.denominator)
            value = forced_expected_count_log(params)
            assert abs(value - exact) <= 1e-11 * max(1.0, abs(exact)), (params, value, exact)



class TestSecondMomentRatio:
    """ln(E[N^2] / E[N]^2) = forced_expected_count_log - first_moment_log.
    Below the threshold the second-moment method needs the ratio to tend to 1
    (Xu & Li, JAIR 2000), so its log falls towards 0 as n grows; above it
    E[N] -> 0 and the log ratio grows.  Every point checked satisfies
    `check_conditions`, but this test cannot show that those side conditions
    are needed: at RB k=2 with p = 0.6, where k >= 1/(1-p) fails, the log
    ratio below the threshold still falls towards 0 over n <= 10^5."""

    N_VALUES = (10 ** 2, 10 ** 3, 10 ** 4)

    def log_ratios(self, model, k, p, factor):
        r = factor * r_threshold(0.8, p)
        assert all(c.satisfied for c in check_conditions(k, 0.8, r, p))
        ratios = []
        for n in self.N_VALUES:
            params = CspParams(model, k, n, 0.8, r, p)
            ratios.append(forced_expected_count_log(params) - first_moment_log(params))
        return ratios

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("k,p", [(2, 0.25), (3, 0.5)])
    def test_falls_below_and_rises_above_the_threshold(self, model, k, p):
        below = self.log_ratios(model, k, p, 0.9)
        assert below[0] > below[1] > below[2], below
        above = self.log_ratios(model, k, p, 1.1)
        assert above[0] < above[1] < above[2], above

class TestDistanceProfile:
    @pytest.mark.parametrize("model", [ModelKind.RB, ModelKind.RD])
    def test_forced_reference_point_is_zero(self, model):
        params = CspParams(model, 2, 10, 0.8, 1.2, 0.3)
        pts = distance_profile(params, forced=True)
        assert pts[-1].S == 10
        assert pts[-1].d_t == 0.0
        assert pts[-1].log_expected == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("model", [ModelKind.RB, ModelKind.RD])
    def test_lse_identities(self, model):
        for n in (8, 20, 59):
            for p in (0.1, 0.25):
                params = CspParams(model, 2, n, 0.8, 1.5, p)
                pts_r = distance_profile(params, forced=False)
                pts_f = distance_profile(params, forced=True)
                lse_r = _logsumexp(pt.log_expected for pt in pts_r)
                lse_f = _logsumexp(pt.log_expected for pt in pts_f)
                assert abs(lse_r - first_moment_log(params)) <= 1e-9 * abs(first_moment_log(params))
                assert abs(lse_f - forced_expected_count_log(params)) <= max(
                    1e-9 * abs(forced_expected_count_log(params)), 1e-12)

    def test_dt_values(self):
        params = CspParams(ModelKind.RD, 2, 4, 0.8, 1.2, 0.3)
        pts = distance_profile(params, forced=False)
        assert [pt.S for pt in pts] == [0, 1, 2, 3, 4]
        assert [pt.d_t for pt in pts] == [1.0, 0.75, 0.5, 0.25, 0.0]


class TestThreeSatExponent:
    def test_random_symmetric_max_at_half(self):
        f = lambda x: threesat_profile_exponent(x, 4.25, False)
        assert f(0.3) == pytest.approx(f(0.7), rel=1e-12)
        arg, _ = maximize_exponent(f)
        assert abs(arg - 0.5) <= 1e-4

    def test_forced_max_near_quarter(self):
        arg, _ = maximize_exponent(lambda x: threesat_profile_exponent(x, 4.25, True))
        assert 0.23 <= arg <= 0.25

    def test_forced_endpoint(self):
        assert threesat_profile_exponent(1.0, 4.25, True) == pytest.approx(
            4.25 * math.log(6 / 7), rel=1e-12)

    def test_entropy_endpoints_zero(self):
        assert threesat_profile_exponent(0.0, 2.0, False) == pytest.approx(2.0 * math.log(7 / 8))

    def test_domain_error(self):
        with pytest.raises(ParameterError):
            threesat_profile_exponent(1.2, 4.25, True)


class TestMaximize:
    def test_quadratic(self):
        arg, val = maximize_exponent(lambda x: -((x - 0.3) ** 2))
        assert abs(arg - 0.3) <= 1e-6
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_boundary_max(self):
        arg, _ = maximize_exponent(lambda x: x)
        assert abs(arg - 1.0) <= 1e-6


def simulate_flawed_rd(d, p, i, trials, seed):
    rng = np.random.default_rng(seed)
    flawed = 0
    chunk = 200_000
    remaining = trials
    while remaining:
        size = min(chunk, remaining)
        coins = rng.random((size, d, i)) < p
        flawed += int(coins.any(axis=2).all(axis=1).sum())
        remaining -= size
    return flawed / trials


def simulate_flawed_rb(d, k, q, i, trials, seed):
    rng = np.random.default_rng(seed)
    space = d ** k
    flawed = 0
    chunk = 100_000
    remaining = trials
    while remaining:
        size = min(chunk, remaining)
        # uniform q-subsets per (trial, constraint) via random permutations
        subsets = rng.random((size, i, space)).argsort(axis=2)[:, :, :q]
        # value v is flawed when any constraint's subset contains rank v
        member = (subsets[:, :, :, None] == np.arange(d)).any(axis=2)  # (size, i, d)
        flawed += int(member.any(axis=1).all(axis=1).sum())
        remaining -= size
    return flawed / trials


class TestFlawedProbabilities:
    def test_rd_trivial_values(self):
        assert flawed_prob_rd(2, 0.5, 1) == pytest.approx(0.25)
        assert flawed_prob_rd(5, 0.3, 0) == 0.0
        assert flawed_prob_rd(3, 1.0, 2) == 1.0

    def test_rd_monte_carlo(self):
        exact = flawed_prob_rd(3, 0.3, 4)
        est = simulate_flawed_rd(3, 0.3, 4, trials=400_000, seed=11)
        sigma = math.sqrt(exact * (1 - exact) / 400_000)
        assert abs(est - exact) < 3 * sigma

    def test_rb_exact_sixth(self):
        # oracle: the 6 two-subsets of a 4-tuple space, exactly one contains
        # both ranks that flaw the variable
        sets = list(itertools.combinations(range(4), 2))
        target = sum(1 for s in sets if set(s) == {0, 1}) / len(sets)
        assert target == pytest.approx(1 / 6)
        assert flawed_prob_rb(2, 2, 2, 1) == pytest.approx(1 / 6, abs=1e-14)

    def test_rb_trivial_values(self):
        assert flawed_prob_rb(3, 2, 0, 5) == 0.0
        assert flawed_prob_rb(3, 2, 4, 0) == 0.0

    def test_rb_monte_carlo(self):
        exact = flawed_prob_rb(2, 2, 3, 2)
        est = simulate_flawed_rb(2, 2, 3, 2, trials=400_000, seed=13)
        sigma = math.sqrt(exact * (1 - exact) / 400_000)
        assert abs(est - exact) < 3 * sigma

    @pytest.mark.parametrize("d,k,q", [(2, 2, 2), (3, 2, 4), (2, 3, 5)])
    def test_rb_nondecreasing_in_i(self, d, k, q):
        values = [flawed_prob_rb(d, k, q, i) for i in range(10)]
        assert all(a <= b + 1e-14 for a, b in zip(values, values[1:]))

    def test_rd_nondecreasing_in_i(self):
        values = [flawed_prob_rd(3, 0.4, i) for i in range(10)]
        assert all(a <= b + 1e-14 for a, b in zip(values, values[1:]))

    def test_rb_size_cap(self):
        with pytest.raises(SizeError):
            flawed_prob_rb(65, 2, 10, 1)

    def test_rb_within_unit_interval(self):
        for i in (1, 5, 40):
            v = flawed_prob_rb(64, 2, 2048, i)
            assert 0.0 <= v <= 1.0


def exact_flawed_prob_rb(d, k, q, i):
    """Reference oracle: the inclusion-exclusion sum in exact rationals,
    C(N-j, q)/C(N, q) taken from math.comb, rounded to float once."""
    N = d ** k
    total = sum((-1) ** j * math.comb(d, j) * Fraction(math.comb(N - j, q), math.comb(N, q)) ** i
                for j in range(d + 1))
    return min(1.0, max(0.0, float(total)))


class TestFlawedExactOracle:
    @pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (5, 2), (8, 2), (2, 3), (3, 3), (16, 2)])
    def test_rb_equals_exact_sum(self, d, k):
        N = d ** k
        for q in sorted({1, 2, 3, N // 4, N // 2, 3 * N // 4, N - 1, N}):
            for i in (1, 2, 3, 7, 20):
                assert flawed_prob_rb(d, k, q, i) == exact_flawed_prob_rb(d, k, q, i), (q, i)

    @pytest.mark.parametrize("d,k,q,i", [(3, 2, 1, 1), (5, 2, 2, 2), (64, 2, 1, 63), (64, 3, 7, 9)])
    def test_rb_exact_zero_when_iq_below_d(self, d, k, q, i):
        # i constraints with q forbidden tuples each flaw at most i*q values
        assert exact_flawed_prob_rb(d, k, q, i) == 0.0
        assert flawed_prob_rb(d, k, q, i) == 0.0

    @pytest.mark.parametrize("d,k,q,i", [(64, 2, 2, 40), (64, 2, 64, 1), (64, 2, 2048, 5),
                                         (32, 3, 100, 4)])
    def test_rb_heavy_cancellation(self, d, k, q, i):
        assert flawed_prob_rb(d, k, q, i) == exact_flawed_prob_rb(d, k, q, i)


class TestEffectiveTightness:
    def test_rd_is_p(self):
        params = CspParams(ModelKind.RD, 2, 10, 0.8, 1.2, 0.37)
        assert effective_tightness(params) == 0.37

    def test_rb_is_rounded_ratio(self):
        params = CspParams(ModelKind.RB, 2, 10, 0.8, 1.2, 0.37)  # d=6, q=round(13.32)=13
        assert effective_tightness(params) == pytest.approx(13 / 36)
