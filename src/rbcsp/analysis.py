"""Closed-form quantities for Model RB/RD: phase-transition thresholds and
their side conditions, solution-count moments, distance profiles of the
solution set, 3-SAT comparison exponents, and flawed-tuple probabilities.

All moment and profile computations run in natural-log space with
log-sum-exp; the raw counts overflow float64 already at toy sizes.  Profiles
are exact finite-n expressions over integer similarity S (binomials via
lgamma), not the asymptotic per-(n ln n) exponents.  The effective tightness
is p for Model RD and q/d^k for Model RB, with q the rounded integer drawn
by the generator, so formulas agree with what instances actually contain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext

from .core import (CspParams, ForcedInfeasibleError, ModelKind, ParameterError, SizeError,
                   check_ranges, derive_sizes)

__all__ = [
    "ProfilePoint",
    "r_threshold",
    "p_threshold",
    "check_conditions",
    "effective_tightness",
    "first_moment_log",
    "pair_sat_prob_log",
    "forced_expected_count_log",
    "distance_profile",
    "MAX_PROFILE_N",
    "threesat_profile_exponent",
    "maximize_exponent",
    "flawed_prob_rd",
    "flawed_prob_rb",
]


@dataclass(frozen=True)
class Condition:
    name: str
    satisfied: bool
    margin: float


@dataclass(frozen=True)
class ProfilePoint:
    """One similarity class: S agreeing variables, distance d_t = 1 - S/n,
    and ln of the expected number of solutions in the class."""

    S: int
    d_t: float
    log_expected: float


def r_threshold(alpha: float, p: float) -> float:
    """Critical constraint density r_cr = -alpha / ln(1 - p)."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must be in (0, 1) for the r-transition, got {p}")
    return -alpha / math.log1p(-p)


def p_threshold(alpha: float, r: float) -> float:
    """Critical tightness p_cr = 1 - exp(-alpha / r)."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not r > 0:
        raise ParameterError(f"r must be positive, got {r}")
    return -math.expm1(-alpha / r)


def check_conditions(k: int, alpha: float, r: float, p: float) -> tuple[Condition, ...]:
    """Side conditions under which the thresholds are exact, with numeric
    margins (value - bound): alpha > 1/k; k >= 1/(1-p) for the r-transition;
    k e^(-alpha/r) >= 1 for the p-transition.  They do not involve n; k,
    alpha, r and p are range-checked as CspParams checks them.
    """
    check_ranges(k, alpha, r, p)
    margin_a = alpha - 1.0 / k
    margin_k = (k - 1.0 / (1.0 - p)) if p < 1.0 else -math.inf
    margin_e = k * math.exp(-alpha / r) - 1.0
    return (
        Condition("alpha_gt_1_over_k", margin_a > 0, margin_a),
        Condition("k_ge_1_over_1mp", margin_k >= 0, margin_k),
        Condition("k_exp_ge_1", margin_e >= 0, margin_e),
    )


def effective_tightness(params: CspParams) -> float:
    """p for RD; the realized q/d^k for RB (q is an integer rounding of p d^k)."""
    if params.model is ModelKind.RD:
        return params.p
    sizes = derive_sizes(params)
    return sizes.q / sizes.tuple_space


def first_moment_log(params: CspParams) -> float:
    """ln E[N] = n ln d + m ln(1 - p_eff); -inf when p_eff = 1."""
    sizes = derive_sizes(params)
    p_eff = effective_tightness(params)
    if p_eff >= 1.0:
        return -math.inf
    return params.n * math.log(sizes.d) + sizes.m * math.log1p(-p_eff)


def pair_sat_prob_log(params: CspParams, S: int) -> float:
    """ln Pr[one random constraint is satisfied by both assignments of a
    pair agreeing on S variables].

    With sigma = C(S,k)/C(n,k) the probability that the scope falls inside
    the agreeing variables (same induced tuple), the per-constraint value is

        RD:  (1-p) sigma + (1-p)^2 (1-sigma)
        RB:  (1-q/N) sigma + (1-sigma) (N-q)(N-q-1) / (N(N-1)),  N = d^k

    the RB off-sigma factor being the without-repetition probability that
    two distinct tuples both avoid the q-subset.
    """
    n, k = params.n, params.k
    if not 0 <= S <= n:
        raise ParameterError(f"similarity S must be in [0, {n}], got {S}")
    sizes = derive_sizes(params)
    sigma = math.comb(S, k) / math.comb(n, k)
    if params.model is ModelKind.RD:
        c1 = 1.0 - params.p
        both = c1 * c1
    else:
        N, q = sizes.tuple_space, sizes.q
        c1 = (N - q) / N
        both = (N - q) * (N - q - 1) / (N * (N - 1))
    value = c1 * sigma + both * (1.0 - sigma)
    if value <= 0.0:
        return -math.inf
    return math.log(value)


def _log_binomial(n: int, s: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(s + 1) - math.lgamma(n - s + 1)


def _logsumexp(values) -> float:
    values = [v for v in values if v != -math.inf]
    if not values:
        return -math.inf
    top = max(values)
    if top == math.inf:
        return math.inf
    return top + math.log(sum(math.exp(v - top) for v in values))


def forced_expected_count_log(params: CspParams) -> float:
    """ln of the expected solution count of forced instances,
    ln E_f[N] = ln E[N^2] - ln E[N]: the log-sum-exp of the forced
    distance profile, whose classes are the terms of E[N^2] / E[N]."""
    return _logsumexp(pt.log_expected for pt in distance_profile(params, forced=True))


MAX_PROFILE_N = 10 ** 6  # one class costs about 5 us, so the bound takes seconds


def distance_profile(params: CspParams, forced: bool) -> list[ProfilePoint]:
    """Expected solution counts per similarity class around a reference
    assignment (the hidden one, for forced instances).

    random:  ln C(n,S) + (n-S) ln(d-1) + m ln(1-p_eff)
    forced:  ln C(n,S) + (n-S) ln(d-1) + m [pair_sat_prob_log(S) - ln(1-p_eff)]

    Log-sum-exp over S gives ln E[N] (random) and ln E_f[N] (forced, which
    is how `forced_expected_count_log` computes it).  O(n): rejects n above
    `MAX_PROFILE_N`, and forced profiles at effective tightness 1, where no
    forced instance exists.
    """
    if params.n > MAX_PROFILE_N:
        raise SizeError(f"n = {params.n} exceeds the closed-form bound {MAX_PROFILE_N}")
    sizes = derive_sizes(params)
    n, d, m = params.n, sizes.d, sizes.m
    p_eff = effective_tightness(params)
    if forced and p_eff >= 1.0:
        raise ForcedInfeasibleError(
            "effective tightness 1 (q = d^k or p = 1): no forced instance exists")
    log_c1 = math.log1p(-p_eff) if p_eff < 1.0 else -math.inf
    points = []
    for S in range(n + 1):
        base = _log_binomial(n, S) + (n - S) * math.log(d - 1)
        if forced:
            value = base + m * (pair_sat_prob_log(params, S) - log_c1)
        else:
            value = base + m * log_c1
        points.append(ProfilePoint(S=S, d_t=1.0 - S / n, log_expected=value))
    return points


def threesat_profile_exponent(d_t: float, r: float, forced: bool) -> float:
    """Per-variable growth exponent of the random 3-SAT solution-distance
    profile at clause ratio r.

    forced:  H(d_t) + r ln((6 + (1-d_t)^3) / 7)
    random:  H(d_t) + r ln(7/8)

    with H the natural-log binary entropy; H vanishes at d_t in {0, 1}.
    """
    if not 0.0 <= d_t <= 1.0:
        raise ParameterError(f"d_t must be in [0, 1], got {d_t}")
    if not r > 0:
        raise ParameterError(f"r must be positive, got {r}")
    entropy = 0.0
    if 0.0 < d_t < 1.0:
        entropy = -d_t * math.log(d_t) - (1.0 - d_t) * math.log(1.0 - d_t)
    if forced:
        return entropy + r * math.log((6.0 + (1.0 - d_t) ** 3) / 7.0)
    return entropy + r * math.log(7.0 / 8.0)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_STEP = 1e-3
_ARGMAX_TOL = 1e-6


def maximize_exponent(f) -> tuple[float, float]:
    """Argmax of f on [0, 1]: coarse grid scan, then golden-section search
    on the bracketing cell pair down to `_ARGMAX_TOL`."""
    steps = int(round(1.0 / _GRID_STEP))
    best_i, best_v = 0, -math.inf
    for i in range(steps + 1):
        v = f(i * _GRID_STEP)
        if v > best_v:
            best_i, best_v = i, v
    lo = max(0.0, (best_i - 1) * _GRID_STEP)
    hi = min(1.0, (best_i + 1) * _GRID_STEP)
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > _ARGMAX_TOL:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    arg = 0.5 * (a + b)
    return arg, f(arg)


def flawed_prob_rd(d: int, p: float, i: int) -> float:
    """Probability that i RD constraints around a variable flaw all d of its
    values: [1 - (1-p)^i]^d."""
    if d < 1 or i < 0 or not 0.0 <= p <= 1.0:
        raise ParameterError(f"invalid flawed-probability inputs d={d}, p={p}, i={i}")
    return (-math.expm1(i * math.log1p(-p))) ** d if p < 1.0 else float(i > 0)


def flawed_prob_rb(d: int, k: int, q: int, i: int) -> float:
    """Inclusion-exclusion probability that i RB constraints flaw all d
    values of a variable:

        1 + sum_{j=1..d} (-1)^j C(d,j) [ C(N-j, q) / C(N, q) ]^i,   N = d^k.

    The alternating sum cancels heavily, so it runs in stdlib `decimal` at
    prec = 360 + log10(2^d N) digits.  Partial sums are at most 2^d, and the
    i-th power magnifies the running ratio's rounding error by at most
    i (1-1/N)^(ij) <= N/j, so the error stays under 2^d N 10^(1-prec) <=
    1e-359, far below the double spacing anywhere in [0, 1] (down to 4.9e-324):
    an exact zero (i q < d) comes out 0.0.  Clamped to [0, 1].  Capped at
    d <= 64 to bound the cost, as both the terms and the digits grow with d.
    """
    if d < 1 or k < 1 or i < 0:
        raise ParameterError(f"invalid flawed-probability inputs d={d}, k={k}, i={i}")
    N = d ** k
    if not 0 <= q <= N:
        raise ParameterError(f"q must be in [0, {N}], got {q}")
    if d > 64:
        raise SizeError(f"exact inclusion-exclusion capped at d <= 64, got d = {d}")
    if q == 0 or i == 0:
        return 0.0
    with localcontext(Context(prec=360 + math.ceil((d + N.bit_length()) * math.log10(2)))):
        total = ratio = Decimal(1)
        for j in range(1, d + 1):
            ratio *= Decimal(max(N - q - j + 1, 0)) / (N - j + 1)
            total += (-1) ** j * math.comb(d, j) * ratio ** i
        value = float(total)
    return min(1.0, max(0.0, value))
