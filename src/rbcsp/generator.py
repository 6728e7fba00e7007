"""Seeded generation of random and forced-satisfiable RB/RD instances.

The draw protocol is fixed so that (params, seed, forced) determines the
instance bit-for-bit.  One :class:`~rbcsp.rng.SplitMix64` stream is seeded
with the instance seed and consumed in this order:

1. forced mode only: the hidden assignment, one ``next_below(d)`` per
   variable in index order;
2. scopes, constraint by constraint: each scope is k partial Fisher-Yates
   draws over a fresh identity array of the n variable indices
   (``next_below(n - j)`` offsets for j = 0..k-1), then sorted ascending;
3. forbidden-tuple sets, constraint by constraint, each stored ascending:

   * RB draws a uniform q-subset of the d^k tuple ranks with Floyd's
     algorithm (exactly q ``next_below`` calls);
   * RD walks ranks 0..d^k-1 and marks each incompatible when the float
     of its draw, ``(x >> 11) 2^-53``, is below p;
   * forced variants exclude the rank the hidden assignment induces on the
     scope: RB runs Floyd over d^k - 1 ranks and shifts ranks >= hidden up
     by one; RD skips the hidden rank (one fewer coin).

Sorting scopes before the tuple draws does not change the distribution
(tuple coordinates are permuted consistently), and excluding the hidden
rank is exactly the conditional law of rejection sampling whole
constraints against the hidden assignment.

Every loop below pulls raw draws from the stream's ``draws`` iterator and
inlines ``next_below``'s rejection and the float coin (``x <
ceil(p 2^53) 2^11`` is exactly ``(x >> 11) 2^-53 < p``), so this protocol is
unchanged draw for draw: a rejection consumes exactly one raw draw and
shifts every later draw by one.  An instance that needs more than
``MAX_GEN_DRAWS`` draws raises ``SizeError`` before the first draw.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from .core import (
    Assignment,
    Constraint,
    CspInstance,
    CspParams,
    ForcedInfeasibleError,
    ModelKind,
    SizeError,
    _unchecked,
    derive_sizes,
    tuple_rank,
)
from .rng import SplitMix64, derive_stream

__all__ = ["GenRequest", "generate", "derive_stream", "MAX_GEN_DRAWS"]

MAX_GEN_DRAWS = 1 << 22


@dataclass(frozen=True)
class GenRequest:
    params: CspParams
    seed: int
    forced: bool = False


def _draw_scope(draws: Iterator[int], n: int, k: int) -> tuple[int, ...]:
    """Partial Fisher-Yates over range(n); `moved` holds only displaced entries."""
    moved: dict[int, int] = {}
    scope = []
    for j, x in zip(range(k), draws):
        bound = n - j
        while x < bound and x < (1 << 64) % bound:
            x = next(draws)
        t = j + x % bound
        scope.append(moved.get(t, t))
        moved[t] = moved.get(j, j)
    return tuple(sorted(scope))


def _floyd_subset(draws: Iterator[int], space: int, q: int) -> set[int]:
    """Uniform q-subset of [0, space) in exactly q next_below draws."""
    chosen: set[int] = set()
    for j, x in zip(range(space - q, space), draws):
        bound = j + 1
        while x < bound and x < (1 << 64) % bound:
            x = next(draws)
        t = x % bound
        chosen.add(j if t in chosen else t)
    return chosen


def _coin_walk(draws: Iterator[int], space: int, p: float) -> list[int]:
    """Ranks in [0, space) whose p-coin, one per rank in ascending order, came up."""
    limit = math.ceil(p * 2.0 ** 53) << 11
    return [rk for rk, x in zip(range(space), draws) if x < limit]


def generate(request: GenRequest) -> CspInstance:
    """Draw one instance; pure in (params, seed, forced)."""
    params = request.params
    sizes = derive_sizes(params)
    d, m, q, space = sizes.d, sizes.m, sizes.q, sizes.tuple_space
    k, n = params.k, params.n

    if request.forced:
        if params.model is ModelKind.RB and q >= space:
            raise ForcedInfeasibleError(f"q = d^k = {space}: no tuple left to protect")
        if params.model is ModelKind.RD and params.p >= 1.0:
            raise ForcedInfeasibleError("p = 1: every tuple would be forbidden")
    draw_count = n + m * (k + (q if params.model is ModelKind.RB else space))
    if draw_count > MAX_GEN_DRAWS:
        raise SizeError(f"instance needs about {draw_count} draws, more than {MAX_GEN_DRAWS}")

    rng = SplitMix64(request.seed)
    draws = rng.draws

    hidden_t = Assignment(tuple(rng.next_below(d) for _ in range(n))) if request.forced else None

    scopes = [_draw_scope(draws, n, k) for _ in range(m)]

    # by construction: m scopes of k distinct variables < n, each with
    # (for RB, q) distinct ascending ranks < d^k, so the constructors' checks are skipped
    constraints = []
    size = space if hidden_t is None else space - 1
    for scope in scopes:
        if params.model is ModelKind.RB:
            ranks = sorted(_floyd_subset(draws, size, q))
        else:
            ranks = _coin_walk(draws, size, params.p)
        if hidden_t is not None:
            # drawn from the space with the hidden rank removed: shift back
            i = bisect_left(ranks, tuple_rank([hidden_t[u] for u in scope], d))
            ranks[i:] = map((1).__add__, ranks[i:])
        constraints.append(_unchecked(Constraint, scope=scope, incompatible=tuple(ranks)))

    return _unchecked(CspInstance, params=params, sizes=sizes, constraints=tuple(constraints),
                      seed=request.seed, forced=hidden_t)
