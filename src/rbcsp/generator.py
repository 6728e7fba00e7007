"""Seeded generation of random and forced-satisfiable RB/RD instances.

The draw protocol is fixed so that (params, seed, forced) determines the
instance bit-for-bit.  One :class:`~rbcsp.rng.SplitMix64` stream is seeded
with the instance seed and consumed in this order:

1. forced mode only: the hidden assignment, one ``next_below(d)`` per
   variable in index order;
2. scopes, constraint by constraint: each scope is k partial Fisher-Yates
   draws over a fresh identity array of the n variable indices
   (``next_below(n - j)`` offsets for j = 0..k-1), then sorted ascending;
3. forbidden-tuple sets, constraint by constraint:

   * RB draws a uniform q-subset of the d^k tuple ranks with Floyd's
     algorithm (exactly q ``next_below`` calls), sorted ascending;
   * RD walks ranks 0..d^k-1 and marks each incompatible when
     ``next_float() < p``;
   * forced variants exclude the rank the hidden assignment induces on the
     scope: RB runs Floyd over d^k - 1 ranks and shifts ranks >= hidden up
     by one; RD skips the hidden rank (one fewer coin).

Sorting scopes before the tuple draws does not change the distribution
(tuple coordinates are permuted consistently), and excluding the hidden
rank is exactly the conditional law of rejection sampling whole
constraints against the hidden assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Assignment,
    Constraint,
    CspInstance,
    CspParams,
    ForcedInfeasibleError,
    ModelKind,
    derive_sizes,
    tuple_rank,
)
from .rng import SplitMix64, derive_stream

__all__ = ["GenRequest", "generate", "derive_stream"]


@dataclass(frozen=True)
class GenRequest:
    params: CspParams
    seed: int
    forced: bool = False


def _draw_scope(rng: SplitMix64, n: int, k: int) -> tuple[int, ...]:
    idx = list(range(n))
    for j in range(k):
        t = j + rng.next_below(n - j)
        idx[j], idx[t] = idx[t], idx[j]
    return tuple(sorted(idx[:k]))


def _floyd_subset(rng: SplitMix64, space: int, q: int) -> list[int]:
    """Uniform q-subset of [0, space) in exactly q draws."""
    chosen: set[int] = set()
    for j in range(space - q, space):
        t = rng.next_below(j + 1)
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


def _rb_ranks(rng: SplitMix64, space: int, q: int, hidden: int | None) -> list[int]:
    if hidden is None:
        return _floyd_subset(rng, space, q)
    # Sample from the space with the hidden rank removed, then shift back.
    ranks = _floyd_subset(rng, space - 1, q)
    return [rk + 1 if rk >= hidden else rk for rk in ranks]


def _rd_ranks(rng: SplitMix64, space: int, p: float, hidden: int | None) -> list[int]:
    ranks = []
    for rk in range(space):
        if rk == hidden:
            continue
        if rng.next_float() < p:
            ranks.append(rk)
    return ranks


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

    rng = SplitMix64(request.seed)

    hidden_t: Assignment | None = None
    if request.forced:
        hidden_t = Assignment(tuple(rng.next_below(d) for _ in range(n)))

    scopes = [_draw_scope(rng, n, k) for _ in range(m)]

    constraints = []
    for scope in scopes:
        hidden_rank = None if hidden_t is None else tuple_rank([hidden_t[u] for u in scope], d)
        if params.model is ModelKind.RB:
            ranks = _rb_ranks(rng, space, q, hidden_rank)
        else:
            ranks = _rd_ranks(rng, space, params.p, hidden_rank)
        constraints.append(Constraint(scope=scope, incompatible=tuple(ranks)))

    return CspInstance(
        params=params,
        sizes=sizes,
        constraints=tuple(constraints),
        seed=request.seed,
        forced=hidden_t,
    )
