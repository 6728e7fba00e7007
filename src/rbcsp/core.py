"""Parameter algebra and instance/assignment primitives for Model RB and RD.

An instance is drawn from a five-parameter family (model, k, n, alpha, r, p):
`n` variables share a common domain of size `d = n^alpha`, and `m = r*n*ln n`
constraints of arity `k` each forbid a set of value tuples.  Model RB fixes
the forbidden-set size at exactly `q = p*d^k` per constraint; Model RD flips
an independent p-coin per tuple.  Non-integer `d`, `m`, `q` are rounded
half-away-from-zero.

Variables and domain values are 0-indexed everywhere in memory; the file
formats in :mod:`rbcsp.encoder` are 1-indexed.

A constraint stores its forbidden tuples as ascending ranks: (v_1, ..., v_k)
has rank sum_i v_i * d^(k-1-i) (:func:`tuple_rank`).  The generator draws
ranks, the kernel and the check read them, and only the text formats in
:mod:`rbcsp.encoder` decode them into value tuples.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum


class RbcspError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(RbcspError, ValueError):
    """Model parameters outside their admissible range."""


class DimensionMismatchError(RbcspError, ValueError):
    """Assignment length does not match the instance."""


class ForcedInfeasibleError(ParameterError):
    """Forced generation impossible: no tuple can be spared (q = d^k or p = 1)."""


class SizeError(RbcspError, ValueError):
    """Problem size outside the supported desk-scale range."""


class ParseError(RbcspError, ValueError):
    """Malformed native or DIMACS text; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InsufficientSamplesError(RbcspError, RuntimeError):
    """An experiment could not collect the minimum required sample count."""


class ModelKind(Enum):
    RB = "rb"
    RD = "rd"


def round_half_away(x: float) -> int:
    """Round to nearest integer, ties away from zero (benchmark convention)."""
    if x >= 0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def check_ranges(k: int, alpha: float, r: float, p: float):
    """Raise ParameterError unless k >= 2, alpha and r are positive and finite
    and p is in [0, 1]: the parameters that do not depend on n."""
    if k < 2:
        raise ParameterError(f"arity k must be >= 2, got {k}")
    if not 0 < alpha < math.inf:
        raise ParameterError(f"alpha must be positive and finite, got {alpha}")
    if not 0 < r < math.inf:
        raise ParameterError(f"r must be positive and finite, got {r}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"tightness p must be in [0, 1], got {p}")


@dataclass(frozen=True)
class CspParams:
    """The (model, k, n, alpha, r, p) tuple everything else derives from."""

    model: ModelKind
    k: int
    n: int
    alpha: float
    r: float
    p: float

    def __post_init__(self):
        try:  # a model given as its name ("rb") becomes the enum member
            object.__setattr__(self, "model", ModelKind(self.model))
        except ValueError:
            raise ParameterError(f"model must be 'rb' or 'rd', got {self.model!r}") from None
        check_ranges(self.k, self.alpha, self.r, self.p)
        if self.n < 2:
            raise ParameterError(f"variable count n must be >= 2, got {self.n}")
        if self.k > self.n:
            raise ParameterError(f"arity k = {self.k} exceeds variable count n = {self.n}")

    @staticmethod
    def from_sizes(model: ModelKind, k: int, n: int, d: int, m: int, p: float) -> "CspParams":
        """Params hitting integer sizes (d, m) exactly: alpha = ln d / ln n,
        r = m / (n ln n).  Convenience for benchmark sets quoted as (n, d, m)."""
        params = CspParams(model, k, n, math.log(d) / math.log(n), m / (n * math.log(n)), p)
        sizes = derive_sizes(params)
        if sizes.d != d or sizes.m != m:
            raise ParameterError(f"sizes ({d}, {m}) not reproducible from derived params")
        return params


@dataclass(frozen=True)
class DerivedSizes:
    """Integer sizes implied by the parameters: domain d, constraint count m,
    forbidden tuples per constraint q (RB), and the tuple space d^k."""

    d: int
    m: int
    q: int
    tuple_space: int


def derive_sizes(params: CspParams) -> DerivedSizes:
    """d = round(n^alpha), m = round(r n ln n), q = round(p d^k).

    Rejects degenerate families (d < 2 or m < 1) and sizes beyond float range.
    """
    try:
        d = round_half_away(params.n ** params.alpha)
        m = round_half_away(params.r * params.n * math.log(params.n))
        if params.k * math.log2(d) > 1100:  # p * d^k would overflow; d^k itself takes seconds
            raise OverflowError
        tuple_space = d ** params.k
        q = round_half_away(params.p * tuple_space)
    except OverflowError:
        raise ParameterError(f"sizes overflow at k={params.k} n={params.n} alpha={params.alpha} r={params.r}") from None
    if d < 2:
        raise ParameterError(f"domain size d = {d} < 2 (n={params.n}, alpha={params.alpha})")
    if m < 1:
        raise ParameterError(f"constraint count m = {m} < 1 (n={params.n}, r={params.r})")
    return DerivedSizes(d=d, m=m, q=q, tuple_space=tuple_space)


def tuple_rank(values, d: int) -> int:
    """Row-major rank of a value tuple: sum_i v_i * d^(k-1-i).

    Constraints, the kernel and the file formats depend on it; do not change.
    """
    rank = 0
    for v in values:
        rank = rank * d + v
    return rank


def rank_tuple(rank: int, d: int, k: int) -> tuple[int, ...]:
    """Inverse of :func:`tuple_rank`."""
    out = [0] * k
    for i in range(k - 1, -1, -1):
        out[i] = rank % d
        rank //= d
    return tuple(out)


def _unchecked(cls, **fields):
    """A frozen dataclass `cls` holding `fields` as given, without its
    `__post_init__`: only for objects whose producer has already checked
    every invariant that method enforces (see its call sites).  Fields are
    set one by one, as `__init__` does; updating `obj.__dict__` instead
    would give every object its own unshared dict."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class Constraint:
    """Scope (k distinct variable indices, ascending) plus the ranks of the
    forbidden tuples, stored ascending for deterministic serialization."""

    scope: tuple[int, ...]
    incompatible: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.scope)) != len(self.scope):
            raise ParameterError(f"repeated variable in scope {self.scope}")
        object.__setattr__(self, "incompatible", tuple(sorted(self.incompatible)))


@dataclass(frozen=True)
class Assignment:
    """Total assignment: values[i] is the domain value of variable i."""

    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i]


@dataclass(frozen=True)
class CspInstance:
    """Constraints over the family `params`; `sizes` is derived from `params`, never passed."""

    params: CspParams
    sizes: DerivedSizes = field(init=False)
    constraints: tuple[Constraint, ...]
    seed: int
    forced: Assignment | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "sizes", derive_sizes(self.params))
        if len(self.constraints) != self.sizes.m:
            raise ParameterError(
                f"expected {self.sizes.m} constraints, got {len(self.constraints)}"
            )
        k, n, space = self.params.k, self.params.n, self.sizes.tuple_space
        for i, con in enumerate(self.constraints):
            scope, ranks = con.scope, con.incompatible
            if len(scope) != k or min(scope) < 0 or max(scope) >= n:
                raise ParameterError(f"constraint {i}: scope {scope} is not k={k} variables < n={n}")
            if ranks and (ranks[0] < 0 or ranks[-1] >= space) or len(set(ranks)) != len(ranks):
                raise ParameterError(f"constraint {i}: duplicate or out-of-range rank, d^k={space}")
            if self.params.model is ModelKind.RB and len(ranks) != self.sizes.q:
                raise ParameterError(f"constraint {i}: {len(ranks)} tuples, RB needs q={self.sizes.q}")


@dataclass(frozen=True)
class CheckReport:
    satisfied: bool
    violated_index: int | None = None


def check_assignment(instance: CspInstance, t: Assignment) -> CheckReport:
    """Test t against every constraint; report the first violated index."""
    n = instance.params.n
    if len(t) != n:
        raise DimensionMismatchError(f"assignment has length {len(t)}, expected {n}")
    d = instance.sizes.d
    for v in t.values:
        if not 0 <= v < d:
            raise DimensionMismatchError(f"value {v} outside domain [0, {d})")
    for i, con in enumerate(instance.constraints):
        rank = tuple_rank([t.values[u] for u in con.scope], d)
        j = bisect_left(con.incompatible, rank)
        if con.incompatible[j:j + 1] == (rank,):
            return CheckReport(satisfied=False, violated_index=i)
    return CheckReport(satisfied=True)


def similarity(t1: Assignment, t2: Assignment) -> int:
    """Number of variables on which the two assignments agree."""
    if len(t1) != len(t2):
        raise DimensionMismatchError(f"lengths differ: {len(t1)} vs {len(t2)}")
    return sum(a == b for a, b in zip(t1.values, t2.values))


def distance(t1: Assignment, t2: Assignment) -> float:
    """Normalized disagreement 1 - S/n, in [0, 1]."""
    return 1.0 - similarity(t1, t2) / len(t1)
