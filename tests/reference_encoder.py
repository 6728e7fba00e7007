"""Reference copies of the clause-at-a-time encoder, DIMACS writer and
line-at-a-time native reader, kept as oracles for the byte-identity tests of
`rbcsp.encoder`, which builds, formats and parses a run at a time."""

from __future__ import annotations

import operator
from itertools import combinations

from rbcsp.core import (
    Constraint,
    CspInstance,
    CspParams,
    ModelKind,
    ParameterError,
    ParseError,
    derive_sizes,
    rank_tuple,
    tuple_rank,
)
from rbcsp.encoder import CnfFormula


def _value_tuples(instance):
    d, k = instance.sizes.d, instance.params.k
    ranks = {rank for con in instance.constraints for rank in con.incompatible}
    return {rank: rank_tuple(rank, d, k) for rank in ranks}


def _split_clause(literals, width, next_aux):
    pieces = []
    while len(literals) > width:
        pieces.append(literals[:width - 1] + [next_aux])
        literals = [-next_aux] + literals[width - 1:]
        next_aux += 1
    pieces.append(literals)
    return pieces, next_aux


def encode_cnf(instance: CspInstance, split_width: int | None = None) -> CnfFormula:
    if split_width is not None and split_width < 3:
        raise ParameterError(f"split_width must be >= 3, got {split_width}")
    n = instance.params.n
    d = instance.sizes.d

    def var(u, v):
        return u * d + v + 1

    clauses = []
    next_aux = n * d + 1
    for u in range(n):
        pieces, next_aux = _split_clause([var(u, v) for v in range(d)], split_width or d, next_aux)
        clauses.extend(map(tuple, pieces))
    for u in range(n):
        clauses.extend(combinations([-var(u, v) for v in range(d)], 2))
    values_of = _value_tuples(instance)
    for con in instance.constraints:
        bases = [-var(u, 0) for u in con.scope]
        clauses.extend(tuple(map(operator.sub, bases, values_of[rank])) for rank in con.incompatible)

    p = instance.params
    meta = (
        ("model", p.model.value),
        ("k", str(p.k)),
        ("n", str(p.n)),
        ("alpha", repr(p.alpha)),
        ("r", repr(p.r)),
        ("p", repr(p.p)),
        ("d", str(d)),
        ("m", str(instance.sizes.m)),
        ("q", str(instance.sizes.q)),
        ("seed", str(instance.seed)),
        ("forced", "1" if instance.forced is not None else "0"),
    )
    return CnfFormula(num_vars=next_aux - 1, clauses=tuple(clauses), metadata=meta)


def write_dimacs(cnf: CnfFormula) -> str:
    lines = [f"c {key}={value}" for key, value in cnf.metadata]
    lines.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}")
    for clause in cnf.clauses:
        lines.append("%d " * len(clause) % clause + "0")
    return "\n".join(lines) + "\n"


def read_csp_native(text: str) -> CspInstance:
    lines = text.splitlines()

    def fail(no, msg):
        raise ParseError(no + 1, msg)

    def indices(no, fields, what, bound):
        if len(fields) != params.k + 1:
            fail(no, f"{fields[0]} line needs {params.k} {what}, got {len(fields) - 1}")
        try:
            out = [int(f) - 1 for f in fields[1:]]
        except ValueError:
            fail(no, f"non-integer {what} in {' '.join(fields)!r}")
        if any(not 0 <= x < bound for x in out):
            fail(no, f"{what} out of range in {' '.join(fields)!r}")
        return out

    if not lines or lines[0].strip() != "RBCSP 1":
        fail(0, "expected header 'RBCSP 1'")
    if len(lines) < 3:
        fail(len(lines) - 1, "truncated file: missing params/sizes lines")
    parts = lines[1].split()
    if len(parts) != 8 or parts[0] != "params":
        fail(1, "expected 'params <model> <k> <n> <alpha> <r> <p> <seed>'")
    try:
        params = CspParams(
            model=parts[1], k=int(parts[2]), n=int(parts[3]),
            alpha=float(parts[4]), r=float(parts[5]), p=float(parts[6]),
        )
        seed = int(parts[7])
        sizes = derive_sizes(params)
    except (ValueError, ParameterError) as exc:
        raise ParseError(2, f"bad params line: {exc}") from None

    parts = lines[2].split()
    if len(parts) != 3 or parts[0] != "sizes":
        fail(2, "expected 'sizes <d> <m>'")
    try:
        declared = (int(parts[1]), int(parts[2]))
    except ValueError:
        declared = None
    if declared != (sizes.d, sizes.m):
        fail(2, f"declared sizes {parts[1:]} disagree with derived ({sizes.d}, {sizes.m})")

    constraints = []
    scope = None
    ranks = []

    def flush(no):
        if scope is None:
            return
        if params.model is ModelKind.RB and len(ranks) != sizes.q:
            fail(no, f"RB constraint has {len(ranks)} tuples, expected q = {sizes.q}")
        constraints.append(Constraint(scope=scope, incompatible=tuple(ranks)))

    for no, line in enumerate(lines[3:], start=3):
        stripped = line.strip()
        if not stripped:
            continue
        fields = stripped.split()
        if fields[0] == "c":
            flush(no)
            scope = tuple(indices(no, fields, "variables", params.n))
            if len(set(scope)) != len(scope):
                fail(no, f"repeated variable in {stripped!r}")
            ranks = []
            continue
        if fields[0] != "t":
            fail(no, f"unrecognized line {stripped!r}")
        if scope is None:
            fail(no, "tuple line before any constraint line")
        rank = tuple_rank(indices(no, fields, "values", sizes.d), sizes.d)
        if ranks and rank <= ranks[-1]:
            fail(no, "tuples out of ascending rank order")
        ranks.append(rank)
    flush(len(lines))

    if len(constraints) != sizes.m:
        raise ParseError(len(lines), f"found {len(constraints)} constraints, expected m = {sizes.m}")
    return CspInstance(params=params, constraints=tuple(constraints), seed=seed)
