"""CNF encoding and file formats.

Direct encoding: propositional variable x(u, v) = u*d + v + 1 asserts
"CSP variable u takes value v".  Clauses are emitted in a fixed order:

1. one domain clause per variable:  x(u,0) v ... v x(u,d-1);
2. pairwise at-most-one clauses per variable:  -x(u,v) v -x(u,v') for v < v';
3. one conflict clause per forbidden tuple, constraints in instance order,
   tuples in ascending rank order:  -x(u1,v1) v ... v -x(uk,vk).

Domain and at-most-one clauses make CNF models biject with total CSP
assignments, so the model count equals the solution count.  With
``split_width`` w >= 3, domain clauses wider than w are decomposed into a
chain of width-<=w clauses over fresh auxiliary variables (allocated after
n*d in emission order); satisfiability and the model count projected onto
the x(u,v) variables are preserved.

Native text format ``RBCSP 1`` (UTF-8, "\\n" endings, 1-indexed variables
and values, reals printed with 17 significant digits)::

    RBCSP 1
    params <model> <k> <n> <alpha> <r> <p> <seed>
    sizes <d> <m>
    c <i1> ... <ik>         one per constraint, ascending variable indices
    t <v1> ... <vk>         forbidden tuples of the constraint above,
                            ascending rank order

The hidden assignment of a forced instance is never written into either
format; on request it goes to a sidecar ``.solution`` file of 1-indexed
"<variable> <value>" lines.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain, combinations, groupby

from .core import (
    Assignment,
    Constraint,
    CspInstance,
    CspParams,
    ModelKind,
    ParameterError,
    ParseError,
    _unchecked,
    derive_sizes,
    rank_tuple,
    tuple_rank,
)

__all__ = [
    "CnfFormula",
    "encode_cnf",
    "write_dimacs",
    "read_dimacs",
    "write_csp_native",
    "read_csp_native",
    "write_solution",
]


@dataclass(frozen=True)
class CnfFormula:
    """Clauses over variables 1..num_vars; the constructor range-checks every
    literal.  `encode_cnf` and `read_dimacs` build theirs in range and skip it."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    metadata: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self):
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ParameterError(f"literal {lit} out of range in clause {clause}")


def _fmt_real(x: float) -> str:
    return f"{x:.17g}"


def _value_tuples(instance: CspInstance) -> dict[int, tuple[int, ...]]:
    """The value tuple of every forbidden rank in the instance, decoded once."""
    d, k = instance.sizes.d, instance.params.k
    ranks = set().union(*(con.incompatible for con in instance.constraints))
    return {rank: rank_tuple(rank, d, k) for rank in ranks}


def _split_clause(literals: list[int], width: int, next_aux: int) -> tuple[list[list[int]], int]:
    """Chain decomposition of a clause into width-<=w pieces.

    While the clause is wider than w, its first w - 1 literals and a fresh
    auxiliary form one piece, and the auxiliary, negated, leads the rest;
    the auxiliary means "no literal so far was true".  A clause that fits
    comes back unchanged.
    """
    pieces = []
    while len(literals) > width:
        pieces.append(literals[:width - 1] + [next_aux])
        literals = [-next_aux] + literals[width - 1:]
        next_aux += 1
    pieces.append(literals)
    return pieces, next_aux


def encode_cnf(instance: CspInstance, split_width: int | None = None) -> CnfFormula:
    """Direct encoding; see the module docstring for numbering and order."""
    if split_width is not None and split_width < 3:
        raise ParameterError(f"split_width must be >= 3, got {split_width}")
    n = instance.params.n
    d = instance.sizes.d
    # lits[u][v] = -x(u, v): one int per negative literal, shared by every clause
    lits = [list(range(-u * d - 1, -u * d - d - 1, -1)) for u in range(n)]
    clauses: list[tuple[int, ...]] = []
    next_aux = n * d + 1
    for row in lits:
        pieces, next_aux = _split_clause([-lit for lit in row], split_width or d, next_aux)
        clauses.extend(map(tuple, pieces))
    for row in lits:
        clauses.extend(combinations(row, 2))
    # per scope position, the value of every forbidden rank
    values_of = _value_tuples(instance)
    columns = [dict(zip(values_of, column)) for column in zip(*values_of.values())]
    for con in instance.constraints:
        clauses.extend(zip(*[map(lits[u].__getitem__, map(column.__getitem__, con.incompatible))
                             for u, column in zip(con.scope, columns)]))

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
    return _unchecked(CnfFormula, num_vars=next_aux - 1, clauses=tuple(clauses), metadata=meta)


def write_dimacs(cnf: CnfFormula) -> str:
    parts = [f"c {key}={value}\n" for key, value in cnf.metadata]
    parts.append(f"p cnf {cnf.num_vars} {len(cnf.clauses)}\n")
    for width, run in groupby(cnf.clauses, len):  # one format per run of equal-width clauses
        run = list(run)
        parts.append(("%d " * width + "0\n") * len(run) % tuple(chain.from_iterable(run)))
    return "".join(parts)


def read_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: ``c`` comment lines, one ``p cnf <vars> <clauses>``
    header, then 0-terminated clauses that may span lines.  A SATLIB ``%``
    line ends the clause section.  Comments are not kept as metadata."""
    header = None
    clauses: list[tuple[int, ...]] = []
    literals: list[int] = []
    no = 0
    for no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0].startswith("c"):
            continue
        if fields[0].startswith("%"):
            break
        if fields[0] == "p":
            if header is not None:
                raise ParseError(no, "second 'p' header")
            if len(fields) != 4 or fields[1] != "cnf" or not all(f.isdecimal() for f in fields[2:]):
                raise ParseError(no, f"expected 'p cnf <variables> <clauses>', got {line.strip()!r}")
            header = (int(fields[2]), int(fields[3]))
            continue
        if header is None:
            raise ParseError(no, "clause before the 'p cnf' header")
        for field_ in fields:
            try:
                lit = int(field_)
            except ValueError:
                raise ParseError(no, f"non-integer literal {field_!r}") from None
            if lit == 0:
                clauses.append(tuple(literals))
                literals = []
            elif abs(lit) > header[0]:
                raise ParseError(no, f"literal {lit} outside 1..{header[0]}")
            else:
                literals.append(lit)
    if header is None:
        raise ParseError(no, "missing 'p cnf' header")
    if literals:
        raise ParseError(no, "last clause is not terminated by 0")
    if len(clauses) != header[1]:
        raise ParseError(no, f"found {len(clauses)} clauses, header declares {header[1]}")
    return _unchecked(CnfFormula, num_vars=header[0], clauses=tuple(clauses), metadata=())


def write_csp_native(instance: CspInstance) -> str:
    p = instance.params
    lines = [
        "RBCSP 1",
        "params {} {} {} {} {} {} {}".format(
            p.model.value, p.k, p.n, _fmt_real(p.alpha), _fmt_real(p.r),
            _fmt_real(p.p), instance.seed,
        ),
        f"sizes {instance.sizes.d} {instance.sizes.m}",
    ]
    t_line = {rank: "t " + " ".join(str(v + 1) for v in values)
              for rank, values in _value_tuples(instance).items()}
    for con in instance.constraints:
        lines.append("c " + " ".join(str(u + 1) for u in con.scope))
        lines.extend(map(t_line.__getitem__, con.incompatible))
    return "\n".join(lines) + "\n"


def read_csp_native(text: str) -> CspInstance:
    """Parse the RBCSP 1 format back into an instance (hidden assignments
    are not part of the format, so `forced` comes back None)."""
    lines = text.splitlines()

    def fail(no: int, msg: str):
        raise ParseError(no + 1, msg)

    def indices(no: int, fields: list[str], what: str, bound: int) -> list[int]:
        """The k 1-indexed entries of a 'c' or 't' line, 0-indexed, in [0, bound)."""
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

    constraints: list[Constraint] = []
    scope: tuple[int, ...] | None = None
    ranks: list[int] = []

    def flush(no: int):
        if scope is None:
            return
        if params.model is ModelKind.RB and len(ranks) != sizes.q:
            fail(no, f"RB constraint has {len(ranks)} tuples, expected q = {sizes.q}")
        constraints.append(_unchecked(Constraint, scope=scope, incompatible=tuple(ranks)))

    seen: dict[str, int] = {}  # rank of each distinct well-formed 't' line text
    for line in set(lines):
        fields = line.split()
        if fields and fields[0] == "t":
            try:
                seen[line] = tuple_rank(indices(0, fields, "values", sizes.d), sizes.d)
            except ParseError:
                pass  # reported with its line number below
    known = [*map(seen.get, lines), None]  # the rank of each line, None if not a known 't' line
    no = 3
    while no < len(lines):
        stripped = lines[no].strip()
        fields = stripped.split()
        if fields and fields[0] == "t":
            if scope is None:
                fail(no, "tuple line before any constraint line")
            end = known.index(None, no)  # lines no..end-1 are well-formed 't' lines
            if end == no:
                indices(no, fields, "values", sizes.d)  # raises: well-formed lines were ranked above
            run = known[no:end]
            ascending = list(map(operator.lt, [ranks[-1] if ranks else -1, *run], run))
            if False in ascending:
                fail(no + ascending.index(False), "tuples out of ascending rank order")
            ranks += run
            no = end
            continue
        if fields and fields[0] == "c":
            flush(no)
            scope = tuple(indices(no, fields, "variables", params.n))
            if len(set(scope)) != len(scope):
                fail(no, f"repeated variable in {stripped!r}")
            ranks = []
        elif fields:
            fail(no, f"unrecognized line {stripped!r}")
        no += 1
    flush(len(lines))

    if len(constraints) != sizes.m:
        raise ParseError(len(lines), f"found {len(constraints)} constraints, expected m = {sizes.m}")
    # the lines above checked every scope, rank range, rank order and count
    return _unchecked(CspInstance, params=params, sizes=sizes, constraints=tuple(constraints),
                      seed=seed, forced=None)


def write_solution(assignment: Assignment) -> str:
    """Sidecar text for a hidden assignment: 1-indexed '<variable> <value>' lines."""
    return "\n".join(f"{u + 1} {v + 1}" for u, v in enumerate(assignment.values)) + "\n"
