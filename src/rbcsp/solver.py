"""Reference search procedures.

* :func:`solve_csp` — forward-checking backtracker over the bitset kernel in
  :mod:`rbcsp._search`, with node/backtrack cost counters.
* :func:`enumerate_solutions` — exhaustive oracle, deliberately independent
  of the search kernel.
* :func:`dpll` — minimal DPLL (unit propagation + lowest-index splitting)
  for cross-validating the CNF encoder, with exact model counting; one loop
  over a stack of open branches that undoes assignments along a trail.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product

from . import _search
from ._search import SolveStatus
from .core import (
    Assignment,
    CspInstance,
    ParameterError,
    RbcspError,
    SizeError,
    check_assignment,
    tuple_rank,
)
from .encoder import CnfFormula

__all__ = ["SolveConfig", "SolveResult", "SolveStatus", "solve_csp", "enumerate_solutions", "dpll"]

MAX_TUPLE_SPACE = 1 << 20
MAX_DPLL_VARS = 1 << 16  # dpll sizes its arrays from the num_vars of an untrusted header
ENUM_ADVISORY = 10 ** 7


@dataclass(frozen=True)
class SolveConfig:
    node_limit: int | None = None
    heuristic: str = "mrv"
    count_all: bool = False

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit < 1:
            raise ParameterError(f"node_limit must be >= 1, got {self.node_limit}")
        if self.heuristic not in ("lex", "mrv"):
            raise ParameterError(f"heuristic must be 'lex' or 'mrv', got {self.heuristic!r}")


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    witness: Assignment | tuple[bool, ...] | None
    nodes: int
    backtracks: int
    solutions: int | None = None


def solve_csp(instance: CspInstance, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Complete forward-checking search; LIMIT when the node budget runs out."""
    space = instance.sizes.tuple_space
    if space > MAX_TUPLE_SPACE:
        raise SizeError(f"tuple space d^k = {space} exceeds the solver bound {MAX_TUPLE_SPACE}")
    status, nodes, backtracks, solutions, witness = _search.fc_search(
        instance.params.n, instance.sizes.d, instance.constraints,
        cfg.heuristic == "mrv", cfg.node_limit, cfg.count_all,
    )
    result_witness = None
    if status is SolveStatus.SAT:
        result_witness = Assignment(witness)
        report = check_assignment(instance, result_witness)
        if not report.satisfied:
            raise RbcspError(f"unsound witness, violates constraint {report.violated_index}")
    return SolveResult(
        status=status,
        witness=result_witness,
        nodes=nodes,
        backtracks=backtracks,
        solutions=solutions if cfg.count_all and status is not SolveStatus.LIMIT else None,
    )


def enumerate_solutions(instance: CspInstance, cap: int | None = None) -> int:
    """Exact satisfying-assignment count by brute force, early exit at cap."""
    n = instance.params.n
    d = instance.sizes.d
    if d ** n > ENUM_ADVISORY:
        warnings.warn(f"enumerating d^n = {d ** n} assignments; this will be slow", stacklevel=2)
    sets = [(con.scope, frozenset(con.incompatible)) for con in instance.constraints]
    count = 0
    for values in product(range(d), repeat=n):
        ok = True
        for scope, forbidden in sets:
            if tuple_rank([values[u] for u in scope], d) in forbidden:
                ok = False
                break
        if ok:
            count += 1
            if cap is not None and count >= cap:
                return count
    return count


def dpll(cnf: CnfFormula, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Unit propagation plus splitting on the lowest-index unassigned
    variable, true branch first.  With count_all, counts every model
    (free variables contribute a factor 2 each)."""
    num_vars = cnf.num_vars
    if num_vars > MAX_DPLL_VARS:
        raise SizeError(f"{num_vars} CNF variables exceed the DPLL bound {MAX_DPLL_VARS}")
    clauses = cnf.clauses
    limit = cfg.node_limit
    nodes = backtracks = solutions = 0
    witness = None
    status = SolveStatus.UNSAT
    assign = [0] * (num_vars + 1)
    trail = []  # assigned variables, in assignment order
    branches = []  # open branches: (var, sign, len(trail) before it)

    def propagate() -> bool | None:
        """Assign forced literals until fixpoint; None on conflict, else
        whether the last pass found every clause satisfied."""
        changed = True
        while changed:
            changed = False
            all_satisfied = True
            for clause in clauses:
                unassigned_lit = 0
                n_unassigned = 0
                satisfied = False
                for lit in clause:
                    val = assign[abs(lit)]
                    if val == 0:
                        n_unassigned += 1
                        unassigned_lit = lit
                    elif (val > 0) == (lit > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if n_unassigned == 0:
                    return None
                all_satisfied = False
                if n_unassigned == 1:
                    assign[abs(unassigned_lit)] = 1 if unassigned_lit > 0 else -1
                    trail.append(abs(unassigned_lit))
                    changed = True
        return all_satisfied

    while True:
        satisfied = propagate()
        if satisfied is False:  # undecided: split, true side first
            var, sign = assign.index(0, 1), 1
        else:
            if satisfied:
                solutions += 1 << assign[1:].count(0)  # each free variable takes either value
                if witness is None:
                    witness = tuple(v > 0 for v in assign[1:])
                if not cfg.count_all:
                    break
            # conflict or counted model: retract up to the last untried false side
            while branches:
                var, sign, mark = branches.pop()
                backtracks += 1
                while len(trail) > mark:
                    assign[trail.pop()] = 0
                if sign == 1:
                    break
            else:
                break
            sign = -1
        if limit is not None and nodes >= limit:
            backtracks += len(branches)  # each open branch is retracted once
            status = SolveStatus.LIMIT
            break
        nodes += 1
        branches.append((var, sign, len(trail)))
        assign[var] = sign
        trail.append(var)

    if status is SolveStatus.UNSAT and solutions > 0:
        status = SolveStatus.SAT
    return SolveResult(
        status=status,
        witness=witness if status is SolveStatus.SAT else None,
        nodes=nodes,
        backtracks=backtracks,
        solutions=solutions if cfg.count_all and status is not SolveStatus.LIMIT else None,
    )
