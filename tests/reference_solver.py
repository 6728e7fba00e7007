"""Reference copy of the recursive `dpll`, which copied the assignment at
every node and lifted the interpreter's recursion limit around the call;
kept as the oracle for the parity test of `rbcsp.solver.dpll`, which runs
one loop over an undo trail."""

from __future__ import annotations

import sys

from rbcsp.core import SizeError
from rbcsp.encoder import CnfFormula
from rbcsp.solver import MAX_DPLL_VARS, SolveConfig, SolveResult, SolveStatus


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
    limited = False

    def propagate(assign: list[int]) -> bool | None:
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
                    changed = True
        return all_satisfied

    def search(assign: list[int]) -> bool:
        """True once a model is found and counting is off."""
        nonlocal nodes, backtracks, solutions, witness, limited
        satisfied = propagate(assign)
        if satisfied is None:
            return False
        if satisfied:
            solutions += 1 << assign[1:].count(0)  # each free variable takes either value
            if witness is None:
                witness = tuple(v > 0 for v in assign[1:])
            return not cfg.count_all
        var = assign.index(0, 1)
        for sign in (1, -1):
            if limit is not None and nodes >= limit:
                limited = True
                return False
            nodes += 1
            branch = list(assign)
            branch[var] = sign
            if search(branch):
                return True
            backtracks += 1
            if limited:
                return False
        return False

    # search recurses once per split variable; lift the process-wide limit
    # for the duration of the call only
    saved_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(saved_limit, 2 * num_vars + 200))
    try:
        search([0] * (num_vars + 1))
    finally:
        sys.setrecursionlimit(saved_limit)
    if limited:
        status = SolveStatus.LIMIT
    elif solutions > 0:
        status = SolveStatus.SAT
    else:
        status = SolveStatus.UNSAT
    return SolveResult(
        status=status,
        witness=witness if status is SolveStatus.SAT else None,
        nodes=nodes,
        backtracks=backtracks,
        solutions=solutions if cfg.count_all and status is not SolveStatus.LIMIT else None,
    )
