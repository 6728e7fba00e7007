"""Forward-checking backtracking search kernel over bitset domains.

The kernel is chronological backtracking with forward checking (Haralick &
Elliott 1980): assigning a variable prunes, for every constraint with
exactly one other unassigned variable, the forbidden values of that
variable.  Domains are Python ``int`` bitmasks (bit v set = value v still
allowed), as in bit-parallel arc consistency (Lecoutre & Vion 2008), so a
pruning is one ``&= ~mask`` and a wipeout is an empty mask.  Each mask is
computed from the constraint's forbidden ranks on its first lookup, then
cached (lazy, as in Minion: Gent et al. 2006), so memory is O(q) per constraint.

Variable order is lex or minimum-remaining-values with lowest-index
tie-breaking; value order is ascending.  ``nodes`` counts value assignment
attempts, ``backtracks`` counts retractions.
"""

from __future__ import annotations

from enum import Enum


class SolveStatus(Enum):
    SAT = "SAT"
    UNSAT = "UNSAT"
    LIMIT = "LIMIT"


def active_backend() -> str:
    """Name of the kernel implementation, for benchmark environment records."""
    return "python"


def _watch_lists(n, d, constraints):
    """Per variable, one ``(own_mult, walk, test, others)`` entry per constraint
    on it, in constraint order.  ``others`` holds ``(var, mult, masks)`` for
    every other scope position; ``masks`` starts empty and caches, per partial
    rank (the position's coordinate zeroed), the bitmask of that position's
    forbidden values, which ``fc_search`` computes on first lookup by walking
    the smaller of the looked-up line of d ranks and the q forbidden ranks and
    testing each in the other: ``walk`` is the forbidden tuple and ``test``
    None (the line) when q < d, else ``walk`` is None and ``test`` a frozenset."""
    watch = [[] for _ in range(n)]
    for con in constraints:
        k = len(con.scope)
        slots = [(u, d ** (k - 1 - j), {}) for j, u in enumerate(con.scope)]
        ranks = con.incompatible
        walk, test = (ranks, None) if len(ranks) < d else (None, frozenset(ranks))
        for j, (u, mult, _) in enumerate(slots):
            watch[u].append((mult, walk, test, tuple(slots[:j] + slots[j + 1:])))
    return watch


def fc_search(n, d, constraints, mrv, node_limit, count_all):
    """Returns (status, nodes, backtracks, solutions, witness).

    node_limit:  None means unlimited
    solutions:   solutions found before stopping (all of them with count_all)
    witness:     first solution found as a tuple of values, else None
    """
    watch = _watch_lists(n, d, constraints)
    assign = [-1] * n
    doms = [None] * (n + 1)  # doms[depth]: domains on entering that depth
    doms[0] = [(1 << d) - 1] * n
    chosen = [0] * n
    untried = [0] * n  # values of chosen[depth] not yet tried, as a bitmask
    nodes = backtracks = solutions = 0
    witness = None
    status = SolveStatus.UNSAT

    def select(dom):
        best = -1
        best_size = d + 1
        for u in range(n):
            if assign[u] < 0:
                if not mrv:
                    return u
                size = dom[u].bit_count()
                if size < best_size:
                    best, best_size = u, size
        return best

    depth = 0
    chosen[0] = select(doms[0])
    untried[0] = doms[0][chosen[0]]

    while True:
        if depth == n:
            solutions += 1
            if witness is None:
                witness = tuple(assign)
            if not count_all:
                break
            rest = 0  # treat the solution as a dead end and keep searching
        else:
            rest = untried[depth]
        if not rest:
            # values exhausted at this depth
            if depth == 0:
                break
            depth -= 1
            assign[chosen[depth]] = -1
            backtracks += 1
            continue

        nodes += 1
        if node_limit is not None and nodes > node_limit:
            status = SolveStatus.LIMIT
            break
        low = rest & -rest
        untried[depth] = rest ^ low
        val = low.bit_length() - 1
        var = chosen[depth]
        assign[var] = val
        dom = doms[depth][:]

        # forward check: prune the single unassigned variable of each
        # constraint that is now fully instantiated but for one slot
        ok = True
        for own_mult, walk, test, others in watch[var]:
            partial = val * own_mult
            free = -1
            for u, mult, masks in others:
                a = assign[u]
                if a >= 0:
                    partial += a * mult
                elif free >= 0:
                    free = -1  # a second unassigned variable: nothing to prune
                    break
                else:
                    free, free_mult, free_masks = u, mult, masks
            if free >= 0:
                mask = free_masks.get(partial)
                if mask is None:  # first lookup: O(min(d, q)), see _watch_lists
                    line = range(partial, partial + d * free_mult, free_mult)
                    members = line if test is None else test
                    mask = 0
                    for rank in line if walk is None else walk:
                        if rank in members:
                            mask |= 1 << (rank - partial) // free_mult
                    free_masks[partial] = mask
                if dom[free] & mask:
                    dom[free] &= ~mask
                    if not dom[free]:
                        ok = False
                        break

        if ok:
            depth += 1
            doms[depth] = dom
            if depth < n:
                chosen[depth] = select(dom)
                untried[depth] = dom[chosen[depth]]
        else:
            assign[var] = -1
            backtracks += 1

    if solutions and status is SolveStatus.UNSAT:
        status = SolveStatus.SAT
    return status, nodes, backtracks, solutions, witness
