"""Forward-checking backtracking search kernel over bitset domains.

The kernel is chronological backtracking with forward checking (Haralick &
Elliott 1980): assigning a variable prunes, for every constraint with
exactly one other unassigned variable, the forbidden values of that
variable.  Domains are Python ``int`` bitmasks (bit v set = value v still
allowed), as in bit-parallel arc consistency (Lecoutre & Vion 2008), so a
pruning is one ``&= ~mask`` and a wipeout is an empty mask.  Constraints on
the same scope act as one that forbids the union of their ranks, so each
scope is pruned once.  Each mask is computed from the scope's forbidden ranks
on its first lookup, then cached (lazy, as in Minion: Gent et al. 2006).  The
ranks are held as a flag string of d^k bytes only where that costs at most
32 B per rank, else as a rank tuple or frozenset, so memory is O(q) per scope.

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
    """Per variable, one ``(own_mult, walk, test, others)`` entry per distinct
    scope on it, in order of the scope's first constraint; the constraints on
    one scope act as one, whose q forbidden ranks are the union of theirs.
    ``others`` holds ``(var, mult, masks)`` for every other scope position;
    ``masks`` starts empty and caches, per partial rank (the position's
    coordinate zeroed), the bitmask of that position's forbidden values, which
    ``fc_search`` computes on first lookup from one of three sources:

    * flags, when d^k <= 32 q: ``walk`` is None and ``test`` a bytearray of
      d^k ``0``/``1`` characters, ``1`` at each forbidden rank; a line of d
      ranks is one strided slice, read as a binary number.  That is at most
      32 B per rank, less than a frozenset takes per member;
    * walk, when q < d: ``walk`` holds the q ranks and ``test`` is None; each
      rank is tested for membership in the looked-up line;
    * frozenset, otherwise: ``walk`` is None and ``test`` a frozenset of the
      ranks; each of the line's d ranks is tested in it."""
    scopes = {}
    for con in constraints:
        scopes.setdefault(con.scope, []).append(con.incompatible)
    watch = [[] for _ in range(n)]
    for scope, group in scopes.items():
        k = len(scope)
        ranks = group[0] if len(group) == 1 else set().union(*group)
        if d ** k <= 32 * len(ranks):
            flags = bytearray(b"0") * d ** k
            for rank in ranks:
                flags[rank] = 49  # ord("1")
            walk, test = None, flags
        elif len(ranks) < d:
            walk, test = ranks, None
        else:
            walk, test = None, frozenset(ranks)
        slots = [(u, d ** (k - 1 - j), {}) for j, u in enumerate(scope)]
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
        # scope that is now fully instantiated but for one slot
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
                if mask is None:  # first lookup, see _watch_lists
                    if type(test) is bytearray:  # flags, reversed so that value v is bit v
                        mask = int(test[partial:partial + d * free_mult:free_mult][::-1], 2)
                    else:  # O(min(d, q))
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
