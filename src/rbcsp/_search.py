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

When every scope is binary, the mask a scope puts on the neighbour depends
only on the value just assigned, so each variable holds one flat entry per
neighbour whose cache is keyed by that value; any scope of arity 3 or more
sends the whole set through the general entries, which key their caches by
the partial rank of the other assigned positions.

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
    """Return ``(watch, binary)``: per variable, one entry per distinct scope
    on it, in order of the scope's first constraint.  The constraints on one
    scope act as one, whose q forbidden ranks are the union of theirs.

    ``binary`` is true when every scope has two variables.  Then each entry is
    ``(u, own_mult, mult, masks, walk, test)`` for the scope's other variable
    ``u``: ``masks`` starts empty and caches, per value of the entry's own
    variable, the bitmask of the values of ``u`` it forbids, the line of d
    ranks from ``val * own_mult`` at stride ``mult``.  Otherwise every scope
    takes the general entry ``(own_mult, walk, test, others)``, where
    ``others`` holds ``(var, mult, masks)`` for every other scope position and
    ``masks`` caches per partial rank (the position's coordinate zeroed) the
    bitmask of that position's forbidden values.  ``fc_search`` computes a
    mask on its first lookup (``_line_mask``) from one of three sources:

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
    binary = all(len(scope) == 2 for scope in scopes)
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
        if binary:
            a, b = scope
            watch[a].append((b, d, 1, {}, walk, test))
            watch[b].append((a, 1, d, {}, walk, test))
            continue
        slots = [(u, d ** (k - 1 - j), {}) for j, u in enumerate(scope)]
        for j, (u, mult, _) in enumerate(slots):
            watch[u].append((mult, walk, test, tuple(slots[:j] + slots[j + 1:])))
    return watch, binary


def _line_mask(start, stride, d, walk, test):
    """Bitmask of the values v whose rank ``start + v * stride`` is forbidden,
    from the source ``_watch_lists`` chose for the scope."""
    if type(test) is bytearray:  # flags, reversed so that value v is bit v
        return int(test[start:start + d * stride:stride][::-1], 2)
    line = range(start, start + d * stride, stride)  # O(min(d, q))
    members = line if test is None else test
    mask = 0
    for rank in line if walk is None else walk:
        if rank in members:
            mask |= 1 << (rank - start) // stride
    return mask


def fc_search(n, d, constraints, mrv, node_limit, count_all):
    """Returns (status, nodes, backtracks, solutions, witness).

    node_limit:  None means unlimited
    solutions:   solutions found before stopping (all of them with count_all)
    witness:     first solution found as a tuple of values, else None
    """
    watch, binary = _watch_lists(n, d, constraints)
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
        if binary:
            for u, own_mult, mult, masks, walk, test in watch[var]:
                if assign[u] < 0:
                    mask = masks.get(val)
                    if mask is None:  # first lookup, see _watch_lists
                        mask = masks[val] = _line_mask(val * own_mult, mult, d, walk, test)
                    if dom[u] & mask:
                        dom[u] &= ~mask
                        if not dom[u]:
                            ok = False
                            break
        else:
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
                        mask = free_masks[partial] = _line_mask(partial, free_mult, d, walk, test)
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
