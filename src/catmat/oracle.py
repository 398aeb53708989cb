"""Brute-force search for a composition table, independent of the decider.

Morphisms are numbered 0..T-1 hom-set by hom-set, visiting objects with one
endomorphism first and then the rest by falling endomorphism count (ties by
index).  The identity of each object is pinned to the first morphism of its
diagonal hom-set (any category can be relabeled into that form), unit laws
fill in the forced cells, and a depth-first search decides the rest in
(cell, candidate) order of those numbers.  The object order changes how soon
the search ends, never its answer; it was chosen by measurement before
propagation (of the 625 2x2 matrices with entries <= 4, 3 needed over 10^6
assignments with it and 16 in index order).

Propagation (as in SEM and Mace4, cited below).  Each placed cell is checked
in the four roles a cell plays in a triple h.(g.f) = (h.g).f with g.f = p and
h.g = q: as (g, f), (h, g), (h, p) and (q, f).  Once p and q are known, the
cells (h, p) and (q, f) must hold the same morphism: two different values
are a clash and the search backtracks, and one known value is placed in the
other cell.  A fully placed table is therefore a category with no further
checking, and a propagated value is one that every category agreeing with
the cells placed before it has.  Placements go on one trail and are undone
to the mark of the decision that made them; free cells already filled are
skipped.  `assignments` counts the forced cells and the decisions tried, not
the cells placed by propagation.

Symmetry breaking (the least-number heuristic of finite model search: Zhang &
Zhang, SEM, 1995; McCune, Mace4, 2003).  A morphism is *used* if it is an
identity, an argument of the cell being filled, or an argument or value of a
cell placed after the up-front phase, by decision or by propagation.  A free
cell (g, f) tries only the used members of its target hom-set H plus the
lowest-numbered unused one, v0.  This loses no category: suppose a category
C completes the partial table and puts an unused v != v0 of H in (g, f).
Swapping v and v0 within H relabels C into a category C'.  The swap fixes
every used morphism, so C' agrees with C on every cell placed after the
up-front phase, propagated ones included, and on g and f, and C'(g, f) = v0.
The forced cells are the unit-law cells and the cells whose hom-set has one
member; the swap maps that set of cells onto itself, and C' satisfies the
same unit laws and hom-sets, so C' agrees with the forced table too, and so
with the cells propagated from it.  Hence some completion puts v0 in (g, f)
whenever any completion puts an unused morphism there.  Since v0 < v is
tried first, and propagation only cuts subtrees without a completion, the
first table found is the one the unpruned search in the same order would
find.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import FiniteCategory
from .matrix import HomMatrix

DEFAULT_MAX_ASSIGNMENTS = 10_000_000


@dataclass
class SearchBudget:
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS


@dataclass
class OracleResult:
    decision: str  # "yes" | "no" | "unknown"
    assignments: int
    category: FiniteCategory | None = None

    @property
    def exists(self) -> bool:
        return self.decision == "yes"


def oracle_decide(M: HomMatrix, budget: SearchBudget | int | None = None) -> OracleResult:
    """Search all composition tables over M; "unknown" only on budget exhaustion."""
    if budget is None:
        budget = SearchBudget()
    elif isinstance(budget, int):
        budget = SearchBudget(budget)
    max_assignments = budget.max_assignments

    n = M.n
    if n == 0:
        return OracleResult("yes", 0, FiniteCategory(0, {}, {}, {}))
    for x in range(n):
        if M[x][x] == 0:
            return OracleResult("no", 0)

    src = []
    tgt = []
    hom_ids: dict[tuple[int, int], list[int]] = {}
    order = sorted(range(n), key=lambda x: (M[x][x] != 1, -M[x][x]))
    for x in order:
        for y in order:
            ids = []
            for _ in range(M[x][y]):
                ids.append(len(src))
                src.append(x)
                tgt.append(y)
            hom_ids[(x, y)] = ids
    T = len(src)
    id_of = [hom_ids[(x, x)][0] for x in range(n)]

    leaving: list[list[int]] = [[] for _ in range(n)]
    entering: list[list[int]] = [[] for _ in range(n)]
    for m in range(T):
        leaving[src[m]].append(m)
        entering[tgt[m]].append(m)

    # Composable cells, in slot order, and their candidate sets; an empty
    # candidate set is an immediate rejection (a composite has nowhere to go).
    cells = []
    cand: dict[int, list[int]] = {}
    for g in range(T):
        for f in entering[src[g]]:
            options = hom_ids[(src[f], tgt[g])]
            if not options:
                return OracleResult("no", 0)
            slot = g * T + f
            cells.append(slot)
            cand[slot] = options

    table: list[int | None] = [None] * (T * T)
    assigned_to: list[list[int]] = [[] for _ in range(T)]
    uses = [0] * T
    trail: list[int] = []  # every placed cell, in placement order
    assignments = 0

    def put(slot: int, val: int) -> None:
        table[slot] = val
        trail.append(slot)
        assigned_to[val].append(slot)
        g, f = divmod(slot, T)
        uses[g] += 1
        uses[f] += 1
        uses[val] += 1

    def settle(left: int, right: int) -> bool:
        """Two cells that must be equal: copy a known one into an empty one."""
        u = table[left]
        v = table[right]
        if u is None:
            if v is not None:
                put(left, v)
        elif v is None:
            put(right, u)
        return u is None or v is None or u == v

    def place(slot: int, val: int) -> bool:
        """Place val and every composite it forces; False on a clash.

        The four loops take the new cell as (g, f), (h, g), (h, p) and
        (q, f) of h.p = q.f.  Placements stay on the trail for the caller
        to undo.
        """
        k = len(trail)
        put(slot, val)
        while k < len(trail):
            s = trail[k]
            k += 1
            a, b = divmod(s, T)
            c = table[s]
            for h in leaving[tgt[a]]:
                q = table[h * T + a]
                if q is not None and not settle(h * T + c, q * T + b):
                    return False
            for f in entering[src[b]]:
                p = table[b * T + f]
                if p is not None and not settle(a * T + p, c * T + f):
                    return False
            for s2 in assigned_to[b]:
                g, f = divmod(s2, T)
                q = table[a * T + g]
                if q is not None and not settle(s, q * T + f):
                    return False
            for s2 in assigned_to[a]:
                h, g = divmod(s2, T)
                p = table[g * T + b]
                if p is not None and not settle(h * T + p, s):
                    return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            s = trail.pop()
            val = table[s]
            table[s] = None
            assigned_to[val].pop()
            g, f = divmod(s, T)
            uses[g] -= 1
            uses[f] -= 1
            uses[val] -= 1

    # Unit laws and single-candidate hom-sets force part of the table up front.
    forced: dict[int, int] = {}
    for g in range(T):
        forced[g * T + id_of[src[g]]] = g
    for f in range(T):
        forced[id_of[tgt[f]] * T + f] = f
    for slot in cells:
        options = cand[slot]
        if len(options) == 1:
            # A unit-law cell (g, id) or (id, f) has g or f in its own hom-set, so the two agree.
            forced.setdefault(slot, options[0])

    for slot in sorted(forced):
        assignments += 1
        if assignments > max_assignments:
            return OracleResult("unknown", assignments - 1)
        val = forced[slot]
        if not (place(slot, val) if table[slot] is None else table[slot] == val):
            return OracleResult("no", assignments)

    # The forced cells and what they force are never undone, and do not count as used.
    uses[:] = [0] * T
    for m in id_of:
        uses[m] = 1

    def candidates(slot: int) -> list[int]:
        """Used members of the cell's hom-set and its least unused one, in index order."""
        g, f = divmod(slot, T)
        out = []
        fresh = True
        for m in cand[slot]:
            if uses[m] or m == g or m == f:
                out.append(m)
            elif fresh:
                out.append(m)
                fresh = False
        return out

    free = [slot for slot in cells if slot not in forced]
    frames: list[list] = []  # per decision: [index in free, options, next option, trail mark]
    i = 0
    advance = True
    while True:
        if advance:
            while i < len(free) and table[free[i]] is not None:
                i += 1
            if i == len(free):
                homs = {pair: tuple(ids) for pair, ids in hom_ids.items() if ids}
                identity = {x: id_of[x] for x in range(n)}
                full = {}
                for slot in cells:
                    g, f = divmod(slot, T)
                    full[(g, f)] = table[slot]
                return OracleResult(
                    "yes", assignments, FiniteCategory(n, homs, identity, full)
                )
            frames.append([i, candidates(free[i]), 0, len(trail)])
        frame = frames[-1]
        i, options, k, mark = frame
        undo(mark)
        if k == len(options):
            frames.pop()
            if not frames:
                return OracleResult("no", assignments)
            advance = False
            continue
        frame[2] = k + 1
        assignments += 1
        if assignments > max_assignments:
            return OracleResult("unknown", assignments - 1)
        advance = place(free[i], options[k])
