"""Brute-force search for a composition table, independent of the decider.

Morphisms are numbered 0..T-1 hom-set by hom-set, visiting objects with one
endomorphism first and then the rest by falling endomorphism count (ties by
index).  The identity of each object is pinned to the first morphism of its
diagonal hom-set (any category can be relabeled into that form), unit laws
fill in the forced cells, and a depth-first search assigns the rest in
(cell, candidate) order of those numbers.  The object order changes how soon
the search ends, never its answer; it was chosen by measurement (of the 625
2x2 matrices with entries <= 4, 3 need over 10^6 assignments with it and 16
in index order).  Associativity of a partial table is enforced
incrementally: each assignment re-checks exactly the triples it could have
completed, so a fully assigned table is a category with no further checking.

Symmetry breaking (the least-number heuristic of finite model search: Zhang &
Zhang, SEM, 1995; McCune, Mace4, 2003).  A morphism is *used* if it is an
identity, an argument of the cell being filled, or an argument or value of an
assigned free cell.  A free cell (g, f) tries only the used members of its
target hom-set H plus the lowest-numbered unused one, v0.  This loses no
category: suppose a category C completes the partial table and puts an
unused v != v0 of H in (g, f).  Swapping v and v0 within H relabels C into a
category C'.  The swap fixes every used morphism, so C' agrees with C on the
assigned free cells and on g and f, and C'(g, f) = v0.  The forced cells are
the unit-law cells and the cells whose hom-set has one member; the swap maps
that set of cells onto itself, and C' satisfies the same unit laws and
hom-sets, so C' agrees with the forced table too.  Hence some completion puts
v0 in (g, f) whenever any completion puts an unused morphism there.  Since
v0 < v is tried first, the first table found is the one the unpruned search
in the same order would find.
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
    assignments = 0

    def triple_ok(h: int, g: int, f: int) -> bool:
        p = table[g * T + f]
        if p is None:
            return True
        q = table[h * T + g]
        if q is None:
            return True
        left = table[h * T + p]
        if left is None:
            return True
        right = table[q * T + f]
        return right is None or left == right

    def assign(slot: int, val: int) -> bool:
        """Place val and re-check every triple this could have completed."""
        table[slot] = val
        assigned_to[val].append(slot)
        a, b = divmod(slot, T)
        for h in leaving[tgt[a]]:
            if not triple_ok(h, a, b):
                return False
        for f in entering[src[b]]:
            if not triple_ok(a, b, f):
                return False
        for s2 in assigned_to[b]:
            g2, f2 = divmod(s2, T)
            if not triple_ok(a, g2, f2):
                return False
        for s2 in assigned_to[a]:
            h2, g2 = divmod(s2, T)
            if not triple_ok(h2, g2, b):
                return False
        return True

    def unassign(slot: int) -> None:
        val = table[slot]
        table[slot] = None
        assigned_to[val].pop()

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
        if not assign(slot, forced[slot]):
            return OracleResult("no", assignments)

    free = [slot for slot in cells if slot not in forced]

    uses = [0] * T
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

    def use(slot: int, step: int) -> None:
        g, f = divmod(slot, T)
        uses[g] += step
        uses[f] += step
        uses[table[slot]] += step

    depth = 0
    choice = [0] * (len(free) + 1)
    while True:
        if depth == len(free):
            homs = {pair: tuple(ids) for pair, ids in hom_ids.items() if ids}
            identity = {x: id_of[x] for x in range(n)}
            full = {}
            for slot in cells:
                g, f = divmod(slot, T)
                full[(g, f)] = table[slot]
            return OracleResult(
                "yes", assignments, FiniteCategory(n, homs, identity, full)
            )
        slot = free[depth]
        options = candidates(slot)  # the same list each time the search returns here
        advanced = False
        while choice[depth] < len(options):
            val = options[choice[depth]]
            assignments += 1
            if assignments > max_assignments:
                return OracleResult("unknown", assignments - 1)
            if assign(slot, val):
                use(slot, 1)
                depth += 1
                choice[depth] = 0
                advanced = True
                break
            unassign(slot)
            choice[depth] += 1
        if advanced:
            continue
        # Exhausted this cell: backtrack to the previous free cell.
        choice[depth] = 0
        depth -= 1
        if depth < 0:
            return OracleResult("no", assignments)
        use(free[depth], -1)
        unassign(free[depth])
        choice[depth] += 1
