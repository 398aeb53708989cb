"""Brute-force search for a composition table, independent of the decider.

Morphisms are numbered 0..T-1 hom-set by hom-set, visiting objects with one
endomorphism first and then the rest by falling endomorphism count (ties by
index).  The identity of each object is pinned to the first morphism of its
diagonal hom-set (any category can be relabeled into that form), the
unit-law cells are written into the table, the cells whose hom-set has one
member are forced, and a depth-first search decides the rest in (cell,
candidate) order of those numbers.  The object order changes how soon the
search ends, never its answer; it was chosen by measurement before
propagation (of the 625 2x2 matrices with entries <= 4, 3 needed over 10^6
assignments with it and 16 in index order).

The table is one row per morphism, table[g][f] = g.f or None, and a cell is
the pair (g, f): the cells to fill carry their candidate hom-set, and the
trail and the cells holding each value are lists of pairs.  Its T * T cells
for T morphisms count against the triple budget, which is checked before any
is allocated.

Propagation (as in SEM and Mace4, cited below).  Each placed cell is checked
in the four roles a cell plays in a triple h.(g.f) = (h.g).f with g.f = p and
h.g = q: as (g, f), (h, g), (h, p) and (q, f).  Once p and q are known, the
cells (h, p) and (q, f) must hold the same morphism: two different values
are a clash and the search backtracks, and one known value is placed in the
other cell.  A fully placed table is therefore a category with no further
checking, and a propagated value is one that every category agreeing with
the cells placed before it has.  Placements go on one trail and are undone
to the mark of the decision that made them; free cells already filled are
skipped.

Unit laws.  The 2T - n unit-law cells, g.id = id.g = g for each g and the
identities at its source and target, are written into the table when it is
allocated.  They never go on the trail or among the cells holding a value,
and the lists of morphisms leaving and entering each object leave the
identities out, so propagation never visits a triple with an identity in
it.  This is exact.  A triple with an identity holds once the unit cells are
in the table: if f is the identity both sides are h.g, if g is both are h.f,
and if h is both are g.f, so it forces no value and meets no clash.  A
triple with no identity has inputs (g, f) and (h, g) that are not unit
cells, and neither is any cell `place` fills (a unit cell is never empty).
Its rule fires once both inputs and one of (h, p), (q, f) are known, and the
last of these to become known is a placed cell: an input, which meets the
triple in its first or second role over a non-identity h or f, or (h, p) or
(q, f), which meets it through the cells holding p or q, the input among
them.  The rules are monotone, so the fixpoint propagation reaches, or its
clash, does not depend on the order of placements, and is that of
four-role propagation over every triple with the unit cells placed as
forced cells.  So the fixpoint after the forced cells, the free cells, the
candidates, the probes and the first table found are all unchanged.

Counting.  `assignments` counts the 2T - n unit-law cells together and
first, then each forced cell as it is placed, each decision tried and each
probe (below); cells placed by propagation are not counted.  A budget that
runs out stops the call "unknown" with exactly the budget spent.  A search
that gets past the forced cells counts all of them, whatever their order; a
"no" found among the forced cells counts the unit cells and the forced cells
placed up to the clash.

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
The unit-law cells and the forced cells, those whose hom-set has one member,
form a set the swap maps onto itself, and C' satisfies the same unit laws and
hom-sets, so C' agrees with those cells too, and so with the cells
propagated from them.  Hence some completion puts v0 in (g, f) whenever any
completion puts an unused morphism there.  Since v0 < v is tried first, and
propagation only cuts subtrees without a completion, the first table found
is the one the unpruned search in the same order would find.

Lookahead (failed-value probing, or singleton consistency: Debruyne &
Bessiere, "Some practicable filtering techniques for the constraint
satisfaction problem", IJCAI 1997).  Once the call has had
PROBE_AFTER_BACKTRACKS failed decisions, a decision that places without a
clash while at most PROBE_DEPTH decisions are open, itself included, is
probed: each later free cell that is still empty, in cell order, tries the
members of its whole hom-set H in index order with `place`, each undone to
the probe's mark, until one places.  If none does for some cell, the
decision counts as a clash.  This is sound because `place` derives only
forced consequences: a completion of the partial table puts some m of H in
the cell and agrees with everything forced from the table plus m, so `place`
of m cannot clash.  A cell where every member clashes has no completion
above it, of any category, so the probe cuts only subtrees the unpruned
search would leave empty-handed.  All of H is tried because a cell's
least-number candidates can still grow.  `undo` restores the table,
`assigned_to` and `uses`, so a probe changes no later candidate list; cell
and candidate order are as before, so the first table found is unchanged.
Each probe is one assignment, checked against the budget as a decision is.

The constants were measured on the benchmark's 1,955 oracle searches and
three exhaustive four-object "no" searches.  Probing from the first decision
slows the short searches, most of them; after 256 failed decisions only 6 of
the 1,955 are probed, and all 1,955 take about a quarter less CPU time.
Probing at any depth made the three "no" searches 5-9x slower, since every
node of a refutation is probed; depth 8 keeps them within 1.5x and takes
`[[2,2,2],[2,2,2],[2,1,2]]` from 17,311 assignments to 3,174, where depth 16
made one "no" 9x slower and depth 4 leaves that "yes" at 12,289.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import DEFAULT_MAX_ASSIGNMENTS, require_triple_budget
from .matrix import HomMatrix

if TYPE_CHECKING:
    from .category import FiniteCategory

PROBE_AFTER_BACKTRACKS = 256  # failed decisions in the call before any probe
PROBE_DEPTH = 8  # open decisions, the new one included, at most for a probe


def SearchBudget(max_assignments: int = DEFAULT_MAX_ASSIGNMENTS) -> int:
    """The budget `oracle_decide` takes, an int; kept for the benchmark's replay."""
    return max_assignments


@dataclass
class OracleResult:
    decision: str  # "yes" | "no" | "unknown"
    assignments: int
    # (n, homs, table) of the finished table of a yes, what `_category` reads.
    _solution: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def exists(self) -> bool:
        return self.decision == "yes"

    @cached_property
    def category(self) -> FiniteCategory | None:
        """The category found, built on first access; None unless the decision is yes."""
        return _category(*self._solution) if self._solution else None


def oracle_decide(M: HomMatrix, max_assignments: int = DEFAULT_MAX_ASSIGNMENTS) -> OracleResult:
    """Search all composition tables over M; "unknown" only on budget exhaustion."""
    n = M.n
    rows = M.entries
    if n == 0:
        return OracleResult("yes", 0, (0, {}, []))
    for x in range(n):
        if rows[x][x] == 0:
            return OracleResult("no", 0)

    # The table has T * T cells; refuse before allocating any over the triple budget.
    T = sum(map(sum, rows))
    require_triple_budget(T * T, what="oracle table cells")

    src = []
    tgt = []
    homs: dict[tuple[int, int], tuple[int, ...]] = {}
    homs_to = [[()] * n for _ in range(n)]  # homs_to[y][x]: the ids of hom(x, y)
    # The morphisms other than identities, by source and by target, ascending.
    leaving: list[list[int]] = [[] for _ in range(n)]
    entering: list[list[int]] = [[] for _ in range(n)]
    order = sorted(range(n), key=lambda x: (rows[x][x] != 1, -rows[x][x]))
    for x in order:
        row = rows[x]
        for y in order:
            k = row[y]
            if k:
                ids = homs[(x, y)] = homs_to[y][x] = tuple(range(len(src), len(src) + k))
                src += [x] * k
                tgt += [y] * k
                if x == y:
                    ids = ids[1:]
                leaving[x] += ids
                entering[y] += ids
    id_of = [homs_to[x][x][0] for x in range(n)]

    # Composable cells with no identity in them, in (g, f) order: those with
    # a one-member hom-set are forced, (g, f, value), and the rest are free,
    # (g, f, candidates).  The objects are numbered in `order`, so the g
    # leaving each in turn ascend.  An empty hom-set is an immediate
    # rejection (a composite has nowhere to go).
    forced = []
    free = []
    for x in order:
        for g in leaving[x]:
            into = homs_to[tgt[g]]
            for f in entering[x]:
                options = into[src[f]]
                if not options:
                    return OracleResult("no", 0)
                if len(options) == 1:
                    forced.append((g, f, options[0]))
                else:
                    free.append((g, f, options))

    assignments = 2 * T - n  # the unit-law cells, counted together and first
    if assignments > max_assignments:
        return OracleResult("unknown", max_assignments)
    # table[g][f] = g.f, with the unit-law cells g.id = id.g = g written in.
    table: list[list[int | None]] = [[None] * T for _ in range(T)]
    for m in range(T):
        table[m][id_of[src[m]]] = table[id_of[tgt[m]]][m] = m
    assigned_to: list[list[tuple[int, int]]] = [[] for _ in range(T)]
    uses = [0] * T
    trail: list[tuple[int, int]] = []  # every placed cell, in placement order

    def put(g: int, f: int, val: int) -> None:
        table[g][f] = val
        trail.append((g, f))
        assigned_to[val].append((g, f))
        uses[g] += 1
        uses[f] += 1
        uses[val] += 1

    def place(g: int, f: int, val: int) -> bool:
        """Place val and every composite it forces; False on a clash.

        The four loops take each cell placed here, a.b = c, as (g, f),
        (h, g), (h, p) and (q, f) of h.p = q.f, over the h and f that are
        not identities and the cells on the trail: a triple with an identity
        needs no check (see Unit laws above).  Of two cells that must be
        equal, a known value is copied into an empty one, and two different
        values are a clash.  Placements stay on the trail for the caller to
        undo.
        """
        k = len(trail)
        put(g, f, val)
        while k < len(trail):
            a, b = trail[k]
            k += 1
            row_a = table[a]
            row_b = table[b]
            c = row_a[b]
            row_c = table[c]
            for h in leaving[tgt[a]]:
                row_h = table[h]
                q = row_h[a]
                if q is not None:
                    u = row_h[c]
                    v = table[q][b]
                    if u is None:
                        if v is not None:
                            put(h, c, v)
                    elif v is None:
                        put(q, b, u)
                    elif u != v:
                        return False
            for f in entering[src[b]]:
                p = row_b[f]
                if p is not None:
                    u = row_a[p]
                    v = row_c[f]
                    if u is None:
                        if v is not None:
                            put(a, p, v)
                    elif v is None:
                        put(c, f, u)
                    elif u != v:
                        return False
            for g, f in assigned_to[b]:
                q = row_a[g]
                if q is not None:
                    v = table[q][f]
                    if v is None:
                        put(q, f, c)
                    elif v != c:
                        return False
            for h, g in assigned_to[a]:
                p = table[g][b]
                if p is not None:
                    u = table[h][p]
                    if u is None:
                        put(h, p, c)
                    elif u != c:
                        return False
        return True

    def undo(mark: int) -> None:
        for _ in range(len(trail) - mark):
            g, f = trail.pop()
            row = table[g]
            val = row[f]
            row[f] = None
            assigned_to[val].pop()
            uses[g] -= 1
            uses[f] -= 1
            uses[val] -= 1

    for g, f, val in forced:
        assignments += 1
        if assignments > max_assignments:
            return OracleResult("unknown", assignments - 1)
        now = table[g][f]
        if not (place(g, f, val) if now is None else now == val):
            return OracleResult("no", assignments)

    # The forced cells and what they force are never undone, and do not count as used.
    uses[:] = [0] * T
    for m in id_of:
        uses[m] = 1

    def candidates(g: int, f: int, options: tuple[int, ...]) -> list[int]:
        """Used members of the cell's hom-set and its least unused one, in index order."""
        out = []
        fresh = True
        for m in options:
            if uses[m] or m == g or m == f:
                out.append(m)
            elif fresh:
                out.append(m)
                fresh = False
        return out

    frames: list[list] = []  # per decision: [index in free, options, next option, trail mark]
    i = 0
    advance = True
    backtracks = 0  # failed decisions, a decision cut by a probe included
    while True:
        if advance:
            while i < len(free) and table[free[i][0]][free[i][1]] is not None:
                i += 1
            if i == len(free):
                return OracleResult("yes", assignments, (n, homs, table))
            frames.append([i, candidates(*free[i]), 0, len(trail)])
        frame = frames[-1]
        i, options, k, mark = frame
        if len(trail) > mark:
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
        g, f, _ = free[i]
        advance = place(g, f, options[k])
        if advance and backtracks >= PROBE_AFTER_BACKTRACKS and len(frames) <= PROBE_DEPTH:
            # Lookahead: a later empty cell that no member of its hom-set can fill is a clash.
            probe = len(trail)
            for j in range(i + 1, len(free)):
                pg, pf, members = free[j]
                if table[pg][pf] is not None:
                    continue
                for m in members:
                    assignments += 1
                    if assignments > max_assignments:
                        return OracleResult("unknown", assignments - 1)
                    placed = place(pg, pf, m)
                    undo(probe)
                    if placed:
                        break
                else:
                    advance = False
                    break
        if not advance:
            backtracks += 1


def _category(n: int, homs: dict, table: list[list[int]]) -> FiniteCategory:
    """The category of a filled table.  Each hom-set's ids are contiguous, so
    row g of block (x, y, z) is table[g] over hom(x, y), less hom(x, z)'s first id."""
    from .category import FiniteCategory, composable

    blocks = {}
    for x, y, z in composable(homs):
        fs, h0 = homs[x, y], homs[x, z][0]
        blocks[x, y, z] = [[h - h0 for h in table[g][fs[0] : fs[-1] + 1]] for g in homs[y, z]]
    return FiniteCategory.from_blocks(n, homs, blocks)
