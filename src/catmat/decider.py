"""Decision procedure: does any finite category have these hom-set sizes?

The test runs on the reduced matrix and comes down to eight conditions:
reflexivity and transitivity of the positivity relation (acceptability), a
unique basepoint per class, and size floors.  Inside a class with basepoint,
diagonal entries must exceed the product of the legs through the basepoint,
off-diagonal entries must reach it; across ordered classes, with s and t the
anchors of x and y (partition.py), hom(x, y) must reach the column floor
hom(x, t), the row floor hom(s, y) and the quadrant floor
hom(s, y) + hom(x, t) - hom(s, t).

One walk checks all eight and yields every failing instance.  Its order:
reflexivity object by object, then transitivity chain by chain, stopping
there if either failed (the later conditions need the class structure of
an acceptable matrix); then unique basepoints; then, U class by U class, the
class's diagonal floors followed by its off-diagonal floors; then, for each
ordered class pair, cell by cell, the column, row and quadrant floor of the
cell.  `decide` takes the first instance as its Reason and stops the walk
there.  `condition_report` runs the whole walk and groups the instances by
condition, spelling out the first few of each.  `explain` gives both from
one walk.

The walk runs on a plain tuple of rows.  A yes from `decide` or `explain`
carries the walk's own Partition, and builds the HomMatrix and ReductionMap
it carries from the tuples the walk computed; the window scan builds
neither.  The window scan walks only the windows that can fail: those that
hold a unit and a partner of it, or a broken chain, and quadrant-shaped
ones of four.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from itertools import combinations, compress
from math import comb
from operator import itemgetter, or_
from typing import Iterator

from .errors import require_triple_budget
from .matrix import HomMatrix, Rows
from .partition import Partition, acceptability_failures, broken_chains, structure
from .reduction import ReductionMap, reduce_rows, reduced_pair


@dataclass(frozen=True)
class Reason:
    """Why a matrix was rejected.

    kind is one of ZeroDiagonal, NotAcceptable, MultipleUnits, UDiagonalFail,
    UOffDiagonalFail, CrossRowFail, CrossColFail, CrossQuadrantFail.
    objects are indices into the matrix the decider was asked about (for a
    reduced entry, the smallest original index of its group); classes and
    local coordinates refer to the reduced matrix's partition.
    """

    kind: str
    objects: tuple[int, ...] = ()
    classes: tuple[int, ...] = ()
    coords: tuple[int, ...] = ()
    required: int | None = None
    actual: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        bits = [self.kind]
        if self.objects:
            bits.append(f"objects={list(self.objects)}")
        if self.required is not None:
            bits.append(f"required>={self.required}")
        if self.actual is not None:
            bits.append(f"actual={self.actual}")
        if self.detail:
            bits.append(self.detail)
        return " ".join(bits)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "objects": list(self.objects)}
        if self.classes:
            out["classes"] = list(self.classes)
        if self.coords:
            out["coords"] = list(self.coords)
        if self.required is not None:
            out["required"] = self.required
        if self.actual is not None:
            out["actual"] = self.actual
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class Verdict:
    decision: str  # "yes" | "no"
    reason: Reason | None = None
    reduced: HomMatrix | None = None
    rmap: ReductionMap | None = None
    partition: Partition | None = None
    subset: tuple[int, ...] | None = None

    @property
    def exists(self) -> bool:
        return self.decision == "yes"

    def render(self) -> tuple[str, dict]:
        """The CLI's text line and JSON fields for this verdict, for one file
        or a batch."""
        fields = {
            "decision": "exists" if self.exists else "absent",
            "reason": self.reason.to_json() if self.reason else None,
        }
        if self.subset is not None:
            fields["subset"] = list(self.subset)
        if self.rmap is not None:
            fields["reduced_size"] = self.rmap.m
        if self.exists:
            line = "EXISTS"
        elif self.subset is not None:
            line = f"ABSENT ({self.reason}; submatrix {fields['subset']})"
        else:
            line = f"ABSENT ({self.reason})"
        return line, fields


# Reason kind -> (report condition, report details, Reason.detail), in report
# order.  Templates see the Reason as r and its objects as the list o.
_HOM = "hom({o[0]},{o[1]})={r.actual} needs >= {r.required}"
_KINDS = {
    "ZeroDiagonal": ("reflexivity", "object {o[0]} has no endomorphism", ""),
    "NotAcceptable": (
        "transitivity",
        "{o[0]}->{o[1]}->{o[2]} but hom({o[0]},{o[2]}) is empty",
        "transitivity fails along {o}",
    ),
    "MultipleUnits": (
        "unique-basepoint",
        "class {r.classes[0]} has single-endomorphism objects {o}",
        "several objects with a single endomorphism share a class",
    ),
    "UDiagonalFail": ("u-diagonal", "hom({o[0]},{o[0]})={r.actual} needs >= {r.required}", ""),
    "UOffDiagonalFail": ("u-off-diagonal", _HOM, ""),
    "CrossColFail": ("cross-column-floor", _HOM, ""),
    "CrossRowFail": ("cross-row-floor", _HOM, ""),
    "CrossQuadrantFail": ("cross-quadrant", _HOM, ""),
}
_ACCEPTABILITY = ("ZeroDiagonal", "NotAcceptable")
_SHOWN = 8  # failing instances the report spells out per condition


def _reason(fields: tuple) -> Reason:
    return Reason(*fields, detail=_KINDS[fields[0]][2].format(o=list(fields[1])))


class _Walk:
    """One pass over the conditions of a square tuple of rows, run on its
    reduced rows.

    Iterating yields every failing instance in walk order as the positional
    fields of its Reason (kind, objects, classes, coords, required, actual),
    objects already in the input's indices, so that callers build only the
    Reasons they use.  Reduction and class structure are computed once, on
    tuples (`reduce_rows`, `structure`); `shape` holds the Partition once the
    walk gets past acceptability.
    """

    def __init__(self, rows: Rows):
        self.rows, self.class_of, self.rep = reduce_rows(rows)
        self.shape: Partition | None = None

    def __iter__(self) -> Iterator[tuple]:
        rows, rep = self.rows, self.rep
        acceptable = True
        for kind, indices in acceptability_failures(rows):
            acceptable = False
            objects = tuple([rep[t] for t in indices])
            if kind == "diag":
                yield "ZeroDiagonal", objects, (), (), 1, 0
            else:
                yield "NotAcceptable", objects, (), (), None, None
        if not acceptable:
            return

        _, basepoints, locals_, order, multiple_units, anchor, _ = self.shape = structure(rows)
        for c, units in multiple_units:
            yield "MultipleUnits", tuple([rep[u] for u in units]), (c,), (), None, None

        for c, bp in enumerate(basepoints):
            if bp is None:
                continue
            legs = locals_[c][1:]
            for i, x in legs:
                need = rows[x][bp] * rows[bp][x] + 1
                if rows[x][x] < need:
                    yield "UDiagonalFail", (rep[x],), (c,), (i,), need, rows[x][x]
            for i, x in legs:
                for j, y in legs:
                    if y == x:
                        continue
                    need = rows[x][bp] * rows[bp][y]
                    if rows[x][y] < need:
                        yield "UOffDiagonalFail", (rep[x], rep[y]), (c,), (i, j), need, rows[x][y]

        # Cell (x, y) has the column floor hom(x, t), the row floor hom(s, y)
        # and the quadrant floor hom(s, y) + hom(x, t) - hom(s, t), for the
        # anchors s of x and t of y.  No floor needs a guard on class kinds:
        # when x's class has no basepoint, or x is it, s = x and the row and
        # quadrant floors are hom(x, y) itself, so they cannot fail; t = y
        # does the same for the column and quadrant floors.  Between two V
        # classes no floor can fail, and the pair is skipped.
        for c, d in order:
            if basepoints[c] is None and basepoints[d] is None:
                continue
            below = locals_[d]
            for i, x in locals_[c]:
                x_row, s_row = rows[x], rows[anchor[x]]
                for j, y in below:
                    have, t = x_row[y], anchor[y]
                    col, row = x_row[t], s_row[y]
                    if have < col:
                        yield "CrossColFail", (rep[x], rep[y]), (c, d), (i, j), col, have
                    if have < row:
                        yield "CrossRowFail", (rep[x], rep[y]), (c, d), (i, j), row, have
                    need = row + col - s_row[t]
                    if have < need:
                        yield "CrossQuadrantFail", (rep[x], rep[y]), (c, d), (i, j), need, have

    def verdict(self, M: HomMatrix, reason: Reason | None) -> Verdict:
        """The Verdict on M, whose rows the walk ran on; a yes builds its
        payload from the walk's own tuples and Partition."""
        if reason is not None:
            return Verdict("no", reason)
        N, rmap = reduced_pair(M, self.rows, self.class_of, self.rep)
        return Verdict("yes", None, N, rmap, self.shape)


def decide(M: HomMatrix) -> Verdict:
    """Decide realizability; a yes verdict carries the reduced matrix,
    the reduction map and the partition used by the witness builder."""
    walk = _Walk(M.entries)
    first = next(iter(walk), None)
    return walk.verdict(M, None if first is None else _reason(first))


def condition_report(M: HomMatrix) -> list[dict]:
    """Status of every condition decide evaluates, with all failing instances.

    Entries are {"condition", "status", "details"}; status is "pass", "fail"
    or "skipped" (prerequisite failed, condition not evaluable).
    """
    return explain(M)[1]


def explain(M: HomMatrix) -> tuple[Verdict, list[dict]]:
    """decide(M) and condition_report(M), from a single walk."""
    walk = _Walk(M.entries)
    first = None
    shown: dict[str, list[str]] = {kind: [] for kind in _KINDS}
    failed = dict.fromkeys(_KINDS, 0)
    for fields in walk:
        kind = fields[0]
        failed[kind] += 1
        if failed[kind] <= _SHOWN:
            reason = _reason(fields)
            if first is None:
                first = reason
            shown[kind].append(_KINDS[kind][1].format(o=list(reason.objects), r=reason))
        if kind == "NotAcceptable" and failed[kind] == _SHOWN:
            # Only broken chains are left, and there can be n^3 of them: count them by masks.
            failed[kind] = sum(ks.bit_count() for _, _, ks in broken_chains(walk.rows))
            break

    report = []
    for kind, (condition, _, _) in _KINDS.items():
        status, details = "pass", ""
        if failed[kind]:
            status, details = "fail", "; ".join(shown[kind])
            if failed[kind] > _SHOWN:
                details += f"; +{failed[kind] - _SHOWN} more"
        elif walk.shape is None and kind not in _ACCEPTABILITY:
            status, details = "skipped", "prerequisite failed"
        report.append({"condition": condition, "status": status, "details": details})
    return walk.verdict(M, first), report


def decide_by_submatrices(M: HomMatrix) -> Verdict:
    """Decide through principal submatrices of size at most four.

    Realizability is equivalent to realizability of every principal submatrix
    of size <= 4.  Subsets are scanned in ascending size, lexicographically;
    each window's rows are cut straight from M's and go through the same
    condition walk as `decide`, with no HomMatrix or ReductionMap built.
    The first rejected window is reported with its indices in `subset` and
    the inner reason's objects remapped to the enclosing matrix.
    Classes, local coordinates and the detail text stay relative to the
    window: a NotAcceptable detail "transitivity fails along [2, 0, 1]"
    lists positions in the window, while its objects are indices into M.
    A yes verdict carries no witness payload: the decision came from the
    windows alone.

    The scan walks only the windows that can fail (`_windows`), so the
    first failing window, its subset and its Reason are those of the full
    scan.  With units u (hom(u, u) = 1), partners p of u (hom-sets both
    ways to and from u) and k linked to u (hom(u, k) or hom(k, u)
    nonempty), it walks every object, the pairs {u, p}, the triples
    {u, p, k} and the least triple of a broken chain i -> j -> k without
    i -> k (`_least_chain`; the window of any broken chain fails, so the
    scan stops at the least), and the quadrant-shaped quadruples
    {s, x, t, y}: units s and t with exactly one of hom(s, t) and
    hom(t, s) nonempty, x a partner of s and y one of t.

    Take a window W of two to four objects once every smaller window has
    passed; the size-1 windows passed, so every diagonal entry is positive.
    1. If W holds a duplicate pair, reduction merges it.  Dropping the
       pair's larger object leaves the same groups, less that object, with
       the same representatives, so W's walk is the walk of a smaller
       window that already passed.
    2. Otherwise W's rows are its reduced rows.  Each failure other than
       CrossQuadrantFail shows again in the window of the at most three
       objects named below, after its reduction, because classes, units,
       anchors and the class order are read off direct entries; that
       window passed unless it is W:
       - a chain i -> j -> k without i -> k, a broken chain: no two of i,
         j, k merge, since a merge would give i -> k;
       - two units u and v of one class, partners: they merge in {u, v}
         only when hom(u, v) = hom(v, u) = 1, and then W also holds an
         object that tells them apart, so is linked to u or v, and merges
         with neither;
       - with W acceptable and one unit per class, a leg x of a basepoint
         bp is a partner of bp, no unit, and never merges with bp: (x, bp)
         for a U diagonal floor, and (x, y, bp), y another leg, for a U
         off-diagonal floor, which holds if x and y merge there, as then
         hom(x, y) = hom(x, x) and hom(bp, y) = hom(bp, x) and the
         diagonal floor of x passed;
       - (x, y, t) for a column floor, which fails only when
         t = anchor(y) != y, a unit with partner y, and then
         hom(x, t) > hom(x, y) links x to t; likewise (s, x, y) for a row
         floor, with x a partner of s and y linked to s.  x and y lie in
         different classes, and the anchor is the only unit of its class
         in the window.
       So W is a unit and a partner, or those and an object linked to the
       unit, or a broken chain, and never four objects.
    3. A quadrant floor fails only when s = anchor(x) != x and
       t = anchor(y) != y: then s and t are units, x is a partner of s and
       y of t, and the classes are ordered, so hom(s, t) is nonempty and
       hom(t, s) empty.  So W = {s, x, t, y} is quadrant-shaped.
    Each size is walked in lexicographic order, so the first window the
    scan finds failing is the first failing window of its size.

    The scan first counts every window, walked or not, sum of C(n, k) for
    k <= 4, and raises TripleBudgetError naming that count and the limit
    when it exceeds the triple budget, before any window is cut (n = 64
    makes 679,120).
    """
    rows, n = M.entries, M.n
    require_triple_budget(sum(comb(n, k) for k in range(1, 5)), what="submatrix windows")
    for keep in _windows(rows):
        cut = itemgetter(*keep)  # a tuple of entries, or one entry when size == 1
        window = tuple([cut(rows[i]) for i in keep]) if len(keep) > 1 else ((cut(rows[keep[0]]),),)
        first = next(iter(_Walk(window)), None)
        if first is not None:
            reason = _reason(first)
            reason = replace(reason, objects=tuple(keep[o] for o in reason.objects))
            return Verdict("no", reason, subset=keep)
    return Verdict("yes")


def _windows(rows: Rows) -> Iterator[tuple[int, ...]]:
    """The windows `decide_by_submatrices` walks, in scan order: every
    object; each unit with each partner; each such pair with an object
    linked to the unit, and the least broken chain; then the quadrant-shaped
    quadruples.  Each size is found only once the scan gets that far."""
    n = len(rows)
    yield from combinations(range(n), 1)
    units = [u for u in range(n) if rows[u][u] == 1]
    partners = {u: [x for x in range(n) if x != u and rows[u][x] and rows[x][u]] for u in units}
    yield from sorted({tuple(sorted((u, x))) for u in units for x in partners[u]})
    # Every diagonal entry is positive by now, so each failure is a chain,
    # and a chain's window fails: the scan reaches only the least of them.
    chain = _least_chain(rows)
    triples = set() if chain is None else {chain}
    for u in units:
        linked = [k for k in range(n) if k != u and (rows[u][k] or rows[k][u])]
        triples.update(tuple(sorted((u, x, k))) for x in partners[u] for k in linked if k != x)
    yield from sorted(triples)
    shaped = set()
    for u, v in combinations(units, 2):
        if bool(rows[u][v]) != bool(rows[v][u]):
            for x in partners[u]:
                for y in partners[v]:
                    if len({u, x, v, y}) == 4:
                        shaped.add(tuple(sorted((u, x, v, y))))
    yield from sorted(shaped)


def _least_chain(rows: Rows) -> tuple[int, int, int] | None:
    """The least a < b < c such that some order of a, b, c is a broken chain
    i -> j -> k without i -> k, or None.  Pairs a < b go in ascending order,
    each with the bitmask of the c that close such a chain, from the reach
    out of (row) and into (column) a and b."""
    n = len(rows)
    bits = [1 << k for k in range(n)]
    out = [sum(compress(bits, row)) for row in rows]
    # No chain is broken when each row's reach holds the reach of all it reaches.
    if all(reduce(or_, compress(out, row), o) == o for row, o in zip(rows, out)):
        return None
    into = [sum(compress(bits, column)) for column in zip(*rows)]
    for a, row in enumerate(rows):
        oa, ia = out[a], into[a]
        for b in range(a + 1, n):
            ob, ib = out[b], into[b]
            # a -> b -> c, c -> a -> b; else a -> c -> b.
            close = ob & ~oa | ia & ~ib if row[b] else oa & ib
            # b -> a -> c, c -> b -> a; else b -> c -> a.
            close |= oa & ~ob | ib & ~ia if rows[b][a] else ob & ia
            close >>= b + 1
            if close:
                return a, b, b + (close & -close).bit_length()
    return None
