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

The walk runs on a plain tuple of rows.  Only a yes from `decide` or
`explain` builds the HomMatrix, ReductionMap and Partition it carries, from
the tuples the walk computed; the window scan builds none of them.  The
window scan walks only connected windows: a window that splits into blocks
with no morphisms between them is the matrix of a disjoint union, and by
the time the scan reaches it, its blocks have passed as smaller windows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb
from operator import itemgetter
from typing import Iterator

from .matrix import HomMatrix, Rows
from .partition import Partition, Structure, acceptability_failures, structure
from .reduction import ReductionMap, reduce_rows, reduced_pair
from .verifier import require_triple_budget


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
    Reasons they use.  Reduction and class structure are plain tuples
    (`reduce_rows`, `structure`), computed once; `shape` holds the structure
    once the walk gets past acceptability.
    """

    def __init__(self, rows: Rows):
        self.rows, self.class_of, self.rep = reduce_rows(rows)
        self.shape: Structure | None = None

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

        classes, basepoints, locals_, order, multiple_units, anchor = self.shape = structure(rows)
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
        payload from the walk's own tuples."""
        if reason is not None:
            return Verdict("no", reason)
        N, rmap = reduced_pair(M, self.rows, self.class_of, self.rep)
        return Verdict("yes", None, N, rmap, Partition(N, self.shape))


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
    condition walk as `decide`, with no HomMatrix, ReductionMap or Partition
    built.  The first rejected window is reported with its indices in
    `subset` and the inner reason's objects remapped to the enclosing matrix.
    Classes, local coordinates and the detail text stay relative to the
    window: a NotAcceptable detail "transitivity fails along [2, 0, 1]"
    lists positions in the window, while its objects are indices into M.
    A yes verdict carries no witness payload: the decision came from the
    windows alone.

    A window of two or more objects is walked only when it is connected:
    objects i and j are linked when hom(i, j) or hom(j, i) is nonempty, and
    the links must join the whole window.  A window W that is not connected
    splits into nonempty blocks A and B with empty hom-sets both ways
    between them, and its walk finds nothing, because the scan reaches W
    only after every smaller window has passed, A and B among them:
    - the size-1 windows passed, so every diagonal entry is positive;
    - so no object of A duplicates one of B: row a has hom(a, a) >= 1 where
      row b has hom(b, a) = 0, and reduction never merges across blocks;
    - a chain i -> j -> k never crosses between blocks, and neither do
      classes, basepoints or the class order;
    - so every transitivity, basepoint, U-class and cross-pair condition of
      W lies inside A or inside B, and W's walk yields exactly what the
      walks of A and B yield: nothing.
    The first failing window is therefore connected, and skipping the
    others leaves the verdict, its subset and its Reason unchanged.

    The scan first counts its windows, sum of C(n, k) for k <= 4, and
    raises TripleBudgetError naming that count and the limit when it exceeds
    the triple budget, before any window is cut (n = 64 makes 679,120).
    """
    rows, n = M.entries, M.n
    require_triple_budget(sum(comb(n, k) for k in range(1, 5)), what="submatrix windows")
    bit = [1 << i for i in range(n)]
    # linked[i] has bit j set when objects i and j are linked.
    linked = [
        sum([bit[j] for j in range(n) if j != i and (rows[i][j] or rows[j][i])])
        for i in range(n)
    ]
    for size in range(1, min(4, n) + 1):
        for keep in combinations(range(n), size):
            if size > 1:
                mask = 0
                for i in keep:
                    mask |= bit[i]
                reach = linked[keep[0]] & mask | bit[keep[0]]
                while reach != mask:
                    grown = reach
                    for i in keep:
                        if reach & bit[i]:
                            grown |= linked[i]
                    grown &= mask
                    if grown == reach:
                        break
                    reach = grown
                if reach != mask:
                    continue  # not connected: its blocks passed as smaller windows
            cut = itemgetter(*keep)  # a tuple of entries, or one entry when size == 1
            window = tuple([cut(rows[i]) for i in keep]) if size > 1 else ((cut(rows[keep[0]]),),)
            first = next(iter(_Walk(window)), None)
            if first is not None:
                reason = _reason(first)
                reason = replace(reason, objects=tuple(keep[o] for o in reason.objects))
                return Verdict("no", reason, subset=keep)
    return Verdict("yes")
