"""Acceptability of the positivity relation and the class structure it induces.

Write i -> j when M[i][j] >= 1.  The matrix is acceptable when this relation
is reflexive and transitive.  Mutual reachability then partitions the objects
into classes, each class either has an object with exactly one endomorphism
(a basepoint, kind "U") or none (kind "V"), and the classes are strictly
ordered by one-way reachability.  Every object has an anchor: the basepoint
of its class, or the object itself in a V class.

`acceptability_failures` and `structure` work on a plain tuple of rows, so
the decider's condition walk runs them on every window without building a
HomMatrix or a Partition; `check_acceptable` and `Partition` are the same
computations on a HomMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterator

from .errors import NotAcceptable
from .matrix import HomMatrix, Rows


@dataclass(frozen=True)
class AcceptabilityCounterexample:
    """First failing instance of reflexivity ("diag") or transitivity ("chain")."""

    kind: str
    indices: tuple[int, ...]


def acceptability_failures(rows: Rows) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Every failing (kind, indices) of a square tuple of rows: ("diag", (i,))
    for each rows[i][i] == 0, then ("chain", (i, j, k)) for each i -> j -> k
    but not i -> k, lexicographically."""
    for i, row in enumerate(rows):
        if row[i] == 0:
            yield "diag", (i,)
    # reach[j] has bit k set when j -> k; i -> j -> k fails transitivity
    # exactly for the bits of reach[j] outside reach[i].
    bits = [1 << k for k in range(len(rows))]
    reach = [sum(compress(bits, row)) for row in rows]
    for i, row in enumerate(rows):
        if 0 not in row:
            continue
        out = ~reach[i]
        for j, v in enumerate(row):
            if v and reach[j] & out:
                for k, w in enumerate(rows[j]):
                    if w and not row[k]:
                        yield "chain", (i, j, k)


def check_acceptable(M: HomMatrix) -> AcceptabilityCounterexample | None:
    """None when the positivity relation is reflexive and transitive."""
    first = next(acceptability_failures(M.entries), None)
    return None if first is None else AcceptabilityCounterexample(*first)


Structure = tuple  # (classes, basepoints, locals, order, multiple_units, anchor)


def structure(rows: Rows) -> Structure:
    """The class structure of an acceptable square tuple of rows, as plain
    tuples: classes, basepoints, locals, order, multiple_units and anchor.

    Each field is the Partition attribute of the same name, except that
    locals[c] lists the pairs (local index, object) of class c ascending,
    from which Partition derives local_of, and order is a tuple in
    ascending order.
    """
    n = len(rows)
    anchor: list[int | None] = [None] * n
    classes, basepoints, locals_, multiple_units = [], [], [], []
    for i, row in enumerate(rows):
        if anchor[i] is not None:  # i joined the class of a smaller member
            continue
        members = [j for j in range(i, n) if row[j] and rows[j][i]]
        classes.append(tuple(members))
        units = [x for x in members if rows[x][x] == 1]
        for j in members:
            anchor[j] = units[0] if units else j
        if units:
            if len(units) > 1:
                multiple_units.append((len(basepoints), tuple(units)))
            members.remove(units[0])
            basepoints.append(units[0])
            locals_.append(((0, units[0]), *enumerate(members, 1)))
        else:
            basepoints.append(None)
            locals_.append(tuple(enumerate(members, 1)))

    heads = [members[0] for members in classes]
    order = tuple([
        (c, d) for c, h in enumerate(heads) for d, k in enumerate(heads) if c != d and rows[h][k]
    ])
    return tuple(classes), tuple(basepoints), tuple(locals_), order, tuple(multiple_units), tuple(anchor)


class Partition:
    """Class structure of a matrix already known to be acceptable
    (build_partition checks that first).

    The attributes are those of `structure(M.entries)`, which the
    constructor computes unless `shape` passes in that result already
    computed; local_of and the frozenset order are derived from it.

    classes[c] lists members ascending; classes are ordered by smallest member.
    basepoints[c] is the basepoint of a U class and None for a V class.
    anchor[x] is the basepoint of x's class, or x itself in a V class, so
    that every floor between classes is one formula in the anchors.  Local
    indices: the basepoint of a U class is 0 and the remaining members count up
    from 1; V class members count up from 1.
    order holds the pairs (c, d) with class c strictly above class d, meaning
    morphisms flow from c's objects to d's and never back.
    multiple_units lists (class, members-with-one-endomorphism) for classes
    where the basepoint is not unique; such matrices are never realizable but
    the partition is still returned for reporting.
    """

    def __init__(self, M: HomMatrix, shape: Structure | None = None):
        classes, basepoints, locals_, order, multiple_units, anchor = shape or structure(M.entries)
        local_of: list[tuple[int, int]] = [(-1, -1)] * M.n
        for c, pairs in enumerate(locals_):
            for i, x in pairs:
                local_of[x] = (c, i)
        self.classes = classes
        self.basepoints = basepoints
        self.local_of = tuple(local_of)
        self.order = frozenset(order)
        self.multiple_units = multiple_units
        self.anchor = anchor

    def is_u(self, c: int) -> bool:
        return self.basepoints[c] is not None


def build_partition(M: HomMatrix) -> Partition:
    """Partition an acceptable matrix; raises NotAcceptable otherwise."""
    cex = check_acceptable(M)
    if cex is not None:
        raise NotAcceptable(cex)
    return Partition(M)
