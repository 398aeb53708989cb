"""Acceptability of the positivity relation and the class structure it induces.

Write i -> j when M[i][j] >= 1.  The matrix is acceptable when this relation
is reflexive and transitive.  Mutual reachability then partitions the objects
into classes, each class either has an object with exactly one endomorphism
(a basepoint, kind "U") or none (kind "V"), and the classes are strictly
ordered by one-way reachability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import NotAcceptable
from .matrix import HomMatrix


@dataclass(frozen=True)
class AcceptabilityCounterexample:
    """First failing instance of reflexivity ("diag") or transitivity ("chain")."""

    kind: str
    indices: tuple[int, ...]


def acceptability_failures(M: HomMatrix) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Every failing (kind, indices): ("diag", (i,)) for each M[i][i] == 0, then
    ("chain", (i, j, k)) for each i -> j -> k but not i -> k, lexicographically."""
    rows = M.entries
    for i, row in enumerate(rows):
        if row[i] == 0:
            yield "diag", (i,)
    for i, row in enumerate(rows):
        missing = [k for k, v in enumerate(row) if v == 0]
        if not missing:
            continue
        for j, v in enumerate(row):
            if v:
                for k in missing:
                    if rows[j][k]:
                        yield "chain", (i, j, k)


def check_acceptable(M: HomMatrix) -> AcceptabilityCounterexample | None:
    """None when the positivity relation is reflexive and transitive."""
    first = next(acceptability_failures(M), None)
    return None if first is None else AcceptabilityCounterexample(*first)


class Partition:
    """Class structure of a matrix already known to be acceptable
    (build_partition checks that first).

    classes[c] lists members ascending; classes are ordered by smallest member.
    basepoints[c] is the basepoint of a U class and None for a V class.  Local
    indices: the basepoint of a U class is 0 and the remaining members count up
    from 1; V class members count up from 1.
    order holds the pairs (c, d) with class c strictly above class d, meaning
    morphisms flow from c's objects to d's and never back.
    multiple_units lists (class, members-with-one-endomorphism) for classes
    where the basepoint is not unique; such matrices are never realizable but
    the partition is still returned for reporting.
    """

    def __init__(self, M: HomMatrix):
        n, rows = M.n, M.entries
        class_of = [-1] * n
        classes: list[tuple[int, ...]] = []
        for i in range(n):
            if class_of[i] < 0:  # i is its class's smallest member
                row = rows[i]
                members = tuple([j for j in range(i, n) if row[j] and rows[j][i]])
                for j in members:
                    class_of[j] = len(classes)
                classes.append(members)

        basepoints, multiple_units, locals_by_class = [], [], []
        local_of: list[tuple[int, int]] = [(-1, -1)] * n
        for c, members in enumerate(classes):
            units = [x for x in members if rows[x][x] == 1]
            if units:
                bp = units[0]
                if len(units) > 1:
                    multiple_units.append((c, tuple(units)))
                pairs = ((0, bp), *enumerate([x for x in members if x != bp], 1))
            else:
                bp = None
                pairs = tuple(enumerate(members, 1))
            basepoints.append(bp)
            locals_by_class.append(pairs)
            for i, x in pairs:
                local_of[x] = (c, i)

        order = set()
        for c, cm in enumerate(classes):
            row = rows[cm[0]]
            for d, dm in enumerate(classes):
                if c != d and row[dm[0]]:
                    order.add((c, d))

        self.classes = tuple(classes)
        self.basepoints = tuple(basepoints)
        self.local_of = tuple(local_of)
        self.order = frozenset(order)
        self.multiple_units = tuple(multiple_units)
        self._locals = tuple(locals_by_class)

    def is_u(self, c: int) -> bool:
        return self.basepoints[c] is not None

    def locals_of(self, c: int) -> tuple[tuple[int, int], ...]:
        """Pairs (local index, object) of class c, ascending in local index."""
        return self._locals[c]


def build_partition(M: HomMatrix) -> Partition:
    """Partition an acceptable matrix; raises NotAcceptable otherwise."""
    cex = check_acceptable(M)
    if cex is not None:
        raise NotAcceptable(cex)
    return Partition(M)
