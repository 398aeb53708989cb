"""Acceptability of the positivity relation and the class structure it induces.

Write i -> j when M[i][j] >= 1.  The matrix is acceptable when this relation
is reflexive and transitive.  Mutual reachability then partitions the objects
into classes, each class either has an object with exactly one endomorphism
(a basepoint, kind "U") or none (kind "V"), and the classes are strictly
ordered by one-way reachability.  Every object has an anchor: the basepoint
of its class, or the object itself in a V class.

`acceptability_failures` and `structure` work on a plain tuple of rows, so
the decider's condition walk runs them on every window without building a
HomMatrix.  `structure` returns the Partition record, the one form of the
class structure: a yes from the decider carries the walk's own, and the
witness and the certificate read it.  `check_acceptable` and
`build_partition` are the same on a HomMatrix; only the benchmark's replay
calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterator, NamedTuple

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


class Partition(NamedTuple):
    """Class structure of an acceptable square tuple of rows, as `structure`
    returns it.

    classes[c] lists members ascending; classes are ordered by smallest member.
    basepoints[c] is the basepoint of a U class and None for a V class.
    Local indices: the basepoint of a U class is 0 and the remaining members
    count up from 1; V class members count up from 1.  locals[c] lists class
    c's pairs (local index, object) ascending; local_of[x] is x's (c, index).
    order holds the pairs (c, d), ascending, with class c strictly above class
    d, meaning morphisms flow from c's objects to d's and never back.
    multiple_units lists (class, members-with-one-endomorphism) for classes
    where the basepoint is not unique; such matrices are never realizable but
    the partition is still returned for reporting.
    anchor[x] is the basepoint of x's class, or x itself in a V class, so
    that every floor between classes is one formula in the anchors.
    """

    classes: tuple[tuple[int, ...], ...]
    basepoints: tuple[int | None, ...]
    locals: tuple[tuple[tuple[int, int], ...], ...]
    order: tuple[tuple[int, int], ...]
    multiple_units: tuple[tuple[int, tuple[int, ...]], ...]
    anchor: tuple[int, ...]
    local_of: tuple[tuple[int, int], ...]

    def is_u(self, c: int) -> bool:
        return self.basepoints[c] is not None


def structure(rows: Rows) -> Partition:
    """The Partition of an acceptable square tuple of rows."""
    n = len(rows)
    anchor: list[int | None] = [None] * n
    local_of: list[tuple[int, int] | None] = [None] * n
    classes, basepoints, locals_, multiple_units = [], [], [], []
    for i, row in enumerate(rows):
        if anchor[i] is not None:  # i joined the class of a smaller member
            continue
        members = [j for j in range(i, n) if row[j] and rows[j][i]]
        classes.append(tuple(members))
        units = [x for x in members if rows[x][x] == 1]
        c = len(basepoints)
        if units:
            bp = units[0]
            if len(units) > 1:
                multiple_units.append((c, tuple(units)))
            members.remove(bp)
            pairs = ((0, bp), *enumerate(members, 1))
        else:
            bp = None
            pairs = tuple(enumerate(members, 1))
        basepoints.append(bp)
        locals_.append(pairs)
        for k, x in pairs:
            anchor[x] = x if bp is None else bp
            local_of[x] = c, k

    heads = [members[0] for members in classes]
    order = tuple([
        (c, d) for c, h in enumerate(heads) for d, k in enumerate(heads) if c != d and rows[h][k]
    ])
    return Partition(tuple(classes), tuple(basepoints), tuple(locals_), order,
                     tuple(multiple_units), tuple(anchor), tuple(local_of))


def build_partition(M: HomMatrix) -> Partition:
    """Partition an acceptable matrix; raises NotAcceptable otherwise."""
    cex = check_acceptable(M)
    if cex is not None:
        raise NotAcceptable(cex)
    return structure(M.entries)
