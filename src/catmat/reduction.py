"""Collapsing duplicate objects and re-expanding categories over them.

Two objects are duplicates when they have identical rows and identical
columns.  Realizability only depends on the reduced matrix: a category for
the reduced matrix inflates to one for the original by cloning objects,
and restricting a category to representatives goes the other way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CardinalityError
from .matrix import HomMatrix, Rows

if TYPE_CHECKING:
    from .category import FiniteCategory


def duplicate_relation(rows: Rows) -> list[tuple[int, ...]]:
    """Partition the object indices of a square tuple of rows into duplicate
    groups, ordered by smallest member."""
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(zip(rows, zip(*rows))):
        groups.setdefault(key, []).append(i)
    return [tuple(g) for g in groups.values()]  # a group enters at its smallest member


@dataclass(frozen=True)
class ReductionMap:
    """Surjection from the n original objects onto the m reduced objects.

    representative[a] is the smallest original index mapping to a; the
    representatives are strictly increasing in a.
    """

    n: int
    m: int
    class_of: tuple[int, ...]
    representative: tuple[int, ...]


def reduce_rows(rows: Rows) -> tuple[Rows, tuple[int, ...], tuple[int, ...]]:
    """`reduce` on a square tuple of rows already known to be valid: the
    reduced rows, class_of and representative.

    Without duplicates the reduced rows are `rows` itself, under the identity.
    """
    n = len(rows)
    if len(set(rows)) < n:  # distinct rows rule out duplicates
        groups = duplicate_relation(rows)
        if len(groups) < n:
            class_of = [0] * n
            for a, group in enumerate(groups):
                for i in group:
                    class_of[i] = a
            representative = tuple([group[0] for group in groups])
            reduced = tuple(tuple([rows[r][c] for c in representative]) for r in representative)
            return reduced, tuple(class_of), representative
    identity = tuple(range(n))
    return rows, identity, identity


def reduce(M: HomMatrix) -> tuple[HomMatrix, ReductionMap]:
    """Collapse duplicate objects; the reduced matrix has no duplicate pair.

    Without duplicates the reduced matrix is M itself, under the identity map.
    """
    return reduced_pair(M, *reduce_rows(M.entries))


def reduced_pair(
    M: HomMatrix, rows: Rows, class_of: tuple[int, ...], representative: tuple[int, ...]
) -> tuple[HomMatrix, ReductionMap]:
    """`reduce(M)` from reduce_rows(M.entries), already computed; rows cut from M need no check."""
    N = M if rows is M.entries else HomMatrix._trusted(rows)
    return N, ReductionMap(M.n, N.n, class_of, representative)


def inflate(
    B: FiniteCategory, rmap: ReductionMap, expected: HomMatrix | None = None
) -> FiniteCategory:
    """Clone the built category B's objects along rmap, producing a category
    on rmap.n objects.

    hom(i, j) carries one copy Infl(i,j,<beta>) of each morphism beta of
    B.hom(class_of[i], class_of[j]), in B's order, and block (i, j, k) of the
    composition is block (class_of[i], class_of[j], class_of[k]) of B's, the
    same rows.  The sizes are M's by the reduction's definition; only the
    benchmark's replay passes `expected`, to check them against it.
    """
    from .category import FiniteCategory, composable

    if B.n != rmap.m:
        raise CardinalityError(f"category has {B.n} objects, map expects {rmap.m}")
    if expected is not None and expected.n != rmap.n:
        raise CardinalityError(f"expected matrix is {expected.n}x{expected.n}, map inflates to {rmap.n}")
    c = rmap.class_of
    homs = {}
    for i in range(rmap.n):
        for j in range(rmap.n):
            inner = B.hom(c[i], c[j])
            if expected is not None and len(inner) != expected[i][j]:
                raise CardinalityError(
                    f"hom({i},{j}) would have {len(inner)} morphisms, expected {expected[i][j]}"
                )
            if inner:
                homs[(i, j)] = tuple(f"Infl({i},{j},{beta})" for beta in inner)
    by_class = B.blocks
    blocks = {(i, j, k): by_class[(c[i], c[j], c[k])] for i, j, k in composable(homs)}
    return FiniteCategory.from_blocks(rmap.n, homs, blocks)
