"""Collapsing duplicate objects and re-expanding categories over them.

Two objects are duplicates when they have identical rows and identical
columns.  Realizability only depends on the reduced matrix: a category for
the reduced matrix inflates to one for the original by cloning objects,
and restricting a category to representatives goes the other way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import FiniteCategory, table_from_blocks
from .errors import CardinalityError
from .matrix import HomMatrix


def duplicate_relation(M: HomMatrix) -> list[tuple[int, ...]]:
    """Partition object indices into duplicate groups, ordered by smallest member."""
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(zip(M.entries, zip(*M.entries))):
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


def reduce(M: HomMatrix) -> tuple[HomMatrix, ReductionMap]:
    """Collapse duplicate objects; the reduced matrix has no duplicate pair.

    Without duplicates the reduced matrix is M itself, under the identity map.
    """
    groups = duplicate_relation(M)
    if len(groups) == M.n:
        identity = tuple(range(M.n))
        return M, ReductionMap(M.n, M.n, identity, identity)
    class_of = [0] * M.n
    representative = []
    for a, group in enumerate(groups):
        representative.append(group[0])
        for i in group:
            class_of[i] = a
    rows = tuple(tuple(M[r][c] for c in representative) for r in representative)
    reduced = HomMatrix(len(groups), rows)
    rmap = ReductionMap(M.n, len(groups), tuple(class_of), tuple(representative))
    return reduced, rmap


def inflate(
    B: FiniteCategory, rmap: ReductionMap, expected: HomMatrix | None = None
) -> FiniteCategory:
    """Clone B's objects along rmap, producing a category on rmap.n objects.

    hom(i, j) carries one copy Infl(i,j,<beta>) of each morphism beta of
    B.hom(class_of[i], class_of[j]), and composition is B's, copied by
    position within each hom-set.  When `expected` is given the resulting
    hom-set sizes are checked against it.
    """
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
    identity = {i: f"Infl({i},{i},{B.identity[c[i]]})" for i in range(rmap.n)}
    position = {beta: k for inner in B.homs.values() for k, beta in enumerate(inner)}
    blocks: dict[tuple[int, int, int], list[list[int]]] = {}

    def block(x: int, y: int, z: int) -> list[list[int]]:
        key = (c[x], c[y], c[z])
        if key not in blocks:
            fs, gs = B.hom(key[0], key[1]), B.hom(key[1], key[2])
            blocks[key] = [[position[B.table[(g, f)]] for f in fs] for g in gs]
        return blocks[key]

    return FiniteCategory(rmap.n, homs, identity, table_from_blocks(rmap.n, homs, block))
