"""Finite categories as explicit composition tables.

Objects are 0..n-1.  Labels can be anything hashable but must be globally
unique across hom-sets, because the composition table is keyed by label pairs
alone; witnesses use strings, which the certificate carries as they are.
Instances are immutable by convention: nothing in the package mutates a
category after construction.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping, Sequence


class FiniteCategory:
    def __init__(
        self,
        n: int,
        homs: Mapping[tuple[int, int], Sequence[Hashable]],
        identity: Mapping[int, Hashable],
        table: Mapping[tuple[Hashable, Hashable], Hashable],
    ):
        self.n = n
        self.homs = {pair: tuple(labels) for pair, labels in homs.items() if labels}
        self.identity = dict(identity)
        self.table = dict(table)
        self.hom_of: dict[Hashable, tuple[int, int]] = {}
        for (x, y), labels in sorted(self.homs.items()):
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"hom key {(x, y)!r} is outside objects 0..{n - 1}")
            for label in labels:
                if label in self.hom_of:
                    raise ValueError(f"label appears in two hom-sets: {label!r}")
                self.hom_of[label] = (x, y)

    def hom(self, x: int, y: int) -> tuple:
        return self.homs.get((x, y), ())

    def morphism_count(self) -> int:
        return len(self.hom_of)


def table_from_blocks(
    n: int,
    homs: Mapping[tuple[int, int], Sequence[Hashable]],
    block: Callable[[int, int, int], list[list[int]]],
) -> dict:
    """The label-keyed composition table of composites given by position.

    block(x, y, z)[g][f] is the index in hom(x,z) of hom(y,z)[g] after
    hom(x,y)[f]; it is asked for every composable block once.
    """
    table = {}
    for (x, y), fs in homs.items():
        for z in range(n):
            gs = homs.get((y, z))
            if gs:
                rows = block(x, y, z)
                hs = homs[(x, z)]
                for g, row in zip(gs, rows):
                    for f, h in zip(fs, row):
                        table[(g, f)] = hs[h]
    return table
