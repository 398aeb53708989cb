"""Finite categories, given by per-block index rows or by a claimed table.

Objects are 0..n-1.  Labels can be anything hashable but must be globally
unique across hom-sets, because the label-keyed table is keyed by label pairs
alone; a built category's labels must also sort, since `rows` renders its
table in label order.  Witnesses use strings, which the certificate carries
as they are, and the oracle uses integers.

Every category the package builds (the witness, `inflate` and the oracle)
comes from `from_blocks`: `blocks` maps each composable block (x, y, z),
where hom(x, y) and hom(y, z) are nonempty, to rows with rows[g][f] the
index in hom(x, z) of g.f, for g indexing hom(y, z) and f indexing
hom(x, y).  The identity of x is the first member of hom(x, x), index 0,
which every builder lists first.  Labels are rendered only when a caller asks
for them, by `rows` as sorted [g, f, g.f] triples, or as the label-keyed
`table` mapping (g, f) to g.f.  The constructor takes a table and explicit
identities instead: that is a *claimed* category, such as the one
`load_certificate` returns, which has no blocks and which only the verifier
reads.  Certificates and inflation take built categories.  Instances are
immutable by convention: nothing in the package mutates a category after
construction.
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, Iterator, Mapping, Sequence

Blocks = dict[tuple[int, int, int], list[list[int]]]


class FiniteCategory:
    def __init__(
        self,
        n: int,
        homs: Mapping[tuple[int, int], Sequence[Hashable]],
        identity: Mapping[int, Hashable],
        table: Mapping[tuple[Hashable, Hashable], Hashable],
    ):
        """A claimed category, given by its label table; it has no blocks."""
        self._set_homs(n, homs)
        self.identity = dict(identity)
        self.table = dict(table)

    @classmethod
    def from_blocks(cls, n: int, homs: Mapping, blocks: Blocks) -> FiniteCategory:
        """The category whose composition is `blocks`, one entry for each
        composable block, with the first member of hom(x, x) as x's identity;
        its label-keyed table is rendered on first access."""
        C = cls.__new__(cls)
        C._set_homs(n, homs)
        C.identity = {x: C.homs[(x, x)][0] for x in range(n)}
        C.blocks = blocks
        return C

    def _set_homs(self, n: int, homs: Mapping) -> None:
        self.n = n
        self.homs = {pair: tuple(labels) for pair, labels in homs.items() if labels}
        self.hom_of: dict[Hashable, tuple[int, int]] = {}
        for (x, y), labels in sorted(self.homs.items()):
            if not (0 <= x < n and 0 <= y < n):
                raise ValueError(f"hom key {(x, y)!r} is outside objects 0..{n - 1}")
            for label in labels:
                if label in self.hom_of:
                    raise ValueError(f"label appears in two hom-sets: {label!r}")
                self.hom_of[label] = (x, y)

    @cached_property
    def table(self) -> dict[tuple[Hashable, Hashable], Hashable]:
        """The label-keyed composition table, rendered from the blocks."""
        return {(g, f): h for g, f, h in self.rows()}

    def rows(self) -> list[list]:
        """sorted([g, f, g.f] for every composable pair), made from the blocks.

        Each g: y -> z comes in label order, and with it each f ending at y in
        label order; as (g, f) is unique, that is the sorted order.  Every
        composite g.f is looked up once, into a list per g that follows
        into[y].
        """
        homs, blocks = self.homs, self.blocks
        into: dict[int, list] = {}  # y -> [(x, hom(x, y))] for the nonempty ones, by x
        for (x, y), fs in sorted(homs.items()):
            into.setdefault(y, []).append((x, fs))
        by_label = {}  # y -> (f, k) in label order, k the place of f in into[y]
        for y, sources in into.items():
            fs = [f for _, labels in sources for f in labels]
            by_label[y] = sorted(zip(fs, range(len(fs))))
        composites = {}  # g -> (by_label[y], g.f for each f in into[y]'s order)
        for (y, z), gs in homs.items():
            gfs = [[] for _ in gs]
            for x, _ in into.get(y, ()):
                label = homs[(x, z)].__getitem__
                for gf, row in zip(gfs, blocks[(x, y, z)]):
                    gf += map(label, row)
            order = by_label.get(y, ())
            composites.update((g, (order, gf)) for g, gf in zip(gs, gfs))
        rows = []
        for g in sorted(composites):
            order, hs = composites[g]
            rows += [[g, f, hs[k]] for f, k in order]
        return rows

    def hom(self, x: int, y: int) -> tuple:
        return self.homs.get((x, y), ())

    def morphism_count(self) -> int:
        return len(self.hom_of)


def composable(homs: Mapping[tuple[int, int], Sequence]) -> Iterator[tuple[int, int, int]]:
    """Every block (x, y, z) with hom(x, y) and hom(y, z) nonempty, by (x, y)
    in the order of `homs`, then z; `homs` lists only nonempty hom-sets."""
    successors: dict[int, list[int]] = {}
    for y, z in sorted(homs):
        successors.setdefault(y, []).append(z)
    for x, y in homs:
        for z in successors.get(y, ()):
            yield x, y, z
