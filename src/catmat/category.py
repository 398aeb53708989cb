"""Finite categories, given by per-block index rows or by claimed table rows.

Objects are 0..n-1.  Labels can be anything hashable but must be globally
unique across hom-sets; a built category's labels must also sort, since
`rows` renders its table in label order.  Witnesses use strings, which the
certificate carries as they are, and the oracle uses integers.

Every category the package builds (the witness, `inflate` and the oracle)
comes from `from_blocks`: `blocks` maps each composable block (x, y, z),
where hom(x, y) and hom(y, z) are nonempty, to rows with rows[g][f] the
index in hom(x, z) of g.f, for g indexing hom(y, z) and f indexing
hom(x, y); blocks may share rows (the witness by block shape, `inflate` by
class), so rows are read-only.  The identity of x is the first member of
hom(x, x), index 0, which every builder lists first.  Labels are rendered
only on request, by `walk` in sorted order as the caller renders them: as
they are for `rows`, the sorted [g, f, g.f] triples, and the label-keyed
`table`, quoted for the certificate writer.  A *claimed* category has explicit
identities, no blocks and no table: it is given a certificate's [g, f, g.f]
rows, only the verifier reads it, and certificates and inflation take built
ones.  Every category has the verifier's layout (Out(x) and `offset`,
successors[x] as (z, hom(x, z)) by z, `place`) and, as `filled`, its
integer rows, which a built one fills from `rows` when first read.
Instances are immutable by convention.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import require_triple_budget

Blocks = dict[tuple[int, int, int], list[list[int]]]
BAD_ROW = "every table row must be three label strings"
BYTE_HOLE = 255  # the widest Out(x) that byte rows take; 255 is their hole


class FiniteCategory:
    def __init__(
        self,
        n: int,
        homs: Mapping[tuple[int, int], Sequence[Hashable]],
        identity: Mapping[int, Hashable],
        table: list,
    ):
        """A claimed category, given by a certificate's [g, f, g.f] rows,
        which it fills as it reads and does not keep."""
        self._set_homs(n, homs)
        self.identity = dict(identity)
        self.filled = self._fill(table)

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
        self.homs = {}
        for (x, z), labels in homs.items():  # empty ones dropped, but checked
            if not (0 <= x < n and 0 <= z < n):
                objects = f"0..{n - 1}" if n else "(there are none)"
                raise ValueError(f"hom key {(x, z)!r} is outside objects {objects}")
            if labels:
                self.homs[x, z] = tuple(labels)
        self.out, self.successors, self.offset, self.place = {}, {}, {}, {}
        for (x, z), labels in sorted(self.homs.items()):
            self.successors.setdefault(x, []).append((z, labels))
            out_x = self.out.setdefault(x, [])
            self.offset[(x, z)] = len(out_x)
            for label in labels:
                if label in self.place:
                    raise ValueError(f"label appears twice in the hom-sets: {label!r}")
                self.place[label] = (x, z, len(out_x))
                out_x.append(label)

    @cached_property
    def table(self) -> dict[tuple[Hashable, Hashable], Hashable]:
        """The label-keyed composition table, rendered from the blocks."""
        return {(g, f): h for g, f, h in self.rows()}

    def rows(self) -> list[list]:
        """sorted([g, f, g.f] for every composable pair), made from the blocks."""
        return [[g, f, h] for g, fs, hs in self.walk(self.homs) for f, h in zip(fs, hs)]

    def walk(self, shown: Mapping[tuple[int, int], Sequence]) -> Iterator[tuple]:
        """(g, fs, hs) for each g in label order: fs lists the f ending at g's
        source in label order and hs the composites g.f in that order, every
        label rendered as shown[(x, y)] renders hom(x, y).  The f ending at y
        are sorted once, and each g.f is looked up once."""
        homs, blocks = self.homs, self.blocks
        into: dict[int, list[int]] = {}  # y -> [x with hom(x, y) nonempty], ascending
        for x, y in sorted(homs):
            into.setdefault(y, []).append(x)
        order = {}  # y -> (places of the f ending at y in label order, those f as shown)
        for y, xs in into.items():
            fs = [f for x in xs for f in homs[x, y]]
            places = sorted(range(len(fs)), key=fs.__getitem__)
            fs = [f for x in xs for f in shown[x, y]]
            order[y] = places, [fs[k] for k in places]
        composites = []  # (g, g as shown, order[y], g.f for each f in into[y]'s order)
        for (y, z), gs in homs.items():
            gfs = [[] for _ in gs]
            for x in into[y]:
                label = shown[x, z].__getitem__
                for gf, row in zip(gfs, blocks[x, y, z]):
                    gf += map(label, row)
            composites += zip(gs, shown[y, z], repeat(order[y]), gfs)
        composites.sort(key=itemgetter(0))
        for _, g, (places, fs), gf in composites:
            yield g, fs, map(gf.__getitem__, places)

    def hom(self, x: int, y: int) -> tuple:
        return self.homs.get((x, y), ())

    def morphism_count(self) -> int:
        return len(self.place)

    @cached_property
    def filled(self) -> tuple:
        return self._fill(self.rows())

    def _fill(self, rows: Iterable) -> tuple:
        """(hole, pad, gather, join, post, stray, foreign), as verifier.py
        reads them, from rows [g, f, g.f]; a row with a label in no hom-set
        must be three strings.  With every hom(z, z) nonempty, the pairs
        charged against the triple budget first are no more than triples.

        The row format is chosen here, once, and nothing else knows it.
        When every Out(x) has at most BYTE_HOLE morphisms, rows are bytes
        and the hole is 255, which no position takes; when one is wider,
        rows are tuples and the hole is -1.  pad(row) is f's table, f's row
        read at the hole giving the hole: the row padded with holes to the
        256 bytes of a translate table, or with one hole appended, which
        index -1 reads.  gather(r) maps a table t to the row of t[q] for
        each q in r in one C call: r.translate, or itemgetter(*r).
        join(rows) sets rows end to end as one row.
        """
        width = {x: len(out_x) for x, out_x in self.out.items()}
        pairs = sum(len(fs) * width.get(y, 0) for (_, y), fs in self.homs.items())
        require_triple_budget(pairs, what="composable pairs")
        if any(w > BYTE_HOLE for w in width.values()):
            hole, new, freeze, pad = -1, list, tuple, lambda row: row + (-1,)
            gather, join = _tuple_gather, lambda rows: tuple(chain.from_iterable(rows))
        else:
            hole, new, freeze, pad = 255, bytearray, bytes, lambda row: row.ljust(256, b"\xff")
            gather, join = attrgetter("translate"), b"".join
        post = {x: [new([hole] * width.get(z, 0)) for z, fs in zs for _ in fs]
                for x, zs in self.successors.items()}
        place, stray, foreign = self.place, {}, {}
        for row in rows:  # an unhashable label raises TypeError
            if type(row) is not list or len(row) != 3:
                raise ValueError(BAD_ROW)
            g, f, h = row
            try:
                (y, z, c), (x, fy, p), (hx, hz, q) = place[g], place[f], place[h]
            except KeyError:
                (y, z, c), (x, fy, p), (hx, hz, q) = (place.get(l, (None,) * 3) for l in row)
                if not all(isinstance(label, str) for label in row):
                    raise ValueError(BAD_ROW) from None
            if fy is None or fy != y:
                if (g, f) in foreign:
                    raise ValueError(f"table defines ({g}, {f}) twice")
                foreign[g, f] = None
                continue
            cells = post[x][p]
            if cells[c] != hole or stray and (f, c) in stray:
                raise ValueError(f"table defines ({g}, {f}) twice")
            if hx == x and hz == z:
                cells[c] = q
            else:
                stray[f, c] = h
        for rows_x in post.values():  # one at a time, so each list is freed
            for i, cells in enumerate(rows_x):
                rows_x[i] = freeze(cells)
        return hole, pad, gather, join, post, stray, foreign


def _tuple_gather(r: tuple):
    """itemgetter(*r), which returns a tuple for rows of 0 or 1 entries too."""
    if len(r) > 1:
        return itemgetter(*r)
    return (lambda t: (t[r[0]],)) if r else (lambda t: ())


def composable(homs: Mapping[tuple[int, int], Sequence]) -> Iterator[tuple[int, int, int]]:
    """Every block (x, y, z) with hom(x, y) and hom(y, z) nonempty, by (x, y)
    in the order of `homs`, then z; `homs` lists only nonempty hom-sets."""
    successors: dict[int, list[int]] = {}
    for y, z in sorted(homs):
        successors.setdefault(y, []).append(z)
    for x, y in homs:
        for z in successors.get(y, ()):
            yield x, y, z
