"""Construction of an explicit category realizing an accepted matrix.

Inside a class with basepoint p, every non-identity morphism between x and y
is either one of the hom(x, p)*hom(p, y) composites of a leg into the
basepoint and a leg out of it (a Pair), or a Pad absorbing the surplus.
Classes without a basepoint need only one structural morphism shape
(Collapsed) plus Pads.  A hom-set between ordered classes splits into four
parts on the anchors s of x and t of y (the basepoint of the class, or the
object itself in a class without one), named by the part of a Cross label:
Base, the hom(s, t) shared by the whole block; Row and Col, the surplus of
hom(x, t) and of hom(s, y) over it; and Extra, the rest.  Composition never
leaves the floor parts, which is what makes the table associative.

Labels are the certificate's strings, rendered once by build_hom_labels,
which numbers each hom-set 0..k-1, the identity first (`from_blocks` takes it
from there), and checks each hom-set's size once.  Composition is a fixed
index map per block (x, y, z), which _block_rows builds from the few numbers
_block_shape reads off the matrix, so build_witness builds each shape once
for the blocks that share it; _block_rows says exactly which part indices
survive a composition.  The category keeps these blocks, and its
label-keyed table is rendered only if a caller asks for it.
"""

from __future__ import annotations

from .category import FiniteCategory, composable
from .decider import decide
from .errors import CountError, Rejected, require_triple_budget
from .matrix import HomMatrix
from .partition import Partition
from .reduction import inflate
from .verifier import count_triples


def cross_part_sizes(N: HomMatrix, part: Partition, x: int, y: int) -> tuple[int, int, int, int]:
    """Sizes (base, row, col, extra) of the hom-set from x down to y.

    With s and t the anchors of x and y: base is hom(s, t), row and col are
    hom(x, t) and hom(s, y) less the base, and extra is the rest of hom(x, y).
    No part needs a case on class kinds: when x's class has no basepoint, or
    x is it, s = x, so row and extra are 0 and col is hom(x, y) - hom(x, t);
    t = y likewise makes col and extra 0.
    """
    s, t = part.anchor[x], part.anchor[y]
    m, base = N[x][y], N[s][t]
    row, col = N[x][t] - base, N[s][y] - base
    extra = m - base - row - col
    return base, row, col, extra


def build_hom_labels(N: HomMatrix, part: Partition) -> dict[tuple[int, int], tuple[str, ...]]:
    """Label every hom-set of the reduced matrix, the identity first.

    The decider checked the floors; the one check here is a size tripwire,
    CountError unless hom(x, y) gets exactly N[x][y] labels.  It catches a
    failed floor: a negative Pad count or cross part adds no labels, so the
    count exceeds N[x][y] by that amount.  Between two classes, hom(x, y) is
    nonempty exactly when x's class is above y's, by transitivity through
    the class heads, so a nonzero entry is all that marks an ordered pair.
    """
    homs: dict[tuple[int, int], tuple[str, ...]] = {}
    for x in range(N.n):
        cx, i = part.local_of[x]
        for y in range(N.n):
            cy, j = part.local_of[y]
            m = N[x][y]
            labels: list[str] = []
            if cx == cy:
                if i == j:
                    labels.append(f"Identity({cx},{i})")
                if part.is_u(cx):
                    bp = part.anchor[x]
                    b = N[bp][y]
                    if not x == y == bp:
                        labels += [
                            f"Pair({cx},{i},{j},{p // b + 1},{p % b + 1})"
                            for p in range(N[x][bp] * b)
                        ]
                else:
                    labels.append(f"Collapsed({cx},{i},{j})")
                labels += [f"Pad({cx},{i},{j},{k})" for k in range(1, m - len(labels) + 1)]
            elif m:
                sizes = cross_part_sizes(N, part, x, y)
                for kind, size in zip(("Base", "Row", "Col", "Extra"), sizes):
                    labels += [f"Cross{kind}({cx},{i},{cy},{j},{k})" for k in range(1, size + 1)]
            if len(labels) != m:
                raise CountError(f"hom({x},{y}) got {len(labels)} labels, the matrix says {m}")
            if labels:
                homs[(x, y)] = tuple(labels)
    return homs


def _block_shape(N: HomMatrix, part: Partition, x: int, y: int, z: int) -> tuple:
    """_block_rows' arguments for block (x, y, z): its kind, the sizes of
    hom(x, y), hom(y, z) and hom(x, z), whether x = y and whether y = z, then
    the numbers its kind reads."""
    (c, i), (d, _), (e, k) = part.local_of[x], part.local_of[y], part.local_of[z]
    Nx, hom, anchor, units = N[x], N.entries, part.anchor, part.basepoints
    sizes = (Nx[y], hom[y][z], Nx[z], x == y, y == z)
    if c != d:
        if d != e or units[d] is None:
            return ("onto", *sizes, 0)
        return ("f crosses", *sizes, Nx[anchor[y]])
    if units[c] is None:
        return ("onto", *sizes, int(d == e and i == k))
    if d != e:
        s, t = anchor[y], anchor[z]
        base, start = hom[s][t], hom[y][t]
        return ("g crosses", *sizes, base, start, Nx[t] - start, start + hom[s][z] - base)
    if i == k == 0:
        return ("onto", *sizes, 0)
    bp = anchor[x]
    a, bj, bk = Nx[bp], hom[bp][y], hom[bp][z]
    pf = 0 if x == y == bp else a * bj
    pg = 0 if y == z == bp else hom[y][bp] * bk
    return ("U", *sizes, i == k, a, bj, bk, pf, pg)


def _block_rows(kind: str, mf: int, mg: int, m: int, xy: bool, yz: bool, *own) -> list[list[int]] | None:
    """rows[g][f]: the index in hom(x,z) of g after f, for f indexing hom(x,y)
    and g indexing hom(y,z) in build_hom_labels' order, in every block of
    this shape; None if one falls outside hom(x,z), which has m members.

    Within a class the composite keeps f's inbound coordinate u and g's
    outbound one v; a Pad stands for the maximal Pair as the right factor and
    the minimal Pair as the left one, and composed with itself stays put.
    A composite that crosses between classes keeps its part index only when
    the within-class factor acts on the basepoint side of a class that has
    one (Base and Row survive post-composition, Base and Col survive
    pre-composition); everything else lands on the first Base morphism, and
    crossing two ordered gaps always does.  The part boundaries are read off
    the anchors as in cross_part_sizes: Base and Row of hom(x, y) are its
    first `keep` = hom(x, anchor[y]) indices.  An identity on either side
    passes the other factor through.
    """
    if kind == "onto":  # Collapsed, a basepoint's identity or the first Base
        (h,) = own
        rows = [[h] * mf for _ in range(mg)]
        first_pad = 2  # of hom(x,y) when x = y = z: after Identity and Collapsed
    elif kind == "f crosses":  # into class d, g stays inside it
        (keep,) = own
        rows = [[f if f < keep else 0 for f in range(mf)]] * mg
    elif kind == "g crosses":  # f stays inside class c, g crosses out of it
        base, start, shift, end = own  # Col of hom(y,z) is [start, end), moved by shift
        rows = [[g if g < base else g + shift if start <= g < end else 0] * mf for g in range(mg)]
    else:
        xz, a, bj, bk, pf, pg = own
        first_pad = xy + pf
        us = [0] * xy + [p // bj * bk for p in range(pf)] + [(a - 1) * bk] * (mf - first_pad)
        vs = [0] * yz + [q % bk for q in range(pg)] + [0] * (mg - yz - pg)
        # Pair (u, v) of hom(x,z) sits at xz + (u-1)*b(k) + (v-1); us holds
        # (u-1)*b(k) for each f and vs holds v-1 for each g.
        rows = [[xz + u + v for u in us] for v in vs]
    if xy:
        for g, r in enumerate(rows):
            r[0] = g
    if yz:
        rows[0] = list(range(mf))
    if xy and yz:
        for p in range(first_pad, mf):
            rows[p][p] = p
    return rows if min(map(min, rows)) >= 0 and max(map(max, rows)) < m else None


def build_witness(M: HomMatrix) -> FiniteCategory:
    """Build and return a category realizing M; raises Rejected if none exists.

    The category is built on the reduced matrix and inflated back through the
    reduction map when M has duplicate objects.  Construction is deterministic.
    Raises TripleBudgetError, before building anything, when the category
    would have more associativity triples than the verifier's budget allows.
    """
    verdict = decide(M)
    if not verdict.exists:
        raise Rejected(verdict)
    require_triple_budget(count_triples(M.entries))
    N, rmap, part = verdict.reduced, verdict.rmap, verdict.partition
    homs = build_hom_labels(N, part)
    built, blocks = {}, {}  # built: shape -> the rows its blocks share
    for xyz in composable(homs):
        shape = _block_shape(N, part, *xyz)
        rows = built.get(shape)
        if rows is None:
            rows = built[shape] = _block_rows(*shape)
            if rows is None:
                x, _, z = xyz
                raise CountError(f"a composite of block {xyz} falls outside hom({x},{z})={N[x][z]}")
        blocks[xyz] = rows
    B = FiniteCategory.from_blocks(N.n, homs, blocks)
    return B if rmap.m == rmap.n else inflate(B, rmap)
