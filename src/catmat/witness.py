"""Construction of an explicit category realizing an accepted matrix.

Inside a class with basepoint, every non-identity morphism between x and y is
either one of the a(x)*b(y) composites of a leg into the basepoint and a leg
out of it (a Pair), or a Pad absorbing the surplus.  Classes without a
basepoint need only one structural morphism shape (Collapsed) plus Pads.
A hom-set between ordered classes splits into four parts anchored on the
basepoints, named by the part of a Cross label: Base (the floor shared by
the whole block), Row and Col (the surplus attached to the source row or
target column), and Extra (the rest).  Composition never leaves the floor
parts, which is what makes the table associative; the rules below say
exactly which part indices survive a composition.
"""

from __future__ import annotations

from .category import FiniteCategory
from .decider import decide
from .errors import CountError, NotComposable, Rejected
from .labels import Collapsed, Cross, Identity, MorphismLabel, Pad, Pair
from .matrix import HomMatrix
from .partition import Partition
from .reduction import ReductionMap, inflate


def a_of(N: HomMatrix, part: Partition, c: int, i: int) -> int:
    """Number of legs from local object i of class c into the class basepoint."""
    if not part.is_u(c) or i == 0:
        return 1
    return N[part.obj(c, i)][part.basepoints[c]]


def b_of(N: HomMatrix, part: Partition, c: int, j: int) -> int:
    """Number of legs from the class basepoint to local object j."""
    if not part.is_u(c) or j == 0:
        return 1
    return N[part.basepoints[c]][part.obj(c, j)]


def cross_part_sizes(N: HomMatrix, part: Partition, x: int, y: int) -> tuple[int, int, int, int]:
    """Sizes (base, row, col, extra) of the hom-set from x down to y.

    The base floor is the basepoint-to-basepoint count when both classes have
    one, and degenerates to the basepoint row or column when only one side
    does, or to the whole entry when neither does.
    """
    c, i = part.local_of[x]
    d, j = part.local_of[y]
    cu, du = part.is_u(c), part.is_u(d)
    m = N[x][y]
    if cu and du:
        bc, bd = part.basepoints[c], part.basepoints[d]
        base = N[bc][bd]
        row = N[x][bd] - base
        col = N[bc][y] - base
        extra = m - N[x][bd] - N[bc][y] + base
    elif du:
        bd = part.basepoints[d]
        base = N[x][bd]
        row, col, extra = 0, m - base, 0
    elif cu:
        bc = part.basepoints[c]
        base = N[bc][y]
        row, col, extra = m - base, 0, 0
    else:
        base, row, col, extra = m, 0, 0, 0
    if min(base, row, col, extra) < 0 or base + row + col + extra != m:
        raise CountError(
            f"cross parts ({base},{row},{col},{extra}) inconsistent with hom({x},{y})={m}"
        )
    return base, row, col, extra


def build_hom_labels(N: HomMatrix, part: Partition) -> dict[tuple[int, int], tuple[MorphismLabel, ...]]:
    """Label every hom-set of the reduced matrix; sizes match N exactly."""
    homs: dict[tuple[int, int], tuple[MorphismLabel, ...]] = {}
    for x in range(N.n):
        cx, i = part.local_of[x]
        for y in range(N.n):
            cy, j = part.local_of[y]
            m = N[x][y]
            labels: list[MorphismLabel] = []
            if cx == cy:
                if part.is_u(cx):
                    if i == 0 and j == 0:
                        if m != 1:
                            raise CountError(f"basepoint of class {cx} has {m} endomorphisms")
                        labels.append(Identity(cx, 0))
                    else:
                        if i == j:
                            labels.append(Identity(cx, i))
                        a = a_of(N, part, cx, i)
                        b = b_of(N, part, cx, j)
                        labels.extend(
                            Pair(cx, i, j, u, v)
                            for u in range(1, a + 1)
                            for v in range(1, b + 1)
                        )
                else:
                    if i == j:
                        labels.append(Identity(cx, i))
                    labels.append(Collapsed(cx, i, j))
                pad = m - len(labels)
                if pad < 0:
                    raise CountError(
                        f"hom({x},{y})={m} is smaller than its {len(labels)} structural labels"
                    )
                labels.extend(Pad(cx, i, j, k) for k in range(1, pad + 1))
            elif part.above(cx, cy):
                base, row, col, extra = cross_part_sizes(N, part, x, y)
                for kind, size in (("Base", base), ("Row", row), ("Col", col), ("Extra", extra)):
                    labels.extend(Cross(kind, cx, i, cy, j, k) for k in range(1, size + 1))
            elif m != 0:
                raise CountError(f"hom({x},{y})={m} between unordered classes {cx},{cy}")
            if labels:
                homs[(x, y)] = tuple(labels)
    return homs


def _endpoints(label: MorphismLabel, part: Partition) -> tuple[int, int]:
    if isinstance(label, Identity):
        x = part.obj(label.cls, label.i)
        return x, x
    if isinstance(label, (Pair, Collapsed, Pad)):
        return part.obj(label.cls, label.i), part.obj(label.cls, label.j)
    if isinstance(label, Cross):
        return part.obj(label.src_cls, label.i), part.obj(label.dst_cls, label.j)
    raise TypeError(f"not a morphism label: {label!r}")


def _pair_like(part: Partition, c: int, i: int, j: int, u: int, v: int) -> MorphismLabel:
    if not part.is_u(c):
        return Collapsed(c, i, j)
    if i == 0 and j == 0:
        return Identity(c, 0)
    return Pair(c, i, j, u, v)


def _as_inner(f: MorphismLabel, N: HomMatrix, part: Partition) -> MorphismLabel:
    """Right factor a Pad stands for: the maximal Pair of its hom-set."""
    if isinstance(f, Pad):
        if not part.is_u(f.cls):
            return Collapsed(f.cls, f.i, f.j)
        a = a_of(N, part, f.cls, f.i)
        b = b_of(N, part, f.cls, f.j)
        return Pair(f.cls, f.i, f.j, a, b)
    return f


def _as_outer(g: MorphismLabel, part: Partition) -> MorphismLabel:
    """Left factor a Pad stands for: the minimal Pair of its hom-set."""
    if isinstance(g, Pad):
        if not part.is_u(g.cls):
            return Collapsed(g.cls, g.i, g.j)
        return Pair(g.cls, g.i, g.j, 1, 1)
    return g


def compose(g: MorphismLabel, f: MorphismLabel, N: HomMatrix, part: Partition) -> MorphismLabel:
    """Composite g after f.

    Within a class the composite keeps f's inbound coordinate and g's outbound
    one.  A composite that crosses between classes keeps its part index only
    when the within-class factor acts on the basepoint side of a class that
    has one (Base and Row survive post-composition, Base and Col survive
    pre-composition); everything else lands on the first Base morphism, and
    crossing two ordered gaps always does.
    """
    fs, ft = _endpoints(f, part)
    gs, gt = _endpoints(g, part)
    if ft != gs:
        raise NotComposable(f"target of {f} is {ft}, source of {g} is {gs}")
    if isinstance(f, Identity):
        return g
    if isinstance(g, Identity):
        return f
    if isinstance(f, Pad) and f == g:
        return f
    fd = _as_inner(f, N, part)
    gd = _as_outer(g, part)
    fc = isinstance(fd, Cross)
    gc = isinstance(gd, Cross)
    if not fc and not gc:
        u = fd.u if isinstance(fd, Pair) else 1
        v = gd.v if isinstance(gd, Pair) else 1
        return _pair_like(part, fd.cls, fd.i, gd.j, u, v)
    if fc and gc:
        return Cross("Base", fd.src_cls, fd.i, gd.dst_cls, gd.j, 1)
    if fc:
        c = fd.dst_cls
        if part.is_u(c) and fd.part in ("Base", "Row"):
            return Cross(fd.part, fd.src_cls, fd.i, c, gd.j, fd.k)
        return Cross("Base", fd.src_cls, fd.i, c, gd.j, 1)
    c = gd.src_cls
    if part.is_u(c) and gd.part in ("Base", "Col"):
        return Cross(gd.part, c, fd.i, gd.dst_cls, gd.j, gd.k)
    return Cross("Base", c, fd.i, gd.dst_cls, gd.j, 1)


def build_witness(M: HomMatrix) -> FiniteCategory:
    """Build and return a category realizing M; raises Rejected if none exists.

    The category is built on the reduced matrix and inflated back through the
    reduction map when M has duplicate objects.  Construction is deterministic.
    """
    return _witness_and_map(M)[0]


def _witness_and_map(M: HomMatrix) -> tuple[FiniteCategory, ReductionMap]:
    """build_witness, also returning the reduction map its decision used."""
    verdict = decide(M)
    if not verdict.exists:
        raise Rejected(verdict)
    N, rmap, part = verdict.reduced, verdict.rmap, verdict.partition
    homs = build_hom_labels(N, part)
    identity = {x: Identity(*part.local_of[x]) for x in range(N.n)}
    table = {}
    for (x, y), fs in homs.items():
        for z in range(N.n):
            gs = homs.get((y, z))
            if not gs:
                continue
            allowed = set(homs.get((x, z), ()))
            for g in gs:
                for f in fs:
                    h = compose(g, f, N, part)
                    if h not in allowed:
                        raise CountError(f"composite {h} escapes hom({x},{z})")
                    table[(g, f)] = h
    B = FiniteCategory(N.n, homs, identity, table, coords=part.local_of)
    if rmap.m == rmap.n:
        return B, rmap
    return inflate(B, rmap, expected=M), rmap
