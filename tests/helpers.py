"""Shared generators and independent expected-value formulas.

The closed forms here are written directly from the 2x2, unit-first, 4x4
block and cross-part case analyses and are deliberately kept separate from
the package code: acceptance compares the decider against these, so they
must not share logic with it.
"""

from __future__ import annotations

import random
import re
import sys
from typing import Sequence

from catmat import FiniteCategory, HomMatrix, ParseError, reduce


def two_by_two_exists(a: int, b: int, c: int, d: int) -> bool:
    """Independent closed form for [[a,b],[c,d]].

    Both diagonals must be positive.  If either off-diagonal entry is zero the
    two objects only interact one way (or not at all) and nothing more is
    required.  Strictly positive matrices follow the four-case table: the
    all-ones matrix collapses to a point; with a 1 on one diagonal the other
    diagonal must exceed b*c; with both diagonals >= 2 anything works.
    """
    if a < 1 or d < 1:
        return False
    if b == 0 or c == 0:
        return True
    if a == 1 and b == 1 and c == 1 and d == 1:
        return True
    if a == 1:
        return d > b * c
    if d == 1:
        return a > b * c
    return True


def unit_first_exists(M: HomMatrix) -> bool:
    """Strictly positive M with M[0][0] = 1 and other diagonals >= 2: yes iff
    every diagonal beats the product of its legs through object 0 and every
    off-diagonal entry reaches the product of its legs."""
    n = M.n
    for i in range(1, n):
        if M[i][i] <= M[0][i] * M[i][0]:
            return False
    for i in range(1, n):
        for j in range(1, n):
            if i != j and M[i][j] < M[i][0] * M[0][j]:
                return False
    return True


def block_4x4(b: int, e: int, x: int, q: int, c: int, k: int, d: int, l: int) -> HomMatrix:
    """Two stacked 2x2 unit-first blocks joined by an upper-right cross block."""
    f = b * e + 1
    m = x * q + 1
    return HomMatrix.from_rows(
        [[1, b, c, d], [e, f, k, l], [0, 0, 1, x], [0, 0, q, m]]
    )


def block_4x4_exists(c: int, k: int, d: int, l: int) -> bool:
    return k >= c and d >= c and l >= c and l >= k and l >= d and l >= k + d - c


def cross_parts_by_kind(N: HomMatrix, part, x: int, y: int) -> tuple[int, int, int, int]:
    """Closed form of the cross parts (base, row, col, extra) of hom(x, y),
    one case per pair of class kinds: both classes have a basepoint, only
    y's, only x's, or neither."""
    bc = part.basepoints[part.local_of[x][0]]
    bd = part.basepoints[part.local_of[y][0]]
    m = N[x][y]
    if bc is not None and bd is not None:
        base = N[bc][bd]
        return base, N[x][bd] - base, N[bc][y] - base, m - N[x][bd] - N[bc][y] + base
    if bd is not None:
        return N[x][bd], 0, m - N[x][bd], 0
    if bc is not None:
        return N[bc][y], m - N[bc][y], 0, 0
    return m, 0, 0, 0


def class_chain(
    rng: random.Random, kinds: str, sizes: Sequence[int], slack: int = 1
) -> list[list[int]]:
    """Rows of a realizable matrix whose classes, of the given kinds ("U" with
    its first member as basepoint, or "V") and sizes, form one chain from the
    first class down.  Each entry is its floor plus 0..slack."""
    classes, n = [], 0
    for kind, size in zip(kinds, sizes):
        classes.append((kind, list(range(n, n + size))))
        n += size
    M = [[0] * n for _ in range(n)]

    def up(floor: int) -> int:
        return floor + rng.randint(0, slack)

    for kind, xs in classes:
        if kind == "U":
            b = xs[0]
            M[b][b] = 1
            for x in xs[1:]:
                M[x][b], M[b][x] = up(1), up(1)
            for x in xs[1:]:
                for y in xs[1:]:
                    M[x][y] = up(M[x][b] * M[b][y] + (x == y))
        else:
            for x in xs:
                for y in xs:
                    M[x][y] = up(1 + (x == y))
    for c, (kc, xs) in enumerate(classes):
        for kd, ys in classes[c + 1 :]:
            s = xs[0] if kc == "U" else None
            t = ys[0] if kd == "U" else None
            for x in xs:  # s and t come first, so their cells are set first
                for y in ys:
                    floor = 1
                    if t is not None and y != t:
                        floor = max(floor, M[x][t])
                    if s is not None and x != s:
                        floor = max(floor, M[s][y])
                    if s is not None and t is not None and x != s and y != t:
                        floor = max(floor, M[s][y] + M[x][t] - M[s][t])
                    M[x][y] = up(floor)
    return M


def quadrant_family(
    rng: random.Random, sizes: tuple[int, int] = (2, 2), slack: int = 1
) -> list[HomMatrix]:
    """Two U classes of the given sizes, {s, ..., x} above {t, ..., y} with
    basepoints s and t and last members x and y, every other cell at most
    `slack` above its floor, and each cross cell of s, x, t and y set at its
    floor and one below: hom(s, t) at hom(s, y) + hom(x, t) - hom(x, y) (and
    at least 1), hom(s, y) and hom(x, t) at hom(s, t), and the quadrant cell
    hom(x, y) at hom(s, y) + hom(x, t) - hom(s, t).  Each of the eight
    matrices is relabeled at random, and transposed half the time."""
    M = class_chain(rng, "UU", sizes, slack)
    n = len(M)
    s, x, t, y = 0, sizes[0] - 1, sizes[0], n - 1
    floors = {
        (s, t): lambda: max(1, M[s][y] + M[x][t] - M[x][y]),
        (s, y): lambda: M[s][t],
        (x, t): lambda: M[s][t],
        (x, y): lambda: M[s][y] + M[x][t] - M[s][t],
    }
    out = []
    for (i, j), floor in floors.items():
        for below in (1, 0):
            cut = [row[:] for row in M]
            cut[i][j] = floor() - below
            N = HomMatrix.from_rows(cut)
            if rng.random() < 0.5:
                N = transpose(N)
            sigma = list(range(n))
            rng.shuffle(sigma)
            out.append(permute(N, sigma))
    return out


def random_matrix(rng: random.Random, n: int, max_entry: int, min_entry: int = 0) -> HomMatrix:
    return HomMatrix.from_rows(
        [[rng.randint(min_entry, max_entry) for _ in range(n)] for _ in range(n)]
    )


def random_unit_first(rng: random.Random, n: int, max_entry: int) -> HomMatrix:
    """Strictly positive, M[0][0] = 1, all other diagonals >= 2."""
    rows = [[rng.randint(1, max_entry) for _ in range(n)] for _ in range(n)]
    rows[0][0] = 1
    for i in range(1, n):
        rows[i][i] = rng.randint(2, max_entry)
    return HomMatrix.from_rows(rows)


def duplicate_objects(rng: random.Random, M: HomMatrix, copies: int) -> HomMatrix:
    """Append duplicate rows/columns for `copies` randomly chosen objects."""
    phi = list(range(M.n))
    for _ in range(copies):
        phi.append(rng.randrange(len(phi)) if phi else 0)
        phi[-1] = phi[phi[-1]]  # duplicate of a duplicate resolves to the original
    size = len(phi)
    return HomMatrix.from_rows(
        [[M[phi[i]][phi[j]] for j in range(size)] for i in range(size)]
    )


DIGITS = re.compile(r"-?[0-9]+")


def reference_parse(text: str) -> HomMatrix:
    """parse_matrix on text input, token by token: an entry is what DIGITS
    matches, read by int().  A line's first token that int() would read
    but DIGITS does not ("_", "+", non-ASCII) is named before any other."""
    rows = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens:
            continue
        for tok in tokens:
            if "_" in tok or "+" in tok or not tok.isascii():
                raise ParseError(f"not an integer: {tok!r} (entries are ASCII digits)")
        row = []
        for tok in tokens:
            if not DIGITS.fullmatch(tok):
                raise ParseError(f"not an integer: {tok!r}")
            try:
                row.append(int(tok))
            except ValueError:
                limit = sys.get_int_max_str_digits()
                raise ParseError(
                    f"row {len(rows)} has an integer longer than the limit of {limit} digits"
                ) from None
        rows.append(row)
    return HomMatrix.from_rows(rows)


def principal_submatrix(M: HomMatrix, keep: Sequence[int]) -> HomMatrix:
    """Restrict M to the rows and columns in `keep` (strictly increasing indices)."""
    for k in keep:
        if not 0 <= k < M.n:
            raise IndexError(f"index {k} out of range for size {M.n}")
    if any(keep[t] >= keep[t + 1] for t in range(len(keep) - 1)):
        raise ValueError(f"keep indices must be strictly increasing: {list(keep)}")
    rows = tuple(tuple(M[i][j] for j in keep) for i in keep)
    return HomMatrix(len(keep), rows)


def permute(M: HomMatrix, sigma: Sequence[int]) -> HomMatrix:
    """Relabel objects: result[i][j] = M[sigma[i]][sigma[j]] for a permutation sigma."""
    if len(sigma) != M.n or sorted(sigma) != list(range(M.n)):
        raise IndexError(f"not a permutation of range({M.n}): {list(sigma)}")
    rows = tuple(tuple(M[sigma[i]][sigma[j]] for j in range(M.n)) for i in range(M.n))
    return HomMatrix(M.n, rows)


def transpose(M: HomMatrix) -> HomMatrix:
    """Swap sources and targets; realizability is preserved by opposite categories."""
    rows = tuple(tuple(M[j][i] for j in range(M.n)) for i in range(M.n))
    return HomMatrix(M.n, rows)


def random_reduced(rng: random.Random, n: int, max_entry: int) -> HomMatrix:
    return reduce(random_matrix(rng, n, max_entry))[0]


def claimed(n: int, homs, identity, table: dict) -> FiniteCategory:
    """The claimed category of a label table {(g, f): g.f}, given to
    FiniteCategory as a certificate's [g, f, g.f] rows."""
    return FiniteCategory(n, homs, identity, [[g, f, h] for (g, f), h in table.items()])


def check_category_axioms(C, table, M) -> bool:
    """Naive independent axiom check of C's hom-sets and identities with the
    label table `table`: sizes, identities, closure, associativity.

    Written as plain dict/loop code with no caps so the mutation tests do not
    share a code path with the package verifier.
    """
    for i in range(max(C.n, M.n)):
        for j in range(max(C.n, M.n)):
            want = M[i][j] if i < M.n and j < M.n else 0
            have = len(C.hom(i, j)) if i < C.n and j < C.n else 0
            if want != have:
                return False
    morphisms = []
    where = {}
    for (x, y), labels in C.homs.items():
        for l in labels:
            morphisms.append(l)
            where[l] = (x, y)
    for x in range(C.n):
        e = C.identity.get(x)
        if e is None or where.get(e) != (x, x):
            return False
    for f in morphisms:
        x, y = where[f]
        if table.get((C.identity[y], f)) != f:
            return False
        if table.get((f, C.identity[x])) != f:
            return False
    for g in morphisms:
        for f in morphisms:
            if where[f][1] != where[g][0]:
                if (g, f) in table:
                    return False
                continue
            h = table.get((g, f))
            if h is None or where.get(h) != (where[f][0], where[g][1]):
                return False
    for h in morphisms:
        for g in morphisms:
            if where[g][1] != where[h][0]:
                continue
            for f in morphisms:
                if where[f][1] != where[g][0]:
                    continue
                if table[(h, table[(g, f)])] != table[(table[(h, g)], f)]:
                    return False
    return True


def reference_block(N: HomMatrix, part, x: int, y: int, z: int) -> list[list[int]]:
    """Block (x, y, z) of the witness, read straight off N and part with no
    shape in between: rows[g][f] is the index in hom(x, z) of g after f.

    This is the witness's composition rule as one function, kept apart from
    `catmat.witness`, which splits it into the numbers a block reads and
    rows built from those numbers alone; a number missing from that split
    shows as a block that differs from this one.  No range check.
    """
    (c, i), (d, j), (e, k) = part.local_of[x], part.local_of[y], part.local_of[z]
    mf, mg = N[x][y], N[y][z]
    first_pad = mf  # of hom(x,y), when x = y = z
    if c != d and d != e:
        rows = [[0] * mf for _ in range(mg)]
    elif c != d:  # f crosses into class d: Base and Row of hom(x, y) survive
        keep = N[x][part.anchor[y]] if part.is_u(d) else 0
        rows = [[f if f < keep else 0 for f in range(mf)] for _ in range(mg)]
    elif d != e:  # g crosses out of class c: Base and Col of hom(y, z) survive
        kept = [0] * mg
        if part.is_u(c):
            s, t = part.anchor[y], part.anchor[z]
            base, start = N[s][t], N[y][t]
            shift, end = N[x][t] - start, start + N[s][z] - base
            kept = [g if g < base else g + shift if start <= g < end else 0 for g in range(mg)]
        rows = [[h] * mf for h in kept]
    elif not part.is_u(c):
        rows = [[int(i == k)] * mf for _ in range(mg)]
        first_pad = 1 + (i == j)
    elif i == k == 0:
        rows = [[0] * mf for _ in range(mg)]
    else:
        bp = part.anchor[x]
        a, bj, bk = N[x][bp], N[bp][y], N[bp][z]
        idf, idg = int(i == j), int(j == k)
        pf = 0 if x == y == bp else a * bj
        pg = 0 if y == z == bp else N[y][bp] * bk
        first_pad = idf + pf
        us = [0] * idf + [p // bj * bk for p in range(pf)] + [(a - 1) * bk] * (mf - first_pad)
        vs = [0] * idg + [q % bk for q in range(pg)] + [0] * (mg - idg - pg)
        rows = [[int(i == k) + u + v for u in us] for v in vs]
    if x == y:
        for g, r in enumerate(rows):
            r[0] = g
    if y == z:
        rows[0] = list(range(mf))
    if x == y == z:
        for p in range(first_pad, mf):
            rows[p][p] = p
    return rows
