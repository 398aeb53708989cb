"""Exhaustive verification of a composition table against a matrix.

Checks, in order: hom-set sizes against the matrix, identity morphisms and
both unit laws, closure of the table (every composable pair has an entry in
the right hom-set and the table holds nothing else), and associativity over
every composable triple.  Nothing here trusts the construction: labels are
opaque tokens that are only hashed and compared, so the verifier doubles as
the replay half of the certificate format.  `verify_category(C, M)` keeps
at most DEFAULT_FAILURE_CAP failures of each kind.  Every count of work is
charged against the triple budget (`errors.require_triple_budget`).

All but the cardinality pass read C.filled, one row per morphism, which C
fills from its table rows (load_certificate's as it reads them, a built
category's when first read), each label looked up once in C.place, after
charging the composable pairs against the triple budget.  C also chooses
the rows' format and hands it over as hole, pad, gather and join
(category.FiniteCategory._fill); nothing here depends on which it is.
Out(x) lists the morphisms leaving x, the nonempty hom(x, z) in order of
z.  For f: x -> y, post[f] holds for each q in Out(y) the position of q.f
in Out(x), or the hole when the table has no entry for (q, f) ("missing"),
or its entry, kept in `stray`, lies in another hom-set ("wrong-hom") or in
none ("unknown").  Rows for pairs that are not composable are kept in
`foreign`, and a second row for one pair is an error.

For each composable pair (g, f) with p = g.f, associativity checks h.p ==
(h.g).f for every h leaving z in one comparison of post[p] with
gather(post[g]) applied to f's table pad(post[f]).  At each h, either
post[g] holds the position q of h.g, and then h.p and q.f = (h.g).f are
one position or one hole, which the walk skips, or post[g] holds the hole,
which reads the hole in f's table, and the triple goes through a composite
that closure reports; so a pair whose two rows are equal has no failure.
One comparison covers every pair through an f: x -> y whose row has no
hole: the rows of g.f for each g in Out(y), joined, against the rows of
Out(y), joined (one row per y, with its gather, made once), gathered at
f's table.  Each g.f then lies in hom(x, z) for g: y -> z, so the c-th
segment of either side has |Out(z)| entries, and the two are equal
exactly when every pair (g, f) is.  A hom-set whose every f passes is
done; any other goes through the pair walk, each g's gather made once per
hom-set.

Closure names failures by (x, y) sorted, then z, g, f.  Associativity goes by
block (x, y, z) in the order of C.homs and walks a block's differing pairs
triple by triple, by w, g, f, h; a triple through a composite that closure
reports is counted but not compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import require_triple_budget
from .matrix import HomMatrix

if TYPE_CHECKING:
    from .category import FiniteCategory

DEFAULT_FAILURE_CAP = 32
# (kind, report field) for each failure list, in the order the checks run.
FAILURE_KINDS = (
    ("cardinality", "cardinality_mismatches"),
    ("identity", "identity_failures"),
    ("closure", "closure_failures"),
    ("associativity", "associativity_failures"),
)


@dataclass
class VerificationReport:
    passed: bool = True
    cardinality_mismatches: list = field(default_factory=list)
    identity_failures: list = field(default_factory=list)
    associativity_failures: list = field(default_factory=list)
    closure_failures: list = field(default_factory=list)
    triples_checked: int = 0

    def failures(self) -> list[tuple[str, str, list]]:
        """(kind, field name, entries) for each failure list, in check order."""
        return [(kind, name, getattr(self, name)) for kind, name in FAILURE_KINDS]

    def summary(self) -> str:
        if self.passed:
            return f"passed ({self.triples_checked} triples checked)"
        bits = [f"{len(entries)} {kind}" for kind, _, entries in self.failures() if entries]
        return f"failed: {', '.join(bits)} ({self.triples_checked} triples checked)"


def count_triples(rows) -> int:
    """The number of composable triples h.g.f over a square matrix of hom-set
    sizes, the sum of the entries of its cube: the sum over y, z of
    (column y's sum) rows[y][z] (row z's sum)."""
    into = [sum(column) for column in zip(*rows)]
    out = [sum(row) for row in rows]
    return sum(into[y] * m * out[z] for y, row in enumerate(rows) for z, m in enumerate(row))


def verify_category(C: FiniteCategory, M: HomMatrix) -> VerificationReport:
    """Check every axiom of C against M; each failure list keeps at most
    DEFAULT_FAILURE_CAP entries."""
    report = VerificationReport()

    def push(entries: list, item) -> None:
        if len(entries) < DEFAULT_FAILURE_CAP:
            entries.append(item)

    homs, out, offset, successors, place = C.homs, C.out, C.offset, C.successors, C.place
    sizes = [[0] * C.n for _ in range(C.n)]
    for (x, y), fs in homs.items():
        sizes[x][y] = len(fs)
    total_triples = count_triples(sizes)
    require_triple_budget(total_triples)

    for i in range(max(C.n, M.n)):
        for j in range(max(C.n, M.n)):
            expected = M[i][j] if i < M.n and j < M.n else 0
            actual = sizes[i][j] if i < C.n and j < C.n else 0
            if expected != actual:
                push(report.cardinality_mismatches, (i, j, expected, actual))

    # post[x][i] is the row of the i-th of Out(x).
    hole, pad, gather, join, post, stray, foreign = C.filled
    at = {}  # x -> the position in Out(x) of x's identity, if it lies in hom(x, x)
    for x in range(C.n):
        e = C.identity.get(x)
        if e is not None and place.get(e, ())[:2] == (x, x):
            at[x] = place[e][2]
        else:
            push(report.identity_failures, (x, e))
    closure = report.closure_failures
    for (x, y), fs in sorted(homs.items()):
        first = offset[(x, y)]
        rows = post[x][first : first + len(fs)]
        for p, (f, row) in enumerate(zip(fs, rows), first):
            if y in at and row[at[y]] != p:
                push(report.identity_failures, (y, f))
            if x in at and post[x][at[x]][p] != p:
                push(report.identity_failures, (x, f))
        if any(hole in row for row in rows):
            for c, g in enumerate(out.get(y, ())):
                for f, row in zip(fs, rows):
                    if row[c] == hole:
                        h = stray.get((f, c))
                        kind = "missing" if h is None else "wrong-hom" if h in place else "unknown"
                        push(closure, (kind, g, f) if h is None else (kind, g, f, h))
    for g, f in foreign:
        push(closure, ("foreign", g, f))

    # joined[y] maps f's table to the rows of (h.g).f, h after g, for each g
    # in Out(y), joined: to the rows of g.f, joined, when f associates.
    joined = {y: gather(join(post.get(y, ()))) for y in range(C.n)}
    failures = report.associativity_failures
    for (x, y), fs in homs.items():
        px = post[x]
        first = offset[(x, y)]
        rows = px[first : first + len(fs)]
        # Every pair through a hole-free f at once.
        joined_y = joined[y]
        if all(hole not in row and join(map(px.__getitem__, row)) == joined_y(pad(row))
               for row in rows):
            continue
        # For g.f = p, h.p == (h.g).f for every h leaving z is one comparison.
        tables = [*map(pad, rows)]
        for z, gs in successors.get(y, ()):
            o = offset[(y, z)]
            bad = []
            for c in range(o, o + len(gs)):
                g_of = gather(post[y][c])
                for i, (row, table) in enumerate(zip(rows, tables)):
                    p = row[c]
                    if p != hole and px[p] != g_of(table):
                        bad.append((c, i))
            if not bad:
                continue
            # Name this block's failures in the order w, g, f, h.
            for w, hs in successors.get(z, ()):
                for c, i in bad:
                    left, qs, table = px[rows[i][c]], post[y][c], tables[i]
                    for k, h in enumerate(hs, offset[(z, w)]):
                        a, b = left[k], table[qs[k]]
                        if a != hole and b != hole and a != b:
                            push(failures, (h, gs[c - o], fs[i], out[x][a], out[x][b]))
    report.triples_checked = total_triples

    report.passed = not any(entries for _, _, entries in report.failures())
    return report
