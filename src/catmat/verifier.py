"""Exhaustive verification of a composition table against a matrix.

Checks, in order: hom-set sizes against the matrix, identity morphisms and
both unit laws, closure of the table (every composable pair has an entry in
the right hom-set and the table holds nothing else), and associativity over
every composable triple.  Nothing here trusts the construction: labels are
opaque tokens that are only hashed and compared, so the verifier doubles as
the replay half of the certificate format.

Closure and associativity run on integers.  Each hom-set's labels are
numbered 0..k-1 once.  Every composable block (x, y, z) then becomes one
table: for f in hom(x,y) and g in hom(y,z), the local index of g.f in
hom(x,z), or None when the table has no entry for (g, f) or the entry lies
in another hom-set.  Building these tables is the closure pass.
Associativity takes one block (x, y, z, w) at a time and, for each pair
(g, f), compares the row of h.(g.f) over every h in hom(z,w) with the row
of (h.g).f in one list comparison; only a row that differs is walked to
name its failures.  A triple through a missing or wrong-hom composite is
counted but not compared, because closure already reports that composite.
Blocks come from per-object successor lists, so empty hom-sets cost nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .category import FiniteCategory
from .errors import TripleBudgetError
from .matrix import HomMatrix

DEFAULT_FAILURE_CAP = 32
DEFAULT_TRIPLE_BUDGET = 10**8
TRIPLE_BUDGET_ENV = "CATMAT_TRIPLE_BUDGET"
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


def _resolve_budget(triple_budget: int | None) -> int:
    if triple_budget is not None:
        return triple_budget
    raw = os.environ.get(TRIPLE_BUDGET_ENV)
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise TripleBudgetError(f"{TRIPLE_BUDGET_ENV}={raw!r} is not an integer") from None
    return DEFAULT_TRIPLE_BUDGET


def verify_category(
    C: FiniteCategory,
    M: HomMatrix,
    failure_cap: int = DEFAULT_FAILURE_CAP,
    triple_budget: int | None = None,
) -> VerificationReport:
    """Check every axiom of C against M; failure lists are capped per kind."""
    report = VerificationReport()

    def push(entries: list, item) -> None:
        if len(entries) < failure_cap:
            entries.append(item)

    homs = C.homs
    # successors[y] lists (z, hom(y,z)) for the nonempty hom-sets out of y, by z.
    successors: dict[int, list] = {}
    for (y, z), labels in sorted(homs.items()):
        successors.setdefault(y, []).append((z, labels))

    # Triples h.g.f counted arithmetically: pairs[y] is the number of
    # composable pairs (h, g) with g leaving y.
    leaving = {y: sum(len(labels) for _, labels in out) for y, out in successors.items()}
    pairs = {
        y: sum(len(labels) * leaving.get(z, 0) for z, labels in out)
        for y, out in successors.items()
    }
    total_triples = sum(len(fs) * pairs.get(y, 0) for (_, y), fs in homs.items())
    budget = _resolve_budget(triple_budget)
    if total_triples > budget:
        raise TripleBudgetError(
            f"{total_triples} associativity triples exceed the budget of {budget}"
        )

    for i in range(max(C.n, M.n)):
        for j in range(max(C.n, M.n)):
            expected = M[i][j] if i < M.n and j < M.n else 0
            actual = len(C.hom(i, j)) if i < C.n and j < C.n else 0
            if expected != actual:
                push(report.cardinality_mismatches, (i, j, expected, actual))

    table = C.table
    hom_of = C.hom_of
    identity_ok = {}
    for x in range(C.n):
        e = C.identity.get(x)
        identity_ok[x] = e is not None and hom_of.get(e) == (x, x)
        if not identity_ok[x]:
            push(report.identity_failures, (x, e))
    for (x, y) in sorted(homs):
        for f in homs[(x, y)]:
            if identity_ok[y] and table.get((C.identity[y], f)) != f:
                push(report.identity_failures, (y, f))
            if identity_ok[x] and table.get((f, C.identity[x])) != f:
                push(report.identity_failures, (x, f))

    # None is what a missing table entry reads as, so it never gets an index.
    index = {
        pair: {label: i for i, label in enumerate(labels) if label is not None}
        for pair, labels in homs.items()
    }
    get = table.get
    # blocks[x, y, z][f][g] is the index of g.f in hom(x,z), or None.
    blocks = {}
    for (x, y), fs in sorted(homs.items()):
        for z, gs in successors.get(y, ()):
            at = index.get((x, z), {}).get
            block = [[at(get((g, f))) for g in gs] for f in fs]
            blocks[(x, y, z)] = block
            if any(None in row for row in block):
                for gi, g in enumerate(gs):
                    for fi, f in enumerate(fs):
                        if block[fi][gi] is None:
                            h = get((g, f))
                            if h is None:
                                push(report.closure_failures, ("missing", g, f))
                            else:
                                push(report.closure_failures, ("wrong-hom", g, f, h))
    for (g, f) in table:
        sg = hom_of.get(g)
        sf = hom_of.get(f)
        if sg is None or sf is None or sf[1] != sg[0]:
            push(report.closure_failures, ("foreign", g, f))

    failures = report.associativity_failures
    for (x, y), fs in homs.items():
        for z, gs in successors.get(y, ()):
            gf = blocks[(x, y, z)]  # gf[f][g] = g.f
            for w, hs in successors.get(z, ()):
                hp = blocks.get((x, z, w))  # hp[p][h] = h.p
                hg = blocks[(y, z, w)]  # hg[g][h] = h.g
                qf = blocks.get((x, y, w))  # qf[f][q] = q.f
                for gi, qs in enumerate(hg):
                    holes = None in qs
                    for fi, ps in enumerate(gf):
                        p = ps[gi]
                        if p is None:
                            continue
                        left = hp[p]
                        row = qf[fi] if qf else None
                        if holes:
                            right = [None if q is None else row[q] for q in qs]
                        else:
                            right = [row[q] for q in qs]
                        if left == right:
                            continue
                        xw = homs[(x, w)]
                        for h, a, b in zip(hs, left, right):
                            if a is not None and b is not None and a != b:
                                push(failures, (h, gs[gi], fs[fi], xw[a], xw[b]))
    report.triples_checked = total_triples

    report.passed = not any(entries for _, _, entries in report.failures())
    return report
