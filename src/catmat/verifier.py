"""Exhaustive verification of a composition table against a matrix.

Checks, in order: hom-set sizes against the matrix, identity morphisms and
both unit laws, closure of the table (every composable pair has an entry in
the right hom-set and the table holds nothing else), and associativity over
every composable triple.  Nothing here trusts the construction: the table is
treated as opaque data, so the verifier doubles as the replay half of the
certificate format.
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


@dataclass
class VerificationReport:
    passed: bool = True
    cardinality_mismatches: list = field(default_factory=list)
    identity_failures: list = field(default_factory=list)
    associativity_failures: list = field(default_factory=list)
    closure_failures: list = field(default_factory=list)
    triples_checked: int = 0

    def summary(self) -> str:
        if self.passed:
            return f"passed ({self.triples_checked} triples checked)"
        bits = []
        for name, entries in (
            ("cardinality", self.cardinality_mismatches),
            ("identity", self.identity_failures),
            ("closure", self.closure_failures),
            ("associativity", self.associativity_failures),
        ):
            if entries:
                bits.append(f"{len(entries)} {name}")
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

    total_triples = 0
    sizes = {pair: len(labels) for pair, labels in C.homs.items()}
    for (x, y), nf in sizes.items():
        for z in range(C.n):
            ng = sizes.get((y, z), 0)
            if not ng:
                continue
            for w in range(C.n):
                nh = sizes.get((z, w), 0)
                if nh:
                    total_triples += nf * ng * nh
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
    for (x, y) in sorted(C.homs):
        for f in C.homs[(x, y)]:
            if identity_ok[y] and table.get((C.identity[y], f)) != f:
                push(report.identity_failures, (y, f))
            if identity_ok[x] and table.get((f, C.identity[x])) != f:
                push(report.identity_failures, (x, f))

    for (x, y) in sorted(C.homs):
        for z in range(C.n):
            gs = C.homs.get((y, z))
            if not gs:
                continue
            for g in gs:
                for f in C.homs[(x, y)]:
                    h = table.get((g, f))
                    if h is None:
                        push(report.closure_failures, ("missing", g, f))
                    elif hom_of.get(h) != (x, z):
                        push(report.closure_failures, ("wrong-hom", g, f, h))
    for (g, f) in table:
        sg = hom_of.get(g)
        sf = hom_of.get(f)
        if sg is None or sf is None or sf[1] != sg[0]:
            push(report.closure_failures, ("foreign", g, f))

    checked = 0
    failures = report.associativity_failures
    get = table.get
    for (x, y), fs in C.homs.items():
        for z in range(C.n):
            gs = C.homs.get((y, z))
            if not gs:
                continue
            for w in range(C.n):
                hs = C.homs.get((z, w))
                if not hs:
                    continue
                for g in gs:
                    for f in fs:
                        p = get((g, f))
                        for h in hs:
                            checked += 1
                            q = get((h, g))
                            if p is None or q is None:
                                continue
                            left = get((h, p))
                            right = get((q, f))
                            if left is None or right is None:
                                continue
                            if left != right and len(failures) < failure_cap:
                                failures.append((h, g, f, left, right))
    report.triples_checked = checked

    report.passed = not (
        report.cardinality_mismatches
        or report.identity_failures
        or report.associativity_failures
        or report.closure_failures
    )
    return report
