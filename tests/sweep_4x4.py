"""Exhaustive sweep of the acceptable reduced 4x4 matrices with entries <= 2.

Run from the repository root:

    PYTHONPATH=src python tests/sweep_4x4.py

pytest does not collect this file; it takes about 9 CPU-s, 3.6 of them in
the oracle (Python 3.11 on a 2-vCPU Xeon).  It enumerates every such matrix
up to relabeling, decides each one with `decide` and with the independent
`oracle_decide`, verifies every category either of them builds, and exits 1
on any disagreement, failed verification, changed count or changed digest.  It checks the four-object (quadrant) condition against
the oracle, on the one matrix here that fails it.

Enumeration.  The positivity relation of an acceptable matrix is a preorder
(reflexive and transitive), so the acceptable matrices with entries <= 2 are
exactly: a preorder on the four objects, with 1 or 2 on each of its cells
and 0 elsewhere.  Of these the sweep keeps the reduced ones (no two objects
with equal rows and equal columns) in canonical form, the least row-major
flattening over the 24 relabelings.

Digest.  sha256, updated in order of canonical form with
json.dumps([rows, decision, assignments]) of each matrix, the last two from
the oracle; it pins the oracle's search as well as the verdicts.  An oracle
change that moves any assignment count moves the digest: record the new
value with the old one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from collections import Counter
from operator import itemgetter

from catmat import HomMatrix, build_witness, decide, oracle_decide, verify_category

N = 4
EXPECTED_COUNTS = {
    "yes": 5164,
    "MultipleUnits": 4970,
    "UDiagonalFail": 3832,
    "CrossRowFail": 143,
    "CrossColFail": 141,
    "CrossQuadrantFail": 1,
}
EXPECTED_DIGEST = "b959e79c7890c9b7e4c73186eb8586e8a1e3726d5b2e0f3f556c359deb0596d5"


def preorders(n: int):
    """The off-diagonal pairs of every reflexive, transitive relation on n points."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        R = set(itertools.compress(pairs, chosen))
        if all((i, k) in R for i, j in R for j2, k in R if j == j2 and i != k):
            yield R


def canonical_matrices(n: int, top: int):
    """Flattened rows of every acceptable reduced n x n matrix with entries
    <= top, one per relabeling class, in canonical form."""
    relabel = [
        itemgetter(*[p[i] * n + p[j] for i in range(n) for j in range(n)])
        for p in itertools.permutations(range(n))
    ]
    for R in preorders(n):
        cells = [i * n + i for i in range(n)] + [i * n + j for i, j in R]
        for values in itertools.product(range(1, top + 1), repeat=len(cells)):
            flat = [0] * (n * n)
            for c, v in zip(cells, values):
                flat[c] = v
            flat = tuple(flat)
            if any(g(flat) < flat for g in relabel):
                continue
            rows = [flat[i * n : (i + 1) * n] for i in range(n)]
            if len(set(zip(rows, zip(*rows)))) == n:
                yield flat


def main() -> int:
    failures = []
    counts = Counter()
    digest = hashlib.sha256()
    for flat in sorted(canonical_matrices(N, 2)):
        rows = [list(flat[i * N : (i + 1) * N]) for i in range(N)]
        M = HomMatrix.from_rows(rows)
        verdict = decide(M)
        result = oracle_decide(M)
        counts[verdict.reason.kind if verdict.reason else "yes"] += 1
        if result.decision != verdict.decision:
            failures.append(f"{rows}: decide says {verdict.decision}, oracle {result.decision}")
        elif verdict.exists:
            for who, C in (("oracle", result.category), ("witness", build_witness(M))):
                if not verify_category(C, M).passed:
                    failures.append(f"{rows}: the {who}'s category fails verification")
        digest.update(json.dumps([rows, result.decision, result.assignments]).encode())
    print(f"{sum(counts.values())} matrices: {dict(counts)}")
    print(f"digest {digest.hexdigest()}")
    if dict(counts) != EXPECTED_COUNTS:
        failures.append(f"counts changed, expected {EXPECTED_COUNTS}")
    if digest.hexdigest() != EXPECTED_DIGEST:
        failures.append(f"digest changed, expected {EXPECTED_DIGEST}")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
