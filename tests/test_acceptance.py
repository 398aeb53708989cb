"""Acceptance suite.

One test per criterion; each prints a single PASS line with the figures that
matter (counts, timings) so a log scan shows exactly what was established.
All randomness is seeded, so every run exercises the same matrices.
"""

import random
import time

import helpers
from catmat import (
    HomMatrix,
    build_witness,
    decide,
    decide_by_submatrices,
    inflate,
    oracle_decide,
    reduce,
    verify_category,
)
from helpers import permute, transpose

CROSS_CHECK_MATRICES = [
    [[1, 2], [3, 7]],
    [[1, 2], [3, 6]],
    [[1, 1], [1, 1]],
    [[1, 2], [1, 1]],
    [[1, 1, 1], [1, 2, 1], [1, 1, 2]],
    [[1, 1, 1, 1], [1, 2, 1, 1], [0, 0, 1, 1], [0, 0, 1, 2]],
    [[1, 1, 1, 2], [1, 2, 2, 2], [0, 0, 1, 1], [0, 0, 1, 2]],
    [[0]],
    [[1, 1], [0, 1]],
    [[1, 1], [1, 2]],
]


def all_two_by_two(bound: int) -> list[HomMatrix]:
    return [
        HomMatrix.from_rows([[a, b], [c, d]])
        for a in range(bound + 1)
        for b in range(bound + 1)
        for c in range(bound + 1)
        for d in range(bound + 1)
    ]


def block_sweep() -> list[tuple[HomMatrix, bool]]:
    out = []
    for b in (1, 2):
        for e in (1, 2):
            for x in (1, 2):
                for q in (1, 2):
                    for c in (1, 2):
                        for k in range(1, 6):
                            for d in range(1, 6):
                                for l in range(1, 6):
                                    out.append(
                                        (
                                            helpers.block_4x4(b, e, x, q, c, k, d, l),
                                            helpers.block_4x4_exists(c, k, d, l),
                                        )
                                    )
    return out


def unit_first_sample() -> list[HomMatrix]:
    rng = random.Random(40401)
    return [helpers.random_unit_first(rng, rng.choice((3, 4, 5)), 5) for _ in range(500)]


def test_criterion_1_two_by_two_closed_form():
    start = time.perf_counter()
    mismatches = [
        M.entries
        for M in all_two_by_two(4)
        if decide(M).exists != helpers.two_by_two_exists(*M[0], *M[1])
    ]
    elapsed = time.perf_counter() - start
    assert mismatches == []
    assert elapsed < 1.0
    print(f"PASS criterion 1: 625 2x2 matrices match the closed form in {elapsed:.3f}s")


def test_criterion_2_oracle_agreement():
    start = time.perf_counter()
    cases = all_two_by_two(2) + [HomMatrix.from_rows(rows) for rows in CROSS_CHECK_MATRICES]
    for M in cases:
        result = oracle_decide(M)
        assert result.decision != "unknown", M.entries
        assert result.exists == decide(M).exists, M.entries
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS criterion 2: oracle agrees with decide on all {len(cases)} matrices in {elapsed:.1f}s")


def test_criterion_3_block_family_sweep():
    cases = block_sweep()
    mismatches = [M.entries for M, want in cases if decide(M).exists != want]
    assert mismatches == []
    print(f"PASS criterion 3: block family inequality exact on {len(cases)} matrices")


def test_criterion_4_unit_first_cross_check():
    disagreements = [
        M.entries
        for M in unit_first_sample()
        if decide(M).exists != helpers.unit_first_exists(M)
    ]
    assert disagreements == []
    print("PASS criterion 4: decide matches direct unit-first evaluation on 500 matrices")


def test_criterion_5_witness_validity():
    start = time.perf_counter()
    pool = all_two_by_two(4)
    pool += [HomMatrix.from_rows(rows) for rows in CROSS_CHECK_MATRICES]
    pool += [M for M, _ in block_sweep()]
    pool += unit_first_sample()
    rng = random.Random(50505)
    pool += [
        helpers.random_matrix(rng, rng.randint(1, 5), 5, min_entry=rng.choice((0, 1)))
        for _ in range(1000)
    ]
    built = 0
    for M in pool:
        if not decide(M).exists:
            continue
        C = build_witness(M)
        report = verify_category(C, M)
        assert report.passed, (M.entries, report.summary())
        assert not report.cardinality_mismatches
        built += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"PASS criterion 5: {built} witnesses built and verified in {elapsed:.1f}s")


def test_criterion_6_reduction_invariance():
    rng = random.Random(60606)
    checked = inflated = 0
    for _ in range(500):
        base = helpers.random_matrix(
            rng, rng.randint(1, 4), 3, min_entry=rng.choice((0, 1))
        )
        base = reduce(base)[0]
        M = helpers.duplicate_objects(rng, base, rng.randint(1, 3))
        N, rmap = reduce(M)
        verdict = decide(M)
        assert verdict.exists == decide(N).exists, M.entries
        checked += 1
        if verdict.exists:
            B = build_witness(N)
            assert verify_category(B, N).passed, N.entries
            C = inflate(B, rmap, expected=M)
            assert verify_category(C, M).passed, M.entries
            inflated += 1
    assert checked == 500
    print(
        f"PASS criterion 6: decide is reduction-invariant on 500 matrices; "
        f"{inflated} inflated witnesses verified"
    )


def test_criterion_7_submatrix_criterion():
    rng = random.Random(70707)
    for _ in range(500):
        M = helpers.random_matrix(
            rng, rng.randint(1, 6), 4, min_entry=rng.choice((0, 0, 1))
        )
        assert decide_by_submatrices(M).exists == decide(M).exists, M.entries
    print("PASS criterion 7: submatrix scan matches decide on 500 matrices")


def test_criterion_8_invariance_suite():
    rng = random.Random(80808)
    for _ in range(500):
        n = rng.randint(1, 5)
        M = helpers.random_matrix(rng, n, 4, min_entry=rng.choice((0, 1)))
        expected = decide(M).exists
        sigma = list(range(n))
        rng.shuffle(sigma)
        assert decide(permute(M, sigma)).exists == expected, (M.entries, sigma)
        assert decide(transpose(M)).exists == expected, M.entries
    print("PASS criterion 8: decision invariant under permutation and transpose, 500 matrices")


def witness_stream(count: int):
    """Deterministic stream of small verified witnesses (few morphisms each)."""
    fixed = [[[1]], [[2]], [[1, 2], [3, 7]], [[2, 2], [2, 2]], [[1, 1], [0, 1]], [[2, 1], [0, 2]]]
    rng = random.Random(90909)
    seen = set()
    out = []
    queue = [HomMatrix.from_rows(rows) for rows in fixed]
    while len(out) < count:
        M = queue.pop(0) if queue else helpers.random_matrix(
            rng, rng.randint(1, 3), 3, min_entry=rng.choice((0, 1))
        )
        if sum(map(sum, M.entries)) > 13 or M.entries in seen or not decide(M).exists:
            continue
        seen.add(M.entries)
        C = build_witness(M)
        assert verify_category(C, M).passed
        out.append((M, C))
    return out


def test_criterion_9_mutation_soundness():
    escapes = []
    mutants = 0
    for M, C in witness_stream(50):
        for (g, f), h in C.table.items():
            x = C.place[f][0]
            y = C.place[g][1]
            for other in C.hom(x, y):
                if other == h:
                    continue
                mutated = dict(C.table)
                mutated[(g, f)] = other
                D = helpers.claimed(C.n, C.homs, C.identity, mutated)
                mutants += 1
                verdict = verify_category(D, M).passed
                independent = helpers.check_category_axioms(D, mutated, M)
                if verdict != independent:
                    escapes.append((M.entries, g, f, other, verdict, independent))
    assert escapes == []
    print(
        f"PASS criterion 9: verifier agreed with the independent checker on all "
        f"{mutants} single-entry mutations of 50 witnesses, zero escapes"
    )
