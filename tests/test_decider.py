import random
from collections import Counter
from dataclasses import replace
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmat import (
    HomMatrix,
    ReductionMap,
    condition_report,
    decide,
    decide_by_submatrices,
    reduce,
)
from catmat import decider
from catmat.decider import _Walk, explain
from catmat.partition import acceptability_failures, build_partition
from helpers import (
    duplicate_objects,
    permute,
    principal_submatrix,
    quadrant_family,
    random_matrix,
    random_unit_first,
    transpose,
)

FIXTURES = [
    ([[1, 2], [3, 7]], "yes", None),
    ([[1, 2], [3, 6]], "no", "UDiagonalFail"),
    ([[1, 1], [1, 1]], "yes", None),
    ([[1, 2], [1, 1]], "no", "MultipleUnits"),
    ([[1, 1, 1], [1, 2, 1], [1, 1, 2]], "yes", None),
    ([[1, 1, 1, 1], [1, 2, 1, 1], [0, 0, 1, 1], [0, 0, 1, 2]], "yes", None),
    ([[1, 1, 1, 2], [1, 2, 2, 2], [0, 0, 1, 1], [0, 0, 1, 2]], "no", "CrossQuadrantFail"),
    ([[0]], "no", "ZeroDiagonal"),
    ([[1, 1], [0, 1]], "yes", None),
    ([[1, 1], [1, 2]], "yes", None),
    ([[2, 2], [2, 2]], "yes", None),
    ([[2, 1], [0, 2]], "yes", None),
    ([[1, 2], [2, 1]], "no", "MultipleUnits"),
    ([[1]], "yes", None),
    ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], "no", "NotAcceptable"),
]


@pytest.mark.parametrize("rows,want,reason_kind", FIXTURES)
def test_decide_fixtures(rows, want, reason_kind):
    verdict = decide(HomMatrix.from_rows(rows))
    assert verdict.decision == want
    if reason_kind is None:
        assert verdict.reason is None
        assert verdict.reduced is not None
        assert verdict.partition is not None
    else:
        assert verdict.reason.kind == reason_kind


def test_decide_quotes_required_and_actual():
    verdict = decide(HomMatrix.from_rows([[1, 2], [3, 6]]))
    assert verdict.reason.required == 7
    assert verdict.reason.actual == 6
    assert verdict.reason.objects == (1,)

    verdict = decide(HomMatrix.from_rows([[1, 1, 1, 2], [1, 2, 2, 2], [0, 0, 1, 1], [0, 0, 1, 2]]))
    assert verdict.reason.required == 3
    assert verdict.reason.actual == 2
    assert verdict.reason.objects == (1, 3)


def test_decide_empty_matrix():
    verdict = decide(HomMatrix(0, ()))
    assert verdict.exists
    assert verdict.reduced.n == 0


def test_decide_reports_original_indices_through_reduction():
    # Objects 0,1 are duplicates; the failing diagonal lives on object 2.
    M = HomMatrix.from_rows([[1, 1, 2], [1, 1, 2], [3, 3, 6]])
    verdict = decide(M)
    assert verdict.decision == "no"
    assert verdict.reason.kind == "UDiagonalFail"
    assert verdict.reason.objects == (2,)


def test_cross_reason_sides():
    # Lower class is U and the entry drops below its own basepoint column.
    M = HomMatrix.from_rows([[2, 2, 1], [0, 1, 1], [0, 1, 2]])
    verdict = decide(M)
    assert verdict.decision == "no"
    assert verdict.reason.kind == "CrossColFail"
    # Upper class is U and a non-basepoint row drops below the basepoint row.
    M = HomMatrix.from_rows([[1, 1, 2], [1, 2, 1], [0, 0, 2]])
    verdict = decide(M)
    assert verdict.decision == "no"
    assert verdict.reason.kind == "CrossRowFail"


def test_decide_walks_conditions_interleaved():
    # Class {0,1,2} fails only off its diagonal, class {3,4} only on it.  The
    # walk finishes a U class (diagonal, then off-diagonal) before the next, so
    # decide names class {0,1,2}; the report shows both failures.
    M = HomMatrix.from_rows(
        [[1, 1, 2, 0, 0], [2, 3, 3, 0, 0], [1, 1, 3, 0, 0], [0, 0, 0, 1, 2], [0, 0, 0, 2, 4]]
    )
    assert str(decide(M).reason) == "UOffDiagonalFail objects=[1, 2] required>=4 actual=3"
    failed = {e["condition"]: e["details"] for e in condition_report(M) if e["status"] == "fail"}
    assert failed == {
        "u-diagonal": "hom(4,4)=4 needs >= 5",
        "u-off-diagonal": "hom(1,2)=3 needs >= 4",
    }


def test_condition_report_fixtures():
    report = condition_report(HomMatrix.from_rows([[1, 2], [3, 6]]))
    failed = [e for e in report if e["status"] == "fail"]
    assert len(failed) == 1
    assert failed[0]["condition"] == "u-diagonal"

    report = condition_report(HomMatrix.from_rows([[1]]))
    assert all(e["status"] == "pass" for e in report)

    report = condition_report(HomMatrix.from_rows([[0, 1], [0, 0]]))
    refl = next(e for e in report if e["condition"] == "reflexivity")
    assert refl["status"] == "fail"
    assert "object 0" in refl["details"] and "object 1" in refl["details"]
    assert all(e["status"] == "skipped" for e in report if e["condition"] not in ("reflexivity", "transitivity"))


def test_monotonicity_of_u_diagonal_threshold():
    # With strictly positive off-diagonals, [[1,b],[c,d]] is realizable exactly
    # at d >= bc+1; the all-ones matrix collapses to a point and sneaks in below.
    for b in range(1, 7):
        for c in range(1, 7):
            for d in range(1, 7):
                expected = d >= b * c + 1 or (b == c == d == 1)
                got = decide(HomMatrix.from_rows([[1, b], [c, d]])).exists
                assert got == expected, (b, c, d)


def test_decide_by_submatrices_fixtures():
    assert decide_by_submatrices(HomMatrix.from_rows([[1]])).exists
    assert decide_by_submatrices(
        HomMatrix.from_rows([[1, 1, 1, 1], [1, 2, 1, 1], [0, 0, 1, 1], [0, 0, 1, 2]])
    ).exists
    verdict = decide_by_submatrices(HomMatrix.from_rows([[1, 2], [3, 6]]))
    assert verdict.decision == "no"
    assert verdict.subset == (0, 1)
    assert verdict.reason.kind == "UDiagonalFail"


def test_decide_by_submatrices_remaps_objects():
    # The bad 2x2 block sits at indices 2,3 of a larger healthy matrix.
    M = HomMatrix.from_rows(
        [[3, 2, 2, 2], [2, 3, 2, 2], [0, 0, 1, 2], [0, 0, 3, 6]]
    )
    assert decide(M).decision == "no"
    verdict = decide_by_submatrices(M)
    assert verdict.decision == "no"
    assert verdict.subset == (2, 3)
    assert verdict.reason.objects == (3,)


small_matrices = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(HomMatrix.from_rows)


@given(small_matrices, st.randoms(use_true_random=False))
def test_decide_is_permutation_invariant(M, rng):
    sigma = list(range(M.n))
    rng.shuffle(sigma)
    assert decide(M).decision == decide(permute(M, sigma)).decision


@given(small_matrices)
def test_decide_is_transpose_invariant(M):
    assert decide(M).decision == decide(transpose(M)).decision


@given(small_matrices)
def test_decide_commutes_with_reduction(M):
    assert decide(M).decision == decide(reduce(M)[0]).decision


CONDITION_OF_KIND = {
    "ZeroDiagonal": "reflexivity",
    "NotAcceptable": "transitivity",
    "MultipleUnits": "unique-basepoint",
    "UDiagonalFail": "u-diagonal",
    "UOffDiagonalFail": "u-off-diagonal",
    "CrossColFail": "cross-column-floor",
    "CrossRowFail": "cross-row-floor",
    "CrossQuadrantFail": "cross-quadrant",
}


@given(small_matrices)
def test_decide_agrees_with_condition_report(M):
    verdict = decide(M)
    failing = {e["condition"] for e in condition_report(M) if e["status"] == "fail"}
    assert verdict.exists == (not failing)
    if not verdict.exists:
        assert CONDITION_OF_KIND[verdict.reason.kind] in failing


@settings(max_examples=60)
@given(small_matrices)
def test_decide_by_submatrices_agrees(M):
    assert decide_by_submatrices(M).decision == decide(M).decision


def reference_scan(M):
    """The window scan written out plainly: build each principal submatrix,
    decide it, and remap the first failing window's objects."""
    for size in range(1, min(4, M.n) + 1):
        for keep in combinations(range(M.n), size):
            inner = decide(principal_submatrix(M, keep))
            if not inner.exists:
                objects = tuple(keep[o] for o in inner.reason.objects)
                return "no", keep, replace(inner.reason, objects=objects)
    return "yes", None, None


def near_floors(rng, n):
    """Two classes, the first above the second, with every entry set at or
    next to the floor the conditions put on it: a class entry misses its
    floor by one now and then, a cross entry two times in five."""
    k = rng.randint(1, n - 1)

    def near(floor, miss):
        return max(1, floor - (rng.random() < miss) + (rng.random() < 0.3))

    rows = [[0] * n for _ in range(n)]
    for lo, hi in ((0, k), (k, n)):
        if rng.random() < 0.3:  # no basepoint
            for i in range(lo, hi):
                rows[i][lo:hi] = [rng.randint(2, 4) for _ in range(lo, hi)]
            continue
        legs = {i: (rng.randint(1, 3), rng.randint(1, 3)) for i in range(lo + 1, hi)}
        rows[lo][lo] = 1
        for i, (into, out) in legs.items():
            rows[i][lo], rows[lo][i] = into, out
            for j, (_, out_j) in legs.items():
                rows[i][j] = near(into * out_j + (i == j), 0.1)
    corner = rng.randint(1, 3)
    rows[0][k] = corner
    for y in range(k + 1, n):
        rows[0][y] = corner + rng.randint(-1, 2)
    for x in range(1, k):
        rows[x][k] = corner + rng.randint(-1, 2)
        for y in range(k + 1, n):
            rows[x][y] = near(rows[0][y] + rows[x][k] - corner, 0.4)
    return HomMatrix.from_rows(rows)


def disjoint_union(blocks, rng):
    """The blocks down the diagonal with empty hom-sets between them, their
    objects interleaved by a random permutation."""
    n = sum(B.n for B in blocks)
    rows, offset = [], 0
    for B in blocks:
        rows += [[0] * offset + list(row) + [0] * (n - offset - B.n) for row in B.entries]
        offset += B.n
    sigma = list(range(n))
    rng.shuffle(sigma)
    return permute(HomMatrix.from_rows(rows), sigma)


def window_block(rng, shape, n):
    """A matrix on n objects (two at least for near_floors) of one of five shapes."""
    if shape == 0:
        return random_matrix(rng, n, 3)
    if shape == 1:
        return random_matrix(rng, n, 4, min_entry=1)
    if shape == 2:
        return random_unit_first(rng, n, 6)
    return near_floors(rng, max(n, 2))


def beside_accepted_blocks(rng, M):
    """M beside one or two accepted blocks of up to three objects, eight
    objects at most, interleaved: a disjoint union that fails exactly when M
    does."""
    blocks = [M]
    for _ in range(rng.randint(1, 2)):
        room = 8 - sum(B.n for B in blocks)
        if room == 0:
            break
        k = rng.randint(1, min(3, room))
        B = window_block(rng, rng.randrange(3), k)
        while not decide(B).exists:
            B = window_block(rng, rng.randrange(3), k)
        blocks.append(B)
    return disjoint_union(blocks, rng)


def connected(M, keep):
    """Whether the objects in keep are joined by nonempty hom-sets, taken
    either way, searched plainly."""
    seen, todo = {keep[0]}, [keep[0]]
    while todo:
        i = todo.pop()
        for j in keep:
            if j not in seen and (M[i][j] or M[j][i]):
                seen.add(j)
                todo.append(j)
    return len(seen) == len(keep)


def shaped(M, keep):
    """Whether four objects are units u and v with a hom-set one way only
    between them, an object x with hom-sets both ways to and from u, and an
    object y likewise for v, searched plainly."""
    return any(
        M[u][u] == M[v][v] == 1
        and bool(M[u][v]) != bool(M[v][u])
        and M[u][x] and M[x][u] and M[v][y] and M[y][v]
        for u, x, v, y in permutations(keep)
    )


def unit_anchored(M, keep):
    """Whether the window scan's rule walks keep, searched plainly: one
    object; a unit u, an object with hom-sets both ways to and from u and,
    in three, an object linked to u either way; a chain i -> j -> k without
    i -> k; or four objects of quadrant shape."""
    if len(keep) == 4:
        return shaped(M, keep)
    return (
        len(keep) == 1
        or any(
            M[u][u] == 1 and M[u][p] and M[p][u] and all(M[u][k] or M[k][u] for k in rest)
            for u, p, *rest in permutations(keep)
        )
        or any(M[i][j] and M[j][k] and not M[i][k] for i, j, k in permutations(keep, 3))
    )


def window_cases():
    """Matrices of up to eight objects for the window scan: 400 of the five
    shapes, then each of those beside accepted blocks, duplicates added;
    then 96 quadrant families of two U classes of two or three objects, a
    third of them with duplicates and a third beside accepted blocks."""
    rng = random.Random(2010)
    blocks = []
    for t in range(400):
        blocks.append(window_block(rng, t % 5, rng.randint(1, 6)))
        yield duplicate_objects(rng, blocks[-1], rng.randint(0, 8 - blocks[-1].n))
    for M in blocks:
        M = beside_accepted_blocks(rng, M)
        yield duplicate_objects(rng, M, rng.randint(0, 8 - M.n))
    for t in range(96):
        for M in quadrant_family(rng, ((2, 2), (3, 2), (2, 3), (3, 3))[t % 4], slack=3):
            if t % 3 == 1:
                M = duplicate_objects(rng, M, rng.randint(1, 8 - M.n))
            elif t % 3 == 2:
                M = beside_accepted_blocks(rng, M)
            yield M


def test_decide_by_submatrices_matches_reference_scan(monkeypatch):
    walked, windows = [], decider._windows

    def recorded(rows):
        for keep in windows(rows):
            walked.append(keep)
            yield keep

    monkeypatch.setattr(decider, "_windows", recorded)
    kinds, split_kinds = set(), set()
    duplicated = yes = split_yes = four = 0
    for M in window_cases():
        assert M.n <= 8
        decision, subset, reason = reference_scan(M)
        four += subset is not None and len(subset) == 4
        walked.clear()
        verdict = decide_by_submatrices(M)
        assert (verdict.decision, verdict.subset) == (decision, subset), M
        # Each window walked is one that a scan of the connected windows of
        # up to three objects and the shaped ones of four walks too.
        for keep in walked:
            assert connected(M, keep) if len(keep) < 4 else shaped(M, keep), (M, keep)
        assert verdict.reason == reason, M
        split = not connected(M, range(M.n))
        if reason is None:
            yes += 1
            split_yes += split
            assert (verdict.reduced, verdict.rmap, verdict.partition) == (None, None, None)
        else:
            kinds.add(reason.kind)
            if split:
                split_kinds.add(reason.kind)
            assert str(verdict.reason) == str(reason)
            assert verdict.reason.to_json() == reason.to_json()
        duplicated += reduce(M)[1].m < M.n
    assert kinds == split_kinds == set(CONDITION_OF_KIND)
    assert yes >= 20 and split_yes >= 20 and duplicated >= 100
    assert four >= 100


def test_least_chain_is_the_least_broken_chain_triple():
    """The scan's one broken-chain window is the least sorted triple of
    three objects among every chain `acceptability_failures` yields."""

    def least(rows):
        chains = {tuple(sorted(chain)) for _, chain in acceptability_failures(rows)}
        return min((t for t in chains if len(set(t)) == 3), default=None)

    rng = random.Random(25)
    cases = [M.entries for M in window_cases()]
    for t in range(300):
        n = rng.randint(3, 24)
        p = rng.random()
        low = 1 if t % 2 else 2  # units allowed on odd t, none on even t
        cases.append(tuple(
            tuple(rng.randint(low, 3) if i == j else rng.randint(1, 3) * (rng.random() < p)
                  for j in range(n))
            for i in range(n)
        ))
    found = 0
    for rows in cases:
        want = least(rows)
        found += want is not None
        assert decider._least_chain(rows) == want, rows
    assert found >= 300


def test_report_counts_every_broken_chain():
    """The transitivity line's count, shown plus "+N more", is the number of
    broken chains i -> j -> k of the reduced rows, counted here by brute force;
    `explain` counts those past the eighth from reach masks."""
    rng = random.Random(32)
    over = 0
    for t in range(200):
        n = rng.randint(3, 16)
        p = rng.random()
        rows = [[rng.randint(1, 3) if i == j or rng.random() < p else 0 for j in range(n)]
                for i in range(n)]
        if t % 4 == 0:
            rows[rng.randrange(n)][rng.randrange(n)] = 0  # maybe a zero diagonal too
        M = HomMatrix.from_rows(rows)
        R = reduce(M)[0].entries
        m = len(R)
        want = sum(1 for i in range(m) for j in range(m) for k in range(m)
                   if R[i][j] and R[j][k] and not R[i][k])
        line = next(e for e in explain(M)[1] if e["condition"] == "transitivity")
        shown, _, more = line["details"].partition("; +")
        count = len(shown.split("; ")) if shown else 0
        if more:
            assert count == 8 and more.endswith(" more")
            count += int(more.removesuffix(" more"))
        assert (line["status"], count) == ("fail" if want else "pass", want), rows
        over += want > 8
    assert over >= 50


@given(small_matrices, small_matrices, st.randoms(use_true_random=False))
def test_walk_of_disjoint_union_fails_exactly_when_a_block_fails(A, B, rng):
    """A disjoint union fails exactly when one of its blocks fails, zero
    diagonals included: `beside_accepted_blocks` rests on this."""
    W = disjoint_union([A, B], rng)
    assert any(_Walk(W.entries)) == (any(_Walk(A.entries)) or any(_Walk(B.entries)))


def assert_yes_payload(M, verdict):
    """A yes carries what reduce(M) and build_partition give."""
    N, rmap = reduce(M)
    assert verdict.reduced == N
    assert verdict.rmap == rmap
    assert verdict.partition == build_partition(N)


def test_yes_payload_matches_reduce_and_partition():
    yes = duplicated = 0
    for M in window_cases():
        for verdict in (decide(M), explain(M)[0]):
            if verdict.exists:
                yes += 1
                duplicated += verdict.rmap.m < M.n
                assert_yes_payload(M, verdict)
    assert yes >= 40 and duplicated >= 20


@given(small_matrices, st.randoms(use_true_random=False))
def test_yes_payload_matches_reduce_and_partition_on_random_matrices(M, rng):
    M = duplicate_objects(rng, M, rng.randint(0, 3) if M.n else 0)
    for verdict in (decide(M), explain(M)[0]):
        if verdict.exists:
            assert_yes_payload(M, verdict)


def test_window_scan_builds_no_matrix_or_map(monkeypatch):
    """No window builds a HomMatrix or ReductionMap; a yes builds one of
    each and carries the Partition its walk computed."""
    base = [[1, 1, 1, 1], [1, 2, 1, 1], [0, 0, 1, 1], [0, 0, 1, 2]]
    phi = [0, 1, 2, 3, 1, 3]  # objects 4 and 5 duplicate 1 and 3
    M = HomMatrix.from_rows([[base[a][b] for b in phi] for a in phi])
    built = Counter()
    for cls in (HomMatrix, ReductionMap):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    def trusted(cls, rows, _make=HomMatrix._trusted.__func__):  # skips __init__
        built["HomMatrix"] += 1
        return _make(cls, rows)

    monkeypatch.setattr(HomMatrix, "_trusted", classmethod(trusted))
    shapes = []

    def recorded(rows, _structure=decider.structure):
        shapes.append(_structure(rows))
        return shapes[-1]

    monkeypatch.setattr(decider, "structure", recorded)
    assert decide_by_submatrices(M).exists
    assert not built and shapes
    shapes.clear()
    verdict = decide(M)
    assert verdict.exists  # the counters do see the payload of a yes
    assert built == {"HomMatrix": 1, "ReductionMap": 1}
    assert len(shapes) == 1 and verdict.partition is shapes[0]


def test_window_scan_walks_only_unit_anchored_windows(monkeypatch):
    """The scan walks, in scan order, exactly the windows its rule names, up
    to the first that fails."""
    # An accepted matrix of three blocks, then the same beside a broken
    # chain with no unit; two objects duplicated, interleaved.
    blocks = [
        [[1, 1, 1, 1], [1, 2, 1, 1], [0, 0, 1, 1], [0, 0, 1, 2]],
        [[1, 2], [3, 7]],
        [[2]],
    ]
    chain = [[2, 2, 0], [0, 2, 2], [0, 0, 2]]
    walked = []

    def counted(self, rows, _init=_Walk.__init__):
        walked.append(rows)
        _init(self, rows)

    monkeypatch.setattr(_Walk, "__init__", counted)
    for extra in ([], [chain]):
        M = disjoint_union([HomMatrix.from_rows(B) for B in blocks + extra], random.Random(7))
        M = duplicate_objects(random.Random(7), M, 2)
        assert reduce(M)[1].m < M.n
        windows = [keep for size in range(1, 5) for keep in combinations(range(M.n), size)]
        expected = [keep for keep in windows if unit_anchored(M, keep)]
        assert any(connected(M, keep) and not unit_anchored(M, keep) for keep in windows)
        walked.clear()
        verdict = decide_by_submatrices(M)
        if extra:
            assert verdict.reason.kind == "NotAcceptable"
            stop = expected.index(verdict.subset) + 1
            assert any(len(keep) == 3 for keep in expected[stop:])
            expected = expected[:stop]
        else:
            assert verdict.exists
            assert any(len(keep) == 4 for keep in expected)
            assert 3 * len(expected) < len(windows)
        assert walked == [tuple(tuple(M[i][j] for j in keep) for i in keep) for keep in expected]
