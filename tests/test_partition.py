import pytest
from hypothesis import given
from hypothesis import strategies as st

from catmat import HomMatrix, NotAcceptable, reduce
from catmat.partition import acceptability_failures, build_partition, check_acceptable, structure

positive_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=1, max_value=4), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(HomMatrix.from_rows)


def test_check_acceptable():
    assert check_acceptable(HomMatrix.from_rows([[1, 1], [0, 1]])) is None
    cex = check_acceptable(HomMatrix.from_rows([[0]]))
    assert cex.kind == "diag" and cex.indices == (0,)
    cex = check_acceptable(HomMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    assert cex.kind == "chain" and cex.indices == (0, 1, 2)


small_matrices = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from([0, 0, 1, 2]), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@given(small_matrices)
def test_acceptability_failures_match_plain_scan(rows):
    rows = tuple(map(tuple, rows))
    n = len(rows)
    want = [("diag", (i,)) for i in range(n) if rows[i][i] == 0]
    want += [
        ("chain", (i, j, k))
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if rows[i][j] and rows[j][k] and not rows[i][k]
    ]
    assert list(acceptability_failures(rows)) == want


def test_partition_kinds_and_order():
    part = build_partition(HomMatrix.from_rows([[2, 1], [0, 2]]))
    assert part.classes == ((0,), (1,))
    assert part.basepoints == (None, None)  # both classes are V
    assert not part.is_u(0) and not part.is_u(1)
    assert part.order == ((0, 1),)
    assert part.local_of == ((0, 1), (1, 1))  # V-class locals start at 1


def test_anchor_is_the_basepoint_or_the_object_itself():
    # A V class {0, 1} above a U class {2, 3} with basepoint 3.
    M = HomMatrix.from_rows([[2, 1, 1, 1], [1, 2, 1, 1], [0, 0, 2, 1], [0, 0, 1, 1]])
    part = build_partition(M)
    assert part.basepoints == (None, 3)
    assert part.anchor == (0, 1, 3, 3)
    # The anchor of each member of [[1, 2], [3, 7]]'s one U class is its basepoint 0.
    assert build_partition(HomMatrix.from_rows([[1, 2], [3, 7]])).anchor == (0, 0)
    # With several units, the first one anchors the class, as it is the basepoint.
    assert build_partition(HomMatrix.from_rows([[1, 2], [2, 1]])).anchor == (0, 0)


def test_partition_multiple_units_flagged():
    part = build_partition(HomMatrix.from_rows([[1, 2], [2, 1]]))
    assert part.classes == ((0, 1),)
    assert part.basepoints == (0,) and part.is_u(0)
    assert part.multiple_units == ((0, (0, 1)),)


def test_partition_block_matrix():
    M = HomMatrix.from_rows([[1, 1, 1, 2], [1, 2, 2, 3], [0, 0, 1, 1], [0, 0, 1, 2]])
    part = build_partition(M)
    assert part.classes == ((0, 1), (2, 3))
    assert part.basepoints == (0, 2) and part.is_u(0) and part.is_u(1)
    assert part.order == ((0, 1),)
    assert part.local_of == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert part.locals[1] == ((0, 2), (1, 3))


def test_partition_locals_count_up_past_the_basepoint():
    M = HomMatrix.from_rows([[2, 1, 1], [1, 1, 1], [1, 1, 2]])
    part = build_partition(M)
    assert part.basepoints == (1,)
    assert part.local_of == ((0, 1), (0, 0), (0, 2))
    assert part.locals[0] == ((0, 1), (1, 0), (2, 2))


def test_partition_rejects_unacceptable():
    with pytest.raises(NotAcceptable):
        build_partition(HomMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    with pytest.raises(NotAcceptable):
        build_partition(HomMatrix.from_rows([[0]]))


@given(positive_matrices)
def test_local_coordinates_are_a_bijection(M):
    # Strictly positive matrices are always acceptable with a single class.
    N, _ = reduce(M)
    part = structure(N.entries)
    assert part == build_partition(N)
    assert len(part.classes) == 1
    locals_ = part.locals
    seen = set()
    for x in range(N.n):
        c, i = part.local_of[x]
        assert (i, x) in locals_[c]
        assert (c, i) not in seen
        seen.add((c, i))
    assert locals_[0] == tuple(sorted((i, x) for x, (_, i) in enumerate(part.local_of)))
    if part.is_u(0):
        assert part.local_of[part.basepoints[0]] == (0, 0)
        locals_ = sorted(i for _, i in part.local_of)
        assert locals_ == list(range(N.n))
    else:
        locals_ = sorted(i for _, i in part.local_of)
        assert locals_ == list(range(1, N.n + 1))


@given(st.randoms(use_true_random=False))
def test_blocks_are_uniformly_positive(rng):
    # Build a random acceptable matrix from an explicit class structure, then
    # confirm the recovered order matches block positivity everywhere.
    sizes = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
    n = sum(sizes)
    cls = []
    for c, s in enumerate(sizes):
        cls += [c] * s
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if cls[i] == cls[j]:
                row.append(1 if i == j and rng.random() < 0.3 else rng.randint(2, 4))
            elif cls[i] < cls[j]:
                row.append(rng.randint(1, 4))
            else:
                row.append(0)
        rows.append(row)
    M = HomMatrix.from_rows(rows)
    assert check_acceptable(M) is None
    part = build_partition(M)
    for c, cm in enumerate(part.classes):
        for d, dm in enumerate(part.classes):
            entries = [M[x][y] for x in cm for y in dm]
            if c == d or (c, d) in part.order:
                assert all(v >= 1 for v in entries)
            elif (d, c) not in part.order:
                assert all(v == 0 for v in entries)
