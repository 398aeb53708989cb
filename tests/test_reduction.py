import pytest
from hypothesis import given
from hypothesis import strategies as st

from catmat import (
    CardinalityError,
    FiniteCategory,
    HomMatrix,
    build_witness,
    inflate,
    reduce,
    verify_category,
)
from catmat.reduction import duplicate_relation

matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(HomMatrix.from_rows)


def test_duplicate_relation():
    assert duplicate_relation(HomMatrix.from_rows([[2, 2], [2, 2]]).entries) == [(0, 1)]
    assert duplicate_relation(HomMatrix.from_rows([[1, 2], [3, 7]]).entries) == [(0,), (1,)]
    assert duplicate_relation(HomMatrix.from_rows([[1]]).entries) == [(0,)]
    # Equal rows alone are not enough; the columns must match too.
    assert duplicate_relation(HomMatrix.from_rows([[1, 1], [1, 1]]).entries) == [(0, 1)]
    assert duplicate_relation(HomMatrix.from_rows([[2, 2], [2, 3]]).entries) == [(0,), (1,)]


def test_reduce_fixtures():
    N, rmap = reduce(HomMatrix.from_rows([[2, 2], [2, 2]]))
    assert N == HomMatrix.from_rows([[2]])
    assert rmap.class_of == (0, 0)
    assert rmap.representative == (0,)

    N, rmap = reduce(HomMatrix.from_rows([[1, 1, 2], [1, 1, 2], [0, 0, 3]]))
    assert N == HomMatrix.from_rows([[1, 2], [0, 3]])
    assert rmap.class_of == (0, 0, 1)
    assert rmap.representative == (0, 2)

    # Duplicate groups interleave: 0 and 3 match, 1 and 4 match, 2 is alone.
    N, rmap = reduce(HomMatrix.from_rows(
        [[2, 1, 0, 2, 1], [3, 4, 1, 3, 4], [0, 0, 5, 0, 0], [2, 1, 0, 2, 1], [3, 4, 1, 3, 4]]
    ))
    assert N == HomMatrix.from_rows([[2, 1, 0], [3, 4, 1], [0, 0, 5]])
    assert rmap.class_of == (0, 1, 2, 0, 1)
    assert rmap.representative == (0, 1, 2)


def test_reduce_without_duplicates_keeps_the_matrix():
    M = HomMatrix.from_rows([[1, 2, 0], [3, 7, 0], [1, 1, 2]])
    N, rmap = reduce(M)
    assert N == M
    assert rmap.class_of == rmap.representative == (0, 1, 2)
    assert (rmap.n, rmap.m) == (3, 3)


@given(matrices)
def test_reduce_is_idempotent(M):
    N, rmap = reduce(M)
    again, identity_map = reduce(N)
    assert again == N
    assert identity_map.class_of == identity_map.representative == tuple(range(N.n))
    assert rmap.representative == tuple(sorted(rmap.representative))
    for a in range(N.n):
        assert rmap.class_of[rmap.representative[a]] == a


def test_inflate_terminal_to_indiscrete():
    terminal = build_witness(HomMatrix.from_rows([[1]]))
    from catmat.reduction import ReductionMap

    rmap = ReductionMap(2, 1, (0, 0), (0,))
    doubled = inflate(terminal, rmap)
    indiscrete = HomMatrix.from_rows([[1, 1], [1, 1]])
    assert all(len(doubled.hom(i, j)) == 1 for i in range(2) for j in range(2))
    assert verify_category(doubled, indiscrete).passed


def test_inflate_two_object_monoid():
    M = HomMatrix.from_rows([[2, 2], [2, 2]])
    base = build_witness(HomMatrix.from_rows([[2]]))
    _, rmap = reduce(M)
    C = inflate(base, rmap, expected=M)
    assert verify_category(C, M).passed


def test_inflate_checks_sizes():
    from catmat.reduction import ReductionMap

    base = build_witness(HomMatrix.from_rows([[2]]))
    with pytest.raises(CardinalityError):
        inflate(base, ReductionMap(2, 2, (0, 1), (0, 1)))  # base has 1 object, map wants 2
    rmap = ReductionMap(2, 1, (0, 0), (0,))
    with pytest.raises(CardinalityError):
        inflate(base, rmap, expected=HomMatrix.from_rows([[2, 2], [2, 3]]))
    with pytest.raises(CardinalityError):
        inflate(base, rmap, expected=HomMatrix.from_rows([[2]]))


def test_inflate_identity_map_relabels_only():
    M = HomMatrix.from_rows([[1, 2], [3, 7]])
    C = build_witness(M)
    _, rmap = reduce(M)
    assert rmap.m == rmap.n == 2
    relabeled = inflate(C, rmap, expected=M)
    assert relabeled.morphism_count() == C.morphism_count()
    assert verify_category(relabeled, M).passed
