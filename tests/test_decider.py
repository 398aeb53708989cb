import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmat import (
    HomMatrix,
    condition_report,
    decide,
    decide_by_submatrices,
    reduce,
)
from catmat.matrix import permute, transpose

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
