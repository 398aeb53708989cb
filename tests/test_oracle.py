import itertools

import pytest

from catmat import HomMatrix, decide, oracle_decide, verify_category
from catmat.matrix import permute
from catmat.oracle import SearchBudget
from catmat.partition import check_acceptable


@pytest.mark.parametrize(
    "rows,want",
    [
        ([[1, 1], [0, 1]], "yes"),
        ([[1, 2], [1, 1]], "no"),
        ([[1, 1], [1, 2]], "yes"),
        ([[1]], "yes"),
        ([[0]], "no"),
        ([[2]], "yes"),
        ([[3]], "yes"),
        ([[1, 2], [2, 1]], "no"),
        ([[2, 1], [0, 2]], "yes"),
        ([[1, 0], [0, 2]], "yes"),
    ],
)
def test_oracle_fixtures(rows, want):
    assert oracle_decide(HomMatrix.from_rows(rows)).decision == want


def test_oracle_exhausts_hard_no():
    result = oracle_decide(HomMatrix.from_rows([[1, 2], [3, 6]]))
    assert result.decision == "no"
    assert result.assignments > 1000
    # At least 10x fewer than the 4,461,097 of the search without symmetry breaking.
    assert result.assignments <= 446_109


def test_oracle_empty_matrix():
    result = oracle_decide(HomMatrix(0, ()))
    assert result.decision == "yes"
    assert result.category.n == 0


def test_oracle_budget_exhaustion_returns_unknown():
    result = oracle_decide(HomMatrix.from_rows([[1, 2], [3, 6]]), SearchBudget(100))
    assert result.decision == "unknown"
    assert result.assignments <= 100
    # A plain int works as a budget too.
    assert oracle_decide(HomMatrix.from_rows([[1, 2], [3, 6]]), 100).decision == "unknown"


def test_oracle_is_deterministic():
    a = oracle_decide(HomMatrix.from_rows([[2, 2], [2, 2]]))
    b = oracle_decide(HomMatrix.from_rows([[2, 2], [2, 2]]))
    assert a.decision == b.decision == "yes"
    assert a.assignments == b.assignments
    assert a.category.table == b.category.table


def test_oracle_category_passes_verifier():
    for rows in ([[1, 1], [1, 2]], [[2, 2], [2, 2]], [[1, 1, 1], [1, 2, 1], [1, 1, 2]]):
        M = HomMatrix.from_rows(rows)
        result = oracle_decide(M)
        assert result.decision == "yes"
        assert verify_category(result.category, M).passed


def test_oracle_agrees_with_decide_on_small_matrices():
    for entries in itertools.product(range(3), repeat=4):
        M = HomMatrix.from_rows([entries[:2], entries[2:]])
        result = oracle_decide(M)
        if result.decision != "unknown":
            assert result.decision == decide(M).decision, entries


def test_oracle_agrees_with_decide_on_curated_3x3():
    # Small 3x3 shapes (9 morphisms or fewer): posets, chains, broken
    # transitivity, two units sharing a class, a duplicated object pair.
    curated = [
        [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 1, 1], [0, 1, 1], [0, 0, 1]],
        [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
        [[1, 1, 1], [0, 1, 0], [0, 0, 1]],
        [[2, 1, 1], [0, 1, 1], [0, 0, 1]],
        [[1, 2, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 1, 1], [1, 1, 2], [0, 0, 1]],
        [[2, 2, 0], [2, 2, 0], [0, 0, 1]],
    ]
    for rows in curated:
        M = HomMatrix.from_rows(rows)
        result = oracle_decide(M)
        assert result.decision != "unknown"
        assert result.decision == decide(M).decision, rows


def acceptable_3x3(top):
    for e in itertools.product(range(top + 1), repeat=9):
        M = HomMatrix.from_rows([e[0:3], e[3:6], e[6:9]])
        if check_acceptable(M) is None:
            yield M


def test_oracle_agrees_with_decide_on_every_acceptable_3x3():
    cases = list(acceptable_3x3(2))
    assert len(cases) == 2056
    for M in cases:
        result = oracle_decide(M)
        assert result.decision == decide(M).decision, M.entries
        if result.exists:
            assert verify_category(result.category, M).passed, M.entries


def test_oracle_decision_survives_relabeling():
    # A complete search answers the same for every object order; a pruning
    # rule that leans on index order either changes an answer or runs out of
    # budget on one of the orders ([[k, 3], [2, 1]] is the hard one).
    cases = list(acceptable_3x3(1)) + [HomMatrix.from_rows([[1, 2], [3, k]]) for k in range(4, 8)]
    for M in cases:
        want = oracle_decide(M).decision
        assert want != "unknown", M.entries
        for sigma in itertools.permutations(range(M.n)):
            assert oracle_decide(permute(M, sigma)).decision == want, (M.entries, sigma)
