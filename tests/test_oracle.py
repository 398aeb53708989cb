import ast
import hashlib
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest

import catmat.oracle
from catmat import HomMatrix, decide, oracle_decide, reduce, verify_category
from catmat.cli import main
from catmat.oracle import SearchBudget
from catmat.partition import check_acceptable
from helpers import permute, quadrant_family


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
        ([[1, 4], [4, 4]], "no"),
        ([[4, 4], [4, 1]], "no"),
    ],
)
def test_oracle_fixtures(rows, want):
    assert oracle_decide(HomMatrix.from_rows(rows)).decision == want


def test_oracle_exhausts_hard_no():
    result = oracle_decide(HomMatrix.from_rows([[1, 2], [3, 6]]))
    assert result.decision == "no"
    assert result.assignments == 54
    # At least 10x fewer than the 4,461,097 of the search without symmetry breaking.
    assert result.assignments <= 446_109


def test_oracle_propagates_in_every_role():
    # Without the (h, p) role or without the (q, f) role every answer stays
    # right, since the other one meets the same clash later, but this search
    # takes 62 assignments instead of 57.
    result = oracle_decide(HomMatrix.from_rows([[2, 1, 1], [2, 2, 2], [0, 0, 2]]))
    assert (result.decision, result.assignments) == ("yes", 57)


def test_oracle_empty_matrix():
    result = oracle_decide(HomMatrix(0, ()))
    assert result.decision == "yes"
    assert result.category.n == 0


def test_oracle_budget_exhaustion_returns_unknown():
    result = oracle_decide(HomMatrix.from_rows([[4, 4], [4, 4]]), SearchBudget(100))
    assert result.decision == "unknown"
    assert result.assignments <= 100
    # A plain int works as a budget too.
    assert oracle_decide(HomMatrix.from_rows([[4, 4], [4, 4]]), 100).decision == "unknown"


def test_oracle_probes_count_against_the_budget():
    # This search is probed; it takes 3,174 assignments, probes included, so
    # one fewer must stop it.  Without probes it would take 17,311.
    M = HomMatrix.from_rows([[2, 2, 2], [2, 2, 2], [2, 1, 2]])
    assert oracle_decide(M).assignments == 3174
    assert oracle_decide(M, 3173).decision == "unknown"
    result = oracle_decide(M, 3174)
    assert (result.decision, result.assignments) == ("yes", 3174)


def test_oracle_spends_exactly_its_budget_wherever_it_runs_out():
    """Every budget short of 3,174 stops the search with exactly that many
    assignments spent.  Of these 86 budgets, 1 (budget 0) runs out on the
    2T - n = 31 unit-law cells, 68 at a decision and 17 inside a lookahead
    probe; the 4 one-member cells end at 35, so none runs out among them."""
    M = HomMatrix.from_rows([[2, 2, 2], [2, 2, 2], [2, 1, 2]])
    for budget in range(0, 3174, 37):
        result = oracle_decide(M, budget)
        assert (result.decision, result.assignments) == ("unknown", budget)


def test_oracle_counts_a_forced_no_from_the_unit_cells_up():
    # Numbered as the oracle numbers them (object 1, then 0, then 2), the
    # first one-member cells in cell order are 1.11 = 1.12 = 13 and
    # 2.11 = 2.12 = 13 (hom(2, 0) = {13}), then 5.1 = 0, the identity of
    # object 1 (hom(1, 1) = {0}).  The fifth clashes: 11 = (5.1).11 =
    # 5.(1.11) = 5.13 = 5.(1.12) = (5.1).12 = 12.  So the "no" costs the
    # 2T - n unit-law cells, counted together and first, plus 5.
    rows = [[2, 2, 2], [2, 1, 2], [1, 2, 2]]
    units = 2 * sum(map(sum, rows)) - len(rows)
    count = units + 5
    M = HomMatrix.from_rows(rows)
    assert (units, count) == (29, 34)
    for budget in range(count):
        result = oracle_decide(M, budget)
        assert (result.decision, result.assignments) == ("unknown", budget)
    for budget in (count, None):
        result = oracle_decide(M, budget)
        assert (result.decision, result.assignments) == ("no", count)


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
    for entries in itertools.product(range(4), repeat=4):
        M = HomMatrix.from_rows([entries[:2], entries[2:]])
        result = oracle_decide(M)
        assert result.decision == decide(M).decision, entries
        if result.exists:
            assert verify_category(result.category, M).passed, entries


# sha256 of json.dumps(sorted(table.items())) for the first table the search
# finds.  Pruning may cut only subtrees without a completion, so a faster
# search must still find these same tables.
GOLDEN_TABLES = {
    ((1, 2), (3, 7)): "e81d1018b442048b78be85063d6591ebb2c3c0d317c95a922b5bc96240208be9",
    ((2, 2), (2, 2)): "7476f3468c2387ea4063bfab3d7cc53aa81b782378c60d48c3328a450a582469",
    ((1, 1, 1), (1, 2, 1), (1, 1, 2)): "253d6d8cc1bb2824026fac1fcb9778a44b47aedf39f056d6d3e5b079a1ded41d",
}


@pytest.mark.parametrize("rows", sorted(GOLDEN_TABLES))
def test_oracle_golden_tables(rows, tmp_path, capsys, monkeypatch):
    # The category is built from the finished table only when it is read:
    # the oracle command, which prints no table, never builds it.
    built = []
    real = catmat.oracle._category
    monkeypatch.setattr(catmat.oracle, "_category", lambda *a: built.append(a) or real(*a))
    path = tmp_path / "m.txt"
    path.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
    assert main(["oracle", str(path)]) == 0
    assert capsys.readouterr().out.startswith("EXISTS")
    assert built == []

    M = HomMatrix.from_rows(rows)
    result = oracle_decide(M)
    C = result.category
    assert result.category is C and len(built) == 1
    blob = json.dumps(sorted(C.table.items())).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_TABLES[rows]
    assert verify_category(C, M).passed


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


def forced_cells(M):
    """What the oracle places before its first decision: the 2T - n unit-law
    cells and the composable cells with no identity whose hom-set has one
    member."""
    e = M.entries
    n = M.n
    plain = [[e[x][y] - (x == y) for y in range(n)] for x in range(n)]  # non-identities
    one = sum(plain[x][y] * plain[y][z] for x, y, z in itertools.product(range(n), repeat=3)
              if e[x][z] == 1)
    return 2 * sum(map(sum, e)) - n + one


def test_oracle_agrees_with_decide_on_every_acceptable_3x3():
    cases = list(acceptable_3x3(2))
    assert len(cases) == 2056
    searched = hashlib.sha256()
    forced_noes = hashlib.sha256()
    tables = hashlib.sha256()
    kinds = Counter()
    for M in cases:
        result = oracle_decide(M)
        assert result.decision == decide(M).decision, M.entries
        if result.exists:
            assert verify_category(result.category, M).passed, M.entries
            tables.update(repr((M.entries, sorted(result.category.rows()))).encode())
        record = repr((M.entries, result.decision, result.assignments)).encode()
        forced = forced_cells(M)
        if result.decision == "no" and result.assignments <= forced:
            forced_noes.update(record)
            kinds["forced no"] += 1
        else:
            assert result.assignments >= forced, M.entries
            searched.update(record)
            kinds["searched"] += 1
    assert kinds == {"searched": 1414, "forced no": 642}
    # The first table of every yes, as found before the lookahead existed:
    # pruning may cut only subtrees without a completion, so no search may
    # find another table first.
    assert tables.hexdigest() == "68ad852f8b4599726a003edbf5c24e12b9c518f3467bd3d5ec199b51f1651e1e"
    # The search itself is pinned, not just its verdicts: sha256 over
    # (entries, decision, assignments) of every case, so a kernel change
    # that tries cells, candidates, propagations or probes in another order
    # fails here once it moves any assignment count.  The "no"s found among
    # the forced cells are pinned apart, since only their counts depend on
    # the order the forced cells are counted in: the first digest, over
    # every yes and every "no" found by the search, is the same whether the
    # unit-law cells count together and first or one by one in cell order.
    assert searched.hexdigest() == "decb9317a8003e56c069686f2d077bc6fd1eded6bf0a6617cc95b261d550c14d"
    assert forced_noes.hexdigest() == "f658903e059598e725dd72ac7dcf9856f1ad018502110a544365a2453f4490cd"


def test_oracle_agrees_with_decide_on_sampled_3x3_up_to_3():
    # Drawn uniformly, by rejection, from the 39,453 acceptable reduced 3x3
    # matrices with entries <= 3.  Seed and size are fixed, not picked to
    # avoid slow or unresolved cases.
    rng = random.Random(10)
    cases = []
    while len(cases) < 24:
        e = [rng.randrange(4) for _ in range(9)]
        M = HomMatrix.from_rows([e[0:3], e[3:6], e[6:9]])
        if check_acceptable(M) is None and reduce(M)[0].n == 3:
            cases.append(M)
    for M in cases:
        result = oracle_decide(M)
        assert result.decision == decide(M).decision, M.entries
        if result.exists:
            assert verify_category(result.category, M).passed, M.entries


def test_oracle_agrees_with_decide_at_every_cross_floor():
    # Two two-object U classes with each cross cell, the quadrant cell
    # included, at its floor and one below it, relabeled: the four-object
    # condition checked against the oracle.  Seed and size are fixed, not
    # picked to avoid slow or unresolved cases.
    rng = random.Random(6)
    kinds = Counter()
    for _ in range(100):
        for M in quadrant_family(rng):
            result = oracle_decide(M, 10**5)
            verdict = decide(M)
            assert result.decision == verdict.decision, M.entries
            if result.exists:
                assert verify_category(result.category, M).passed, M.entries
            kinds[verdict.reason.kind if verdict.reason else "yes"] += 1
    assert kinds["yes"] == 400
    assert min(kinds[k] for k in ("CrossColFail", "CrossRowFail", "CrossQuadrantFail")) >= 40, kinds


def test_oracle_imports_nothing_from_the_decision_pipeline():
    tree = ast.parse(Path(catmat.oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert not imported & {"decider", "partition", "reduction", "witness"}


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
