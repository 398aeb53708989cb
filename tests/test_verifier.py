import json
import random

import helpers
import pytest

from catmat import (
    FiniteCategory,
    HomMatrix,
    TripleBudgetError,
    VerificationReport,
    build_certificate,
    build_witness,
    load_certificate,
    reduce,
    verify_category,
)
from catmat import verifier
from catmat.verifier import DEFAULT_FAILURE_CAP
from catmat.cli import main


def monoid_table(n):
    """The table of the cyclic monoid on one object with n elements, (i+j) mod n."""
    return {(f"m{i}", f"m{j}"): f"m{(i + j) % n}" for i in range(n) for j in range(n)}


def small_monoid(n, table=None):
    """The claimed category of `table`, by default the cyclic monoid's, over
    the one hom-set of the cyclic monoid with n elements."""
    labels = tuple(f"m{i}" for i in range(n))
    table = monoid_table(n) if table is None else table
    return helpers.claimed(1, {(0, 0): labels}, {0: labels[0]}, table)


def test_passing_reports():
    M = HomMatrix.from_rows([[1, 2], [3, 7]])
    report = verify_category(build_witness(M), M)
    assert report.passed
    assert report.triples_checked > 0

    terminal = build_witness(HomMatrix.from_rows([[1]]))
    report = verify_category(terminal, HomMatrix.from_rows([[1]]))
    assert report.passed and report.triples_checked == 1
    assert report.summary() == "passed (1 triples checked)"
    assert VerificationReport().summary() == "passed (0 triples checked)"


def test_triples_checked_counts_all_chains():
    M = HomMatrix.from_rows([[2]])
    C = small_monoid(2)
    report = verify_category(C, M)
    assert report.passed
    assert report.triples_checked == 8  # 2^3 endomorphism chains


def test_cardinality_mismatch():
    C = small_monoid(2)
    report = verify_category(C, HomMatrix.from_rows([[3]]))
    assert not report.passed
    assert report.cardinality_mismatches == [(0, 0, 3, 2)]

    # Object count mismatch shows up as cardinality rows, not a crash.
    report = verify_category(C, HomMatrix.from_rows([[2, 1], [0, 1]]))
    assert not report.passed
    assert (1, 1, 1, 0) in report.cardinality_mismatches


def test_broken_associativity_detected():
    bad = monoid_table(3)
    bad[("m1", "m1")] = "m1"  # 1+1 = 1 breaks (1+1)+2 = 1+(1+2)
    broken = small_monoid(3, bad)
    report = verify_category(broken, HomMatrix.from_rows([[3]]))
    assert not report.passed
    # (h, g, f, h.(g.f), (h.g).f), in the walk order g, f, h.
    assert report.associativity_failures == [
        ("m2", "m1", "m1", "m0", "m1"),
        ("m1", "m1", "m2", "m1", "m0"),
        ("m2", "m2", "m1", "m2", "m1"),
        ("m1", "m2", "m2", "m1", "m2"),
    ]
    assert report.closure_failures == [] and report.identity_failures == []


def mutated_witness(rows, g, f, h):
    """(M, table, category): the witness of rows with its composite g.f
    replaced by h, as a label table and as the claimed category of it."""
    M = HomMatrix.from_rows(rows)
    C = build_witness(M)
    table = dict(C.table)
    assert (g, f) in table
    table[(g, f)] = h
    return M, table, helpers.claimed(C.n, C.homs, C.identity, table)


def test_associativity_failures_keep_block_order(monkeypatch):
    # The composite stays in hom(1,1), so only associativity fails, in three
    # blocks (x,y,z,w) = (0,1,1,1), (1,0,1,1), (1,1,0,1), visited in that order.
    p11 = "Pair(0,1,1,1,1)"
    M, _, broken = mutated_witness([[1, 2], [3, 7]], p11, p11, "Identity(0,1)")
    monkeypatch.setattr(verifier, "DEFAULT_FAILURE_CAP", 3)
    report = verify_category(broken, M)
    assert report.closure_failures == [] and report.identity_failures == []
    assert report.associativity_failures == [
        (p11, p11, "Pair(0,0,1,1,2)", "Pair(0,0,1,1,1)", "Pair(0,0,1,1,2)"),
        (p11, "Pair(0,0,1,1,1)", "Pair(0,1,0,1,1)", "Identity(0,1)", p11),
        ("Pair(0,0,1,1,1)", "Pair(0,1,0,1,1)", p11, p11, "Identity(0,1)"),
    ]


def reference_report(C, table, M, cap):
    """verify_category's report on the claimed category C of the label table
    `table`, by a plain walk over every triple, each failure list capped at cap.

    Closure visits (x, y) sorted, then z, g, f; associativity visits (x, y)
    in homs order, then z, w, g, f, h, and skips a triple through a missing,
    wrong-hom or unknown composite, which closure already names.
    """
    report = VerificationReport()

    def push(entries, item):
        if len(entries) < cap:
            entries.append(item)

    size = max(C.n, M.n)
    for i in range(size):
        for j in range(size):
            want = M[i][j] if i < M.n and j < M.n else 0
            have = len(C.hom(i, j)) if i < C.n and j < C.n else 0
            if want != have:
                push(report.cardinality_mismatches, (i, j, want, have))

    where = {label: (x, y) for label, (x, y, _) in C.place.items()}
    ok = {}
    for x in range(C.n):
        e = C.identity.get(x)
        ok[x] = e is not None and where.get(e) == (x, x)
        if not ok[x]:
            push(report.identity_failures, (x, e))
    for x, y in sorted(C.homs):
        for f in C.homs[(x, y)]:
            if ok[y] and table.get((C.identity[y], f)) != f:
                push(report.identity_failures, (y, f))
            if ok[x] and table.get((f, C.identity[x])) != f:
                push(report.identity_failures, (x, f))

    def composite(g, f):
        """g.f when the table holds it in hom(source f, target g), else None."""
        h = table.get((g, f))
        if h is not None and where.get(h) == (where[f][0], where[g][1]):
            return h
        return None

    for x, y in sorted(C.homs):
        for z in range(C.n):
            for g in C.hom(y, z):
                for f in C.homs[(x, y)]:
                    if composite(g, f) is None:
                        h = table.get((g, f))
                        if h is None:
                            failure = ("missing", g, f)
                        elif h in where:
                            failure = ("wrong-hom", g, f, h)
                        else:
                            failure = ("unknown", g, f, h)
                        push(report.closure_failures, failure)
    for g, f in table:
        if g not in where or f not in where or where[f][1] != where[g][0]:
            push(report.closure_failures, ("foreign", g, f))

    for (x, y), fs in C.homs.items():
        for z in range(C.n):
            for w in range(C.n):
                gs, hs = C.hom(y, z), C.hom(z, w)
                report.triples_checked += len(fs) * len(gs) * len(hs)
                for g in gs:
                    for f in fs:
                        for h in hs:
                            p, q = composite(g, f), composite(h, g)
                            if p is None or q is None:
                                continue
                            a, b = composite(h, p), composite(q, f)
                            if a is not None and b is not None and a != b:
                                push(report.associativity_failures, (h, g, f, a, b))

    report.passed = not any(entries for _, _, entries in report.failures())
    return report


def random_mutants(seed, count):
    """(M, witness, table): witnesses, some over duplicated objects, with 1-3
    table entries changed to another member of the same hom-set, deleted,
    moved to another hom-set or to a label of no hom-set, or added under a
    foreign key.  The fifth base is a chain of three classes, whose hom-sets
    mostly pass while one fails; the last has 256 morphisms out of object
    0, one over the byte rows' limit."""
    rng = random.Random(seed)
    bases = (
        [[1, 2], [3, 7]],
        [[2, 2], [2, 2]],
        [[1, 1], [0, 3]],
        [[1, 1, 2], [1, 1, 2], [0, 0, 3]],
        [[2, 2, 3, 4, 4], [0, 1, 1, 2, 2], [0, 2, 5, 3, 3], [0, 0, 0, 2, 2], [0, 0, 0, 2, 2]],
        [[1, 255], [0, 1]],
    )
    for _ in range(count):
        M = HomMatrix.from_rows(rng.choice(bases))
        M = helpers.duplicate_objects(rng, M, rng.randint(0, 2))
        C = build_witness(M)
        labels = list(C.place)
        table = dict(C.table)
        for _ in range(rng.randint(1, 3)):
            key = rng.choice(sorted(table))
            kind = rng.randrange(5)
            if kind == 0:
                if table[key] in C.place:  # not "ghost" from an earlier change
                    table[key] = rng.choice(C.hom(*C.place[table[key]][:2]))
            elif kind == 1:
                del table[key]
            elif kind == 2:
                table[key] = rng.choice(labels)
            elif kind == 3:
                table[key] = "ghost"
            else:
                table[(rng.choice(labels), rng.choice(labels + ["ghost"]))] = rng.choice(labels)
        yield M, C, table


@pytest.mark.parametrize("cap", [3, 10**6])
def test_report_matches_reference_walk(cap, monkeypatch):
    # The rows are filled from the table's items, and again from the same
    # table as a certificate's [g, f, h] rows through the loader.
    monkeypatch.setattr(verifier, "DEFAULT_FAILURE_CAP", cap)
    for M, W, table in random_mutants(seed=cap, count=60):
        C = helpers.claimed(W.n, W.homs, W.identity, table)
        want = reference_report(C, table, M, cap)
        assert verify_category(C, M) == want
        data = build_certificate(W, M, reduce(M)[1])
        data["table"] = [[g, f, h] for (g, f), h in table.items()]
        _, loaded = load_certificate(json.loads(json.dumps(data)))
        assert verify_category(loaded, M) == want


def test_wrong_hom_composite_through_a_hole_free_row():
    # h.g lands in hom(1, 0): post[g] has a hole at h, while every f into
    # object 1 keeps a row with none, so f's one comparison differs and the
    # pair walk runs; it names no triple through h.g, and closure names h.g.
    g, h = "Pair(0,1,1,1,1)", "Pair(0,1,1,1,2)"
    M, table, broken = mutated_witness([[1, 2], [3, 7]], h, g, "Pair(0,1,0,1,1)")
    report = verify_category(broken, M)
    assert report == reference_report(broken, table, M, DEFAULT_FAILURE_CAP)
    assert report.closure_failures == [("wrong-hom", h, g, "Pair(0,1,0,1,1)")]
    assert report.associativity_failures == [] and report.identity_failures == []


def test_one_bad_composite_among_many(monkeypatch):
    # hom(1, 1) has 20 morphisms; one composite g.f, g the last of Out(1),
    # moves to another member of hom(1, 1), so one hom-set of many f fails.
    M = HomMatrix.from_rows([[1, 2], [3, 20]])
    W = build_witness(M)
    g, f = W.hom(1, 1)[-1], W.hom(1, 1)[7]
    p = W.table[(g, f)]
    M, table, broken = mutated_witness(M.entries, g, f, next(l for l in W.hom(1, 1) if l != p))
    monkeypatch.setattr(verifier, "DEFAULT_FAILURE_CAP", 10**6)
    report = verify_category(broken, M)
    assert report == reference_report(broken, table, M, 10**6)
    assert report.associativity_failures and not report.closure_failures
    # Each failing triple (h, g', f') composes g.f on one side.
    assert all((g, f) in (t[:2], t[1:3]) for t in report.associativity_failures)


@pytest.mark.parametrize(
    "width, line",
    [
        (254, "VERIFIED (2 objects, 256 morphisms, 764 triples checked)"),
        (255, "VERIFIED (2 objects, 257 morphisms, 767 triples checked)"),
    ],
)
def test_either_side_of_the_byte_row_limit(tmp_path, capsys, width, line):
    # Out(0) has 1 + width morphisms: 255 fit byte rows, 256 need tuple
    # rows.  random_mutants compares failing reports on both with the walk.
    matrix, cert = tmp_path / "m.txt", tmp_path / "cert.json"
    matrix.write_text(f"1 {width}\n0 1\n")
    assert main(["witness", str(matrix), "--out", str(cert)]) == 0
    capsys.readouterr()
    assert main(["verify", str(cert)]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_broken_identity_detected():
    bad = monoid_table(2)
    bad[("m1", "m0")] = "m0"
    broken = small_monoid(2, bad)
    report = verify_category(broken, HomMatrix.from_rows([[2]]))
    assert not report.passed
    assert any(f == (0, "m1") for f in report.identity_failures)


def test_missing_and_foreign_entries_detected():
    partial = monoid_table(2)
    del partial[("m1", "m1")]
    broken = small_monoid(2, partial)
    report = verify_category(broken, HomMatrix.from_rows([[2]]))
    assert ("missing", "m1", "m1") in report.closure_failures

    extra = monoid_table(2)
    extra[("m1", "ghost")] = "m0"
    broken = small_monoid(2, extra)
    report = verify_category(broken, HomMatrix.from_rows([[2]]))
    assert ("foreign", "m1", "ghost") in report.closure_failures


def test_hom_key_outside_objects_rejected():
    # Caught at construction, before verify_category could index object 3.
    for key in ((0, 3), (-1, 0)):
        with pytest.raises(ValueError, match="outside objects"):
            FiniteCategory(1, {(0, 0): ("e",), key: ("a",)}, {0: "e"}, [["e", "e", "e"]])


def test_none_is_an_opaque_label():
    # In the rows None is a label like any other: with None idempotent the
    # table is a monoid, and without the row for (None, None) that pair is
    # missing, while the rows whose composite is None still count.
    rows = [["e", "e", "e"], ["e", None, None], [None, "e", None], [None, None, None]]
    C = FiniteCategory(1, {(0, 0): ("e", None)}, {0: "e"}, rows)
    assert verify_category(C, HomMatrix.from_rows([[2]])).passed
    C = FiniteCategory(1, {(0, 0): ("e", None)}, {0: "e"}, rows[:-1])
    report = verify_category(C, HomMatrix.from_rows([[2]]))
    assert not report.passed
    assert report.closure_failures == [("missing", None, None)]
    assert report.identity_failures == [] and report.associativity_failures == []


def test_escaping_composite_detected():
    M = HomMatrix.from_rows([[1, 1], [0, 1]])
    C = build_witness(M)
    bad = dict(C.table)
    arrow = C.hom(0, 1)[0]
    bad[(arrow, C.identity[0])] = C.identity[0]  # lands in hom(0,0), not hom(0,1)
    broken = helpers.claimed(C.n, C.homs, C.identity, bad)
    report = verify_category(broken, M)
    assert report.closure_failures == [("wrong-hom", arrow, C.identity[0], C.identity[0])]


def test_identity_missing_or_outside_its_hom_set():
    M = HomMatrix.from_rows([[1, 1], [0, 1]])
    C = build_witness(M)
    arrow = C.hom(0, 1)[0]
    for e in (None, "ghost", arrow):
        identity = {1: C.identity[1]} if e is None else {0: e, 1: C.identity[1]}
        report = verify_category(FiniteCategory(C.n, C.homs, identity, C.rows()), M)
        assert not report.passed
        assert report.identity_failures[0] == (0, e)


def relabel(C, table, name):
    """The claimed category of C's label table `table`, every label
    replaced by name(position in C's place order)."""
    new = {label: name(i) for i, label in enumerate(C.place)}
    return helpers.claimed(
        C.n,
        {pair: [new[l] for l in labels] for pair, labels in C.homs.items()},
        {x: new[e] for x, e in C.identity.items()},
        {(new[g], new[f]): new[h] for (g, f), h in table.items()},
    )


@pytest.mark.parametrize("name", [lambda i: i, lambda i: (i, "a")])
def test_labels_are_opaque(name):
    M = HomMatrix.from_rows([[1, 2], [3, 7]])
    W = build_witness(M)
    C = relabel(W, W.table, name)
    assert verify_category(C, M).passed
    p11 = "Pair(0,1,1,1,1)"
    M, table, broken = mutated_witness([[1, 2], [3, 7]], p11, p11, "Identity(0,1)")
    report = verify_category(relabel(broken, table, name), M)
    assert not report.passed
    assert report.closure_failures == [] and report.associativity_failures


def test_failure_cap(monkeypatch):
    n = 6
    # Constant table: every composite is m1, identity laws fail all over.
    C = small_monoid(n, {(g, f): "m1" for g, f in monoid_table(n)})
    monkeypatch.setattr(verifier, "DEFAULT_FAILURE_CAP", 5)
    report = verify_category(C, HomMatrix.from_rows([[n]]))
    assert not report.passed
    assert len(report.identity_failures) == 5
    monkeypatch.setattr(verifier, "DEFAULT_FAILURE_CAP", 1000)
    report = verify_category(C, HomMatrix.from_rows([[n]]))
    assert len(report.identity_failures) > 5


def test_triple_budget_guard(monkeypatch):
    C = small_monoid(4)
    monkeypatch.delenv("CATMAT_TRIPLE_BUDGET", raising=False)
    assert verify_category(C, HomMatrix.from_rows([[4]])).passed
    monkeypatch.setenv("CATMAT_TRIPLE_BUDGET", "10")
    with pytest.raises(TripleBudgetError, match="64 associativity triples exceed the budget of 10"):
        verify_category(C, HomMatrix.from_rows([[4]]))
    monkeypatch.setenv("CATMAT_TRIPLE_BUDGET", "100")
    assert verify_category(C, HomMatrix.from_rows([[4]])).passed
    # A value that is not an integer is an error, not a silent default.
    monkeypatch.setenv("CATMAT_TRIPLE_BUDGET", "abc")
    with pytest.raises(TripleBudgetError, match="CATMAT_TRIPLE_BUDGET='abc'"):
        verify_category(C, HomMatrix.from_rows([[4]]))


def test_triple_budget_comes_before_closure(monkeypatch):
    # Over 50,000 triples and no table at all: the budget, lowered once the
    # category is filled, refuses the work instead of reporting missing
    # composites.
    homs = {
        (0, 0): [f"e{i}" for i in range(2)],
        (0, 1): [f"a{i}" for i in range(30)],
        (1, 1): [f"b{i}" for i in range(30)],
    }
    C = FiniteCategory(2, homs, {0: "e0", 1: "b0"}, [])
    monkeypatch.setenv("CATMAT_TRIPLE_BUDGET", "10")
    with pytest.raises(TripleBudgetError, match="associativity triples exceed the budget of 10"):
        verify_category(C, HomMatrix.from_rows([[2, 30], [0, 30]]))
