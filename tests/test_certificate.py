import functools
import hashlib
import json
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from catmat import (
    CertificateError,
    FiniteCategory,
    HomMatrix,
    build_certificate,
    build_witness,
    decide,
    dump_certificate,
    load_certificate,
    oracle_decide,
    reduce,
    verify_category,
)
from catmat.cli import main


def make_certificate(rows):
    M = HomMatrix.from_rows(rows)
    C = build_witness(M)
    return build_certificate(C, M, reduce(M)[1]), M


def test_round_trip_verifies():
    for rows in ([[1]], [[1, 2], [3, 7]], [[2, 2], [2, 2]], [[1, 1, 2], [1, 1, 2], [0, 0, 3]]):
        data, M = make_certificate(rows)
        # Serialize and reload to prove the JSON itself carries everything.
        claimed, C = load_certificate(json.loads(json.dumps(data)))
        assert claimed == M
        assert verify_category(C, M).passed


def test_certificate_shape():
    data, _ = make_certificate([[1, 2], [3, 7]])
    assert data["matrix"] == {"n": 2, "entries": [[1, 2], [3, 7]]}
    assert data["reduction"] == {"class_of": [0, 1], "representative": [0, 1]}
    assert [o["id"] for o in data["objects"]] == [0, 1]
    assert sum(len(v) for v in data["homs"].values()) == 13
    assert len(data["identities"]) == 2
    assert all(len(row) == 3 for row in data["table"])


def test_tampered_table_fails_verification():
    data, M = make_certificate([[1, 2], [3, 7]])
    victim = next(row for row in data["table"] if row[2].startswith("Pair"))
    # Redirect one composite to the identity of object 1: stays well-formed,
    # no longer a category.
    victim[2] = data["identities"]["1"]
    _, C = load_certificate(data)
    report = verify_category(C, M)
    assert not report.passed


def test_tampered_hom_fails_cardinality():
    data, M = make_certificate([[1, 2], [3, 7]])
    data["homs"]["0,1"] = data["homs"]["0,1"][:1]
    _, C = load_certificate(data)
    report = verify_category(C, M)
    assert not report.passed
    assert (0, 1, 2, 1) in report.cardinality_mismatches


def test_malformed_certificates_rejected():
    data, _ = make_certificate([[1]])
    for mutate in (
        lambda d: d.pop("table"),
        lambda d: d["objects"].append({"id": 5, "class": 0, "local_index": 0}),
        lambda d: d["homs"].update({"nonsense": []}),
        lambda d: d["homs"].update({"0,0": ["X", "X"]}),
        lambda d: d["identities"].clear(),
        lambda d: d["table"].append(["a", "b"]),
        lambda d: d.update(matrix={"n": 1}),
        lambda d: d.update(reduction={}),
        lambda d: d.update(reduction={"class_of": [5, 5, 5], "representative": "x"}),
        lambda d: d.update(reduction={"class_of": [False], "representative": [False]}),
    ):
        broken = json.loads(json.dumps(data))
        mutate(broken)
        with pytest.raises(CertificateError):
            load_certificate(broken)
    with pytest.raises(CertificateError):
        load_certificate(["not", "an", "object"])
    # Object 1 of [[1, 2], [3, 7]] is local index 1 of class 0, not the reverse.
    data, _ = make_certificate([[1, 2], [3, 7]])
    entry = data["objects"][1]
    entry["class"], entry["local_index"] = entry["local_index"], entry["class"]
    with pytest.raises(CertificateError):
        load_certificate(data)


@pytest.mark.parametrize(
    "row", ["g", ["g", "f"], ["g", 5, "h"], ["g", "f", None], [["g"], "f", "h"], ["g", "f", {}]]
)
def test_malformed_table_row_message(row):
    data, _ = make_certificate([[1]])
    data["table"].append(row)
    with pytest.raises(CertificateError) as exc:
        load_certificate(data)
    assert str(exc.value) == "every table row must be three label strings"


def test_table_reports_its_first_bad_row():
    data, _ = make_certificate([[1, 2], [3, 7]])
    g, f, h = data["table"][3]
    duplicate = [g, f, data["identities"]["1"]]
    broken = json.loads(json.dumps(data))
    broken["table"][4:4] = [duplicate, ["a", "b"]]
    with pytest.raises(CertificateError) as exc:
        load_certificate(broken)
    assert str(exc.value) == f"table defines ({g}, {f}) twice"
    broken = json.loads(json.dumps(data))
    broken["table"][4:4] = [["a", "b"], duplicate]
    with pytest.raises(CertificateError) as exc:
        load_certificate(broken)
    assert str(exc.value) == "every table row must be three label strings"


@pytest.mark.parametrize("kind", ["composable", "wrong-hom", "unknown", "foreign", "foreign label"])
def test_table_names_its_first_repeated_pair(kind):
    # The first row for (g, f) fills its cell, leaves a hole with a
    # wrong-hom or unknown composite recorded, or is kept as a foreign
    # pair; any second row for (g, f) must raise, and the message names the
    # first repeat in table order.
    data, _ = make_certificate([[1, 2], [3, 7]])
    table, homs = data["table"], data["homs"]
    where = {label: key for key, labels in homs.items() for label in labels}
    g, f, h = table[3]
    right = h
    if kind == "wrong-hom":
        h = table[3][2] = next(l for l in where if where[l] != where[h])
    elif kind == "unknown":
        h = table[3][2] = "ghost"
    elif kind in ("foreign", "foreign label"):
        # Both in hom(0, 1), so f's target is not g's source.
        g, f = ("ghost" if kind == "foreign label" else homs["0,1"][0]), homs["0,1"][1]
        table.append([g, f, h])
    other = table[0]  # a composable pair with its right composite
    for again in ([g, f, h], [g, f, right]):
        for repeats, named in (([again, other], (g, f)), ([other, again], other[:2])):
            broken = json.loads(json.dumps(data))
            broken["table"] += repeats
            with pytest.raises(CertificateError) as exc:
                load_certificate(broken)
            assert str(exc.value) == "table defines ({}, {}) twice".format(*named)


def test_labels_are_opaque_strings_on_load():
    data, M = make_certificate([[1, 2], [3, 7]])
    _, C = load_certificate(data)
    assert all(isinstance(l, str) for ls in C.homs.values() for l in ls)
    assert verify_category(C, M).passed


# Certificates must stay byte-identical for a fixed input, whatever the label
# classes look like inside the builder; together these two matrices use
# every label kind.
GOLDEN = [
    (
        [[1, 1, 1, 2], [1, 3, 2, 4], [0, 0, 1, 1], [0, 0, 1, 2]],
        "97fd7c8fa15fcb26f71a31cf8bf40fa0ffcdcc2e2175fc202905f396afcd56f9",
    ),
    (
        [[2, 2, 2], [2, 2, 2], [0, 0, 3]],
        "20946dc8a189adb59503fd96dddd25fbaa2956e76363dadc085a64dcfff7701e",
    ),
]


def witness_to_file(tmp_path, k, rows):
    """Run `witness --out` on rows; return the matrix file and the certificate file."""
    matrix = tmp_path / f"m{k}.txt"
    matrix.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
    out = tmp_path / f"cert{k}.json"
    assert main(["witness", str(matrix), "--out", str(out)]) == 0
    return matrix, out


def test_golden_certificates(tmp_path):
    kinds = set()
    for k, (rows, digest) in enumerate(GOLDEN):
        data, _ = make_certificate(rows)
        text = json.dumps(data, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        # What the CLI writes, less its trailing newline, is the same text.
        written = witness_to_file(tmp_path, k, rows)[1].read_bytes()
        assert written.endswith(b"}\n")
        assert hashlib.sha256(written[:-1]).hexdigest() == digest
        kinds.update(re.findall(r"([A-Za-z]+)\(", text))
    assert kinds == {
        "Identity", "Pair", "Collapsed", "Pad", "Infl",
        "CrossBase", "CrossRow", "CrossCol", "CrossExtra",
    }


def reference_rows(C):
    """sorted([g, f, g.f]) for a built category, read off its blocks one
    composite at a time."""
    return sorted(
        [C.homs[y, z][g], C.homs[x, y][f], C.homs[x, z][h]]
        for (x, y, z), rows in C.blocks.items()
        for g, row in enumerate(rows)
        for f, h in enumerate(row)
    )


def dumped(C, M):
    return "".join(dump_certificate(C, M, reduce(M)[1]))


def assert_dump_is_json_dumps(C, M):
    data = build_certificate(C, M, reduce(M)[1])
    assert data["table"] == reference_rows(C)
    text = dumped(C, M)
    assert text == json.dumps(data, indent=2)
    return text


# The 0x0 matrix has empty "homs", "identities" and "table": {}, {} and [].
@pytest.mark.parametrize("rows", [[], [[1]]] + [rows for rows, _ in GOLDEN])
def test_dump_certificate_is_json_dumps(rows):
    M = HomMatrix.from_rows(rows)
    text = assert_dump_is_json_dumps(build_witness(M), M)
    assert ('"table": []' in text) == (rows == [])


# Labels are opaque strings: escapes, non-ASCII and astral characters must
# be quoted as json.dumps quotes them, and they sort apart from their quotes
# ("~" sorts before "é" but after its quote, "\u00e9").
ODD = ['Pa"d\\', "caf\u00e9\n", "\u2218", "\t\U0001d400", "~"]


def relabeled(C):
    """C with the same blocks, its k-th morphism renamed ODD[k % 5] + str(k)."""
    name = {label: f"{ODD[k % len(ODD)]}{k}" for k, label in enumerate(C.place)}
    return FiniteCategory.from_blocks(
        C.n, {xy: [name[l] for l in labels] for xy, labels in C.homs.items()}, C.blocks
    )


def test_dump_certificate_quotes_as_json_dumps():
    M = HomMatrix.from_rows([[1, 2, 2], [3, 7, 7], [3, 7, 7]])
    C = relabeled(build_witness(M))
    assert_dump_is_json_dumps(C, M)
    table = build_certificate(C, M, reduce(M)[1])["table"]
    for position in range(3):  # every odd label kind as g, as f and as g.f
        assert {row[position][0] for row in table} == {odd[0] for odd in ODD}


def test_dump_certificate_sorts_table_by_label_not_by_quote():
    # The table follows the order of the labels, as json.dumps(build_certificate)
    # writes it, not the order of their quotes, which differs here.
    M = HomMatrix.from_rows([[1, 2], [3, 7]])
    C = relabeled(build_witness(M))
    table = build_certificate(C, M, reduce(M)[1])["table"]
    assert sorted(table, key=lambda row: [json.dumps(l) for l in row]) != table
    assert_dump_is_json_dumps(C, M)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 2))
def test_dump_certificate_on_random_accepted(rng, copies):
    # With duplicates the witness is inflated; either way its table is
    # written from the blocks and must be the sorted label-keyed table.
    M = helpers.random_unit_first(rng, rng.randint(1, 3), 3)
    M = helpers.duplicate_objects(rng, M, copies)
    assume(decide(M).exists)
    C = build_witness(M)
    assert C.rows() == sorted([g, f, h] for (g, f), h in C.table.items())
    assert_dump_is_json_dumps(C, M)


def test_label_built_category_certificate_round_trip():
    # An oracle category relabeled "m0", "m1", ... with the same blocks: the
    # certificate's rows must follow label order, and "m10" < "m2" sorts
    # apart from the oracle's integer order.
    M = HomMatrix.from_rows([[1, 2], [3, 7]])
    D = oracle_decide(M).category
    name = {label: f"m{label}" for label in D.place}
    C = FiniteCategory.from_blocks(
        D.n,
        {pair: [name[l] for l in labels] for pair, labels in D.homs.items()},
        D.blocks,
    )
    assert C.identity == {x: name[e] for x, e in D.identity.items()}
    assert C.table == {(name[g], name[f]): name[h] for (g, f), h in D.table.items()}
    data = build_certificate(C, M, reduce(M)[1])
    assert data["table"] == sorted([g, f, h] for (g, f), h in C.table.items())
    assert data["table"] != [[name[g], name[f], name[h]] for (g, f), h in sorted(D.table.items())]
    claimed, L = load_certificate(json.loads(assert_dump_is_json_dumps(C, M)))
    assert claimed == M
    assert verify_category(L, M).passed


def test_witness_renders_no_label_table(tmp_path, monkeypatch):
    render = FiniteCategory.__dict__["table"]
    calls = []

    def counted(C):
        calls.append(C.n)
        return render.func(C)

    counting = functools.cached_property(counted)
    counting.__set_name__(FiniteCategory, "table")
    monkeypatch.setattr(FiniteCategory, "table", counting)
    rows = [[1, 2, 2], [3, 7, 7], [3, 7, 7]]  # objects 1 and 2 are duplicates
    matrix, out = witness_to_file(tmp_path, 0, rows)
    assert calls == []
    assert main(["verify", str(out), str(matrix)]) == 0
    assert calls == []  # verify through main never renders a label table
    # One entry per composable pair: the sum of the entries of M squared.
    assert len(build_witness(HomMatrix.from_rows(rows)).table) == 579
    assert calls == [3]  # asked for, the inflated witness renders it once


def test_witness_stdout_and_out_file_are_identical_bytes(tmp_path, capsys):
    for k, (rows, _) in enumerate(GOLDEN + [([], None)]):
        matrix, out = witness_to_file(tmp_path, k, rows)
        capsys.readouterr()
        assert main(["witness", str(matrix)]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()
