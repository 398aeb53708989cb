import contextlib
import errno
import itertools
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
import types

import pytest

import catmat.batch
import catmat.cli
import catmat.decider
from catmat.cli import build_parser, main


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_decide_exists(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1 2\n3 7\n")
    assert main(["decide", path]) == 0
    assert capsys.readouterr().out.strip() == "EXISTS"


def test_decide_absent_explains(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1 2\n3 6\n")
    assert main(["decide", "--explain", path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("ABSENT")
    assert "required>=7" in out and "actual=6" in out
    assert "u-diagonal" in out


def test_decide_json(tmp_path, capsys):
    path = write(tmp_path, "m.txt", '{"n": 2, "entries": [[1,2],[3,6]]}')
    assert main(["decide", "--json", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["decision"] == "absent"
    assert payload["reason"]["kind"] == "UDiagonalFail"
    assert payload["reason"]["required"] == 7


def test_decide_via_submatrices(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1 2\n3 6\n")
    assert main(["decide", "--via-submatrices", path]) == 1
    assert "submatrix [0, 1]" in capsys.readouterr().out


def test_decide_parse_error(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1 x\n3 7\n")
    assert main(["decide", path]) == 2
    assert "error" in capsys.readouterr().err


def test_decide_missing_file(capsys):
    assert main(["decide", "/nonexistent/matrix.txt"]) == 2


def test_batch(tmp_path, capsys):
    write(tmp_path, "a.txt", "1 2\n3 7\n")
    write(tmp_path, "b.txt", "1 2\n3 6\n")
    assert main(["decide", "--batch", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("a.txt: EXISTS")
    assert out[1].startswith("b.txt: ABSENT")

    write(tmp_path, "c.txt", "not a matrix")
    assert main(["decide", "--batch", str(tmp_path)]) == 2
    assert "c.txt: ERROR" in capsys.readouterr().out

    all_good = tmp_path / "good"
    all_good.mkdir()
    write(all_good, "a.txt", "1\n")
    assert main(["decide", "--batch", str(all_good)]) == 0


def test_batch_via_submatrices_names_each_window(tmp_path, capsys):
    # A reason's classes and coordinates are relative to its window, so a
    # batch line names the window, as the one-file command does, and a
    # batch JSON entry has the one-file command's fields.
    write(tmp_path, "a.txt", "1 2\n3 6\n")
    write(tmp_path, "s.txt", "2 0 0\n0 1 2\n0 3 6\n")
    assert main(["decide", "--batch", str(tmp_path), "--via-submatrices"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a.txt: ABSENT (UDiagonalFail objects=[1] required>=7 actual=6; submatrix [0, 1])",
        "s.txt: ABSENT (UDiagonalFail objects=[2] required>=7 actual=6; submatrix [1, 2])",
    ]
    assert main(["decide", "--batch", str(tmp_path), "--via-submatrices", "--json"]) == 1
    batch = json.loads(capsys.readouterr().out)
    for entry in batch:
        assert main(["decide", "--via-submatrices", "--json", str(tmp_path / entry["file"])]) == 1
        assert entry == {"file": entry["file"], **json.loads(capsys.readouterr().out)}
    assert [entry["subset"] for entry in batch] == [[0, 1], [1, 2]]
    # Without --via-submatrices there is no window to name.
    assert main(["decide", "--batch", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a.txt: ABSENT (UDiagonalFail objects=[1] required>=7 actual=6)",
        "s.txt: ABSENT (UDiagonalFail objects=[2] required>=7 actual=6)",
    ]


def test_decide_json_fields(tmp_path, capsys):
    dup = write(tmp_path, "dup.txt", "1 2 2\n3 7 7\n3 7 7\n")
    assert main(["decide", "--json", dup]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"decision": "exists", "reason": None, "reduced_size": 2}
    path = write(tmp_path, "m.txt", "1 2\n3 6\n")
    assert main(["decide", "--json", "--via-submatrices", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["subset"] == [0, 1] and "reduced_size" not in payload
    assert main(["decide", "--json", "--explain", path]) == 1
    conditions = json.loads(capsys.readouterr().out)["conditions"]
    assert any(entry["condition"] == "u-diagonal" for entry in conditions)
    assert main(["report", "--json", path]) == 1
    assert json.loads(capsys.readouterr().out) == conditions


def test_decide_needs_a_matrix_or_a_readable_batch(tmp_path, capsys):
    assert main(["decide"]) == 2
    assert "a matrix file or --batch is required" in capsys.readouterr().err
    assert main(["decide", "--batch", str(tmp_path / "missing")]) == 2
    assert "cannot read batch directory" in capsys.readouterr().err


def test_report(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1\n")
    assert main(["report", path]) == 0
    out = capsys.readouterr().out
    assert "reflexivity" in out and "PASS" in out


def test_witness_verify_round_trip(tmp_path, capsys):
    matrix = write(tmp_path, "m.txt", "1 2\n3 7\n")
    cert = str(tmp_path / "cert.json")
    assert main(["witness", matrix, "--out", cert]) == 0
    capsys.readouterr()
    assert main(["verify", cert, matrix]) == 0
    out = capsys.readouterr().out
    assert out.startswith("VERIFIED")
    assert "13 morphisms" in out


def test_witness_stdout_is_certificate(tmp_path, capsys):
    matrix = write(tmp_path, "m.txt", "1\n")
    assert main(["witness", matrix]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["matrix"] == {"n": 1, "entries": [[1]]}
    assert len(data["homs"]["0,0"]) == 1


def test_witness_absent(tmp_path, capsys):
    matrix = write(tmp_path, "m.txt", "0\n")
    assert main(["witness", matrix]) == 1
    assert "ABSENT" in capsys.readouterr().err


@contextlib.contextmanager
def address_space_headroom(mib):
    """Cap this process's address space at its current size plus `mib` MiB,
    where Linux reports that size, so that a runaway allocation raises
    MemoryError instead of exhausting the host's memory."""
    try:
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        yield
        return
    old = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + mib * 2**20
    if old[1] != resource.RLIM_INFINITY:
        cap = min(cap, old[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, old[1]))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, old)


def test_witness_refuses_over_triple_budget_before_building(tmp_path, capsys):
    # 64,008,000,920,054 triples: hom(1,1) alone would make a 40000x40000
    # block.  The refusal must come from arithmetic on the matrix, before
    # any label or block exists.
    matrix = write(tmp_path, "m.txt", "1 2\n3 40000\n")
    out = tmp_path / "cert.json"
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with address_space_headroom(512):
        code = main(["witness", matrix, "--out", str(out)])
    grown_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kib
    err = capsys.readouterr().err
    assert code == 2, err
    assert "64008000920054 associativity triples exceed the budget of 100000000" in err
    assert grown_kib < 32 * 1024
    assert not out.exists()


def test_oracle_refuses_over_triple_budget_before_building(tmp_path, capsys):
    # 40,006 morphisms would make a table of 1,600,480,036 cells before the
    # assignment budget applies; the refusal must come from arithmetic first.
    matrix = write(tmp_path, "m.txt", "1 2\n3 40000\n")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with address_space_headroom(512):
        code = main(["oracle", matrix])
    grown_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kib
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert "1600480036 oracle table cells exceed the budget of 100000000" in captured.err
    assert captured.out == ""
    assert grown_kib < 32 * 1024


def test_window_scan_refuses_over_budget_before_any_window(tmp_path, capsys, monkeypatch):
    # Ten objects make 10 + 45 + 120 + 210 = 385 windows of size <= 4.  The
    # refusal must come from arithmetic on n, before any window is walked.
    matrix = write(tmp_path, "m.txt", "1 1 1 1 1 1 1 1 1 1\n" * 10)
    walked = []
    real = catmat.decider._Walk
    monkeypatch.setattr(catmat.decider, "_Walk", lambda rows: walked.append(rows) or real(rows))
    monkeypatch.setenv("CATMAT_TRIPLE_BUDGET", "384")
    code = main(["decide", "--via-submatrices", matrix])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert "385 submatrix windows exceed the budget of 384" in captured.err
    assert captured.out == ""
    assert walked == []
    # In a batch the refusal is that file's ERROR line; the others are decided.
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "big.txt").write_text("1 1 1 1 1 1 1 1 1 1\n" * 10)
    (batch / "small.txt").write_text("1 2\n3 7\n")
    assert main(["decide", "--batch", str(batch), "--via-submatrices"]) == 2
    assert capsys.readouterr().out == (
        "big.txt: ERROR 385 submatrix windows exceed the budget of 384\nsmall.txt: EXISTS\n"
    )
    monkeypatch.setenv("CATMAT_TRIPLE_BUDGET", "385")
    assert main(["decide", "--via-submatrices", matrix]) == 0
    assert capsys.readouterr().out == "EXISTS\n"


def test_verify_refuses_composable_pairs_over_budget(tmp_path, capsys, monkeypatch):
    # hom(0, 1) and hom(1, 2) with 11 labels each and no hom-set on the
    # diagonal: 121 composable pairs but no triple.  The loader must charge
    # the pairs against the budget before it allocates a row for them.
    cert = tmp_path / "cert.json"
    main(["witness", write(tmp_path, "m.txt", "1 1 1\n0 1 1\n0 0 1\n"), "--out", str(cert)])
    data = json.loads(cert.read_text())
    data.update(homs={"0,1": [f"a{i}" for i in range(11)], "1,2": [f"b{i}" for i in range(11)]})
    data.update(table=[])
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    monkeypatch.setenv("CATMAT_TRIPLE_BUDGET", "120")
    assert main(["verify", str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: 121 composable pairs exceed the budget of 120\n"
    assert captured.out == ""
    # At the budget it loads, and the sizes and identities fail.
    monkeypatch.setenv("CATMAT_TRIPLE_BUDGET", "121")
    assert main(["verify", str(cert)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAILED failed: 6 cardinality, 3 identity, 32 closure (0 triples checked)"


def test_verify_against_wrong_matrix(tmp_path, capsys):
    matrix = write(tmp_path, "m.txt", "1 2\n3 7\n")
    other = write(tmp_path, "other.txt", "1 2\n3 8\n")
    cert = str(tmp_path / "cert.json")
    main(["witness", matrix, "--out", cert])
    capsys.readouterr()
    assert main(["verify", cert, other]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAILED")
    assert "cardinality" in out


def test_verify_names_a_composite_outside_every_hom_set_unknown(tmp_path, capsys):
    main(["witness", write(tmp_path, "m.txt", "1\n"), "--out", str(tmp_path / "cert.json")])
    capsys.readouterr()
    data = json.loads((tmp_path / "cert.json").read_text())
    data.update(homs={"0,0": ["e"]}, identities={"0": "e"}, table=[["e", "e", "x"]])
    cert = write(tmp_path, "bad.json", json.dumps(data))
    assert main(["verify", cert]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAILED failed: 2 identity, 1 closure (1 triples checked)"
    assert lines[1:] == [
        "  identity: (0, 'e')",
        "  identity: (0, 'e')",
        "  closure: ('unknown', 'e', 'e', 'x')",
    ]


def test_verify_json(tmp_path, capsys):
    matrix = write(tmp_path, "m.txt", "1 2\n3 7\n")
    cert = tmp_path / "cert.json"
    main(["witness", matrix, "--out", str(cert)])
    capsys.readouterr()
    assert main(["verify", "--json", str(cert)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload.pop("passed") is True and payload.pop("triples_checked") > 0
    assert payload == {
        "cardinality_mismatches": [],
        "identity_failures": [],
        "closure_failures": [],
        "associativity_failures": [],
    }
    # One composite moved to another member of its hom-set.
    data = json.loads(cert.read_text())
    hom = {label: labels for labels in data["homs"].values() for label in labels}
    row = next(r for r in data["table"] if len(hom[r[2]]) > 1)
    row[2] = next(label for label in hom[row[2]] if label != row[2])
    cert.write_text(json.dumps(data))
    assert main(["verify", "--json", str(cert)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False
    failures = payload["identity_failures"] + payload["associativity_failures"]
    assert failures and all(isinstance(v, str) for entry in failures for v in entry)


def mutate_certificate(data, how):
    if how == "ragged":
        data["matrix"]["entries"][1].pop()
    elif how == "not acceptable":
        data["matrix"]["entries"][0][0] = 0
    elif how == "negative n":
        data["matrix"]["n"] = -1
    elif how == "no entries":
        del data["matrix"]["entries"]
    elif how == "rows not lists":
        data["matrix"]["entries"] = [1, 2]
    elif how == "hom key out of range":
        data["homs"]["2,0"] = ["x"]
    elif how == "empty hom key out of range":
        data["homs"]["2,2"] = []
    elif how == "label twice in one hom-set":
        data["homs"]["1,1"].append(data["homs"]["1,1"][0])
    elif how == "hom key with no objects":
        data.update(
            matrix={"n": 0, "entries": []},
            reduction={"class_of": [], "representative": []},
            objects=[],
            homs={"0,0": ["x"]},
            identities={},
            table=[],
        )
    else:
        data["homs"]["1,1"][0] = data["homs"]["0,1"][0]


@pytest.mark.parametrize(
    "how, message",
    [
        ("ragged", "bad matrix in certificate: row 1 has 1 entries, expected 2"),
        ("not acceptable", '"matrix" is not acceptable, so it has no classes'),
        ("one label in two hom-sets", "label appears twice in the hom-sets"),
        ("negative n", 'bad matrix in certificate: "n" must be a nonnegative integer, got -1'),
        ("no entries", 'bad matrix in certificate: JSON matrix needs keys "n" and "entries"'),
        ("rows not lists", 'bad matrix in certificate: "entries" must be a list of rows'),
        ("hom key out of range", "hom key (2, 0) is outside objects 0..1"),
        ("empty hom key out of range", "hom key (2, 2) is outside objects 0..1"),
        ("label twice in one hom-set", "label appears twice in the hom-sets"),
        ("hom key with no objects", "hom key (0, 0) is outside objects (there are none)"),
    ],
)
def test_structurally_broken_certificate_is_bad_input(tmp_path, capsys, how, message):
    matrix = write(tmp_path, "m.txt", "1 2\n3 7\n")
    cert = tmp_path / "cert.json"
    main(["witness", matrix, "--out", str(cert)])
    data = json.loads(cert.read_text())
    mutate_certificate(data, how)
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(cert)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("n", [True, 1.0])
def test_certificate_size_that_is_not_an_integer_is_bad_input(tmp_path, capsys, n):
    # Both equal 1, the size of the one-object certificate they replace.
    cert = tmp_path / "cert.json"
    main(["witness", write(tmp_path, "m.txt", "1\n"), "--out", str(cert)])
    data = json.loads(cert.read_text())
    data["matrix"]["n"] = n
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(cert)]) == 2
    captured = capsys.readouterr()
    message = f'bad matrix in certificate: "n" must be a nonnegative integer, got {n!r}'
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_integers_over_the_digit_limit_are_bad_input(tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    digits = "1" * (limit + 1)
    matrix = write(tmp_path, "m.json", f'{{"n": 1, "entries": [[{digits}]]}}')
    cert = write(tmp_path, "cert.json", f'{{"matrix": {{"n": 1, "entries": [[{digits}]]}}}}')
    text = write(tmp_path, "m.txt", f"{digits}\n")
    for argv, where in [
        (["decide", matrix], "JSON matrix"),
        (["oracle", matrix], "JSON matrix"),
        (["verify", cert], "certificate"),
        (["decide", text], "row 0"),
    ]:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        message = f"{where} has an integer longer than the limit of {limit} digits"
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


def test_verify_truncated_certificate(tmp_path, capsys):
    cert = write(tmp_path, "cert.json", '{"matrix": {"n": 1, "entries"')
    matrix = write(tmp_path, "m.txt", "1\n")
    assert main(["verify", cert, matrix]) == 2
    cert = write(tmp_path, "cert2.json", '{"matrix": {"n": 1, "entries": [[1]]}}')
    assert main(["verify", cert, matrix]) == 2


def test_deeply_nested_json_is_bad_input(tmp_path, capsys):
    # json.loads runs out of stack on these; that must not look like a verdict.
    cert = write(tmp_path, "cert.json", "[" * 100_000)
    assert main(["verify", cert]) == 2
    assert "certificate is not valid JSON" in capsys.readouterr().err
    matrix = write(tmp_path, "m.json", '{"n": 1, "entries": ' + "[" * 100_000)
    assert main(["decide", matrix]) == 2
    assert "JSON matrix is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, key, bad, keep",
    [
        ("homs", "1,0", "²,0", False),
        ("identities", "1", "²", False),
        ("homs", "1,0", "01,0", True),
        ("identities", "1", "01", True),
        ("homs", "0,0", "-0,0", False),
    ],
)
def test_non_canonical_certificate_keys_are_bad_input(tmp_path, capsys, field, key, bad, keep):
    # Only the spelling build_certificate writes is accepted, so no key can
    # crash int() or stand in for another under a second spelling.
    matrix = write(tmp_path, "m.txt", "1 2\n3 7\n")
    cert = tmp_path / "cert.json"
    main(["witness", matrix, "--out", str(cert)])
    data = json.loads(cert.read_text())
    data[field][bad] = data[field][key] if keep else data[field].pop(key)
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(cert)]) == 2
    assert f"key {bad!r}" in capsys.readouterr().err


def test_verify_defaults_to_embedded_matrix(tmp_path, capsys):
    matrix = write(tmp_path, "m.txt", "2 2\n2 2\n")
    cert = str(tmp_path / "cert.json")
    main(["witness", matrix, "--out", cert])
    capsys.readouterr()
    assert main(["verify", cert]) == 0


def test_oracle_command(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1 1\n1 2\n")
    assert main(["oracle", path]) == 0
    assert capsys.readouterr().out.startswith("EXISTS")

    path = write(tmp_path, "no.txt", "1 2\n1 1\n")
    assert main(["oracle", path]) == 1

    path = write(tmp_path, "hard.txt", "4 4\n4 4\n")
    assert main(["oracle", "--budget", "50", path]) == 3
    assert capsys.readouterr().out.startswith("ABSENT")  # the no.txt output


def test_parser_reused_without_leaking_flags(tmp_path, capsys):
    assert build_parser() is build_parser()
    path = write(tmp_path, "m.txt", "1 2\n3 6\n")
    assert main(["decide", "--explain", path]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert main(["decide", path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("ABSENT") and out.count("\n") == 1

    hard = write(tmp_path, "hard.txt", "4 4\n4 4\n")
    assert main(["oracle", "--budget", "50", hard]) == 3
    capsys.readouterr()
    assert main(["oracle", path]) in (0, 1)
    assert not capsys.readouterr().out.startswith("UNKNOWN")


def test_oracle_json(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "2\n")
    assert main(["oracle", "--json", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"decision": "yes", "assignments": payload["assignments"]}


def test_stdin_matrix(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"1 1\n0 1\n")))
    assert main(["decide", "-"]) == 0
    assert capsys.readouterr().out.strip() == "EXISTS"


def undecodable_stdin(data):
    """stdin as Python sets it up under a C, POSIX or C.UTF-8 locale: bytes
    that are not UTF-8 arrive as lone surrogates instead of raising."""
    import io

    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def test_undecodable_matrix_is_bad_input(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1 2\n3 7\xff\n")
    assert main(["decide", str(bad)]) == 2
    assert "is not UTF-8 text" in capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", undecodable_stdin(b"1 2\n3 7\xff\n"))
    assert main(["decide", "-"]) == 2
    assert "is not UTF-8 text" in capsys.readouterr().err


def test_undecodable_certificate_is_bad_input(tmp_path, capsys, monkeypatch):
    cert = tmp_path / "cert.json"
    assert main(["witness", write(tmp_path, "m.txt", "1\n"), "--out", str(cert)]) == 0
    data = cert.read_bytes().replace(b"Identity(0,0)", b"Identity(0,0)\xff")
    cert.write_bytes(data)
    assert main(["verify", str(cert)]) == 2
    assert "is not UTF-8 text" in capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", undecodable_stdin(data))
    assert main(["verify", "-"]) == 2
    assert "is not UTF-8 text" in capsys.readouterr().err


def test_undecodable_file_in_batch_is_its_own_error(tmp_path, capsys):
    write(tmp_path, "a.txt", "1 2\n3 7\n")
    (tmp_path / "b.txt").write_bytes(b"\xff\xfe\n")
    write(tmp_path, "c.txt", "1 2\n3 6\n")
    assert main(["decide", "--batch", str(tmp_path)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "a.txt: EXISTS"
    assert out[1].startswith("b.txt: ERROR") and "is not UTF-8 text" in out[1]
    assert out[2].startswith("c.txt: ABSENT")


def test_batch_clashes_are_usage_errors(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1\n")
    assert main(["decide", "--batch", str(tmp_path), "--explain"]) == 2
    assert "--batch cannot be combined with --explain" in capsys.readouterr().err
    assert main(["decide", "--batch", str(tmp_path), path]) == 2
    assert "--batch cannot be combined with a matrix file" in capsys.readouterr().err
    assert main(["decide", "--batch", str(tmp_path), "--via-submatrices"]) == 0


def test_negative_oracle_budget_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "1 2\n3 6\n")
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--budget", "-5", path])
    assert exc.value.code == 2
    assert "must be nonnegative, got -5" in capsys.readouterr().err
    assert main(["oracle", "--budget", "0", path]) == 3


# Every command and flag form: main dispatches to the subparser in one pass,
# and must agree with argparse's own two-pass parse of the same argv.
DISPATCH_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["nope", "m.txt"],
    ["decide", "m.txt"],
    ["decide"],
    ["decide", "m.txt", "--explain", "--via-submatrices", "--json"],
    ["decide", "--batch", "d", "--via-submatrices"],
    ["decide", "--batch=d", "--jso"],
    ["decide", "--", "m.txt"],
    ["decide", "--", "-m"],
    ["decide", "--explain", "--", "-"],
    ["decide", "m.txt", "extra"],
    ["decide", "m.txt", "extra", "more"],
    ["decide", "-h"],
    ["decide", "m.txt", "--help"],
    ["report", "m.txt", "--jso"],
    ["report"],
    ["report", "--", "-m"],
    ["report", "m.txt", "extra"],
    ["report", "--help"],
    ["witness", "m.txt", "--o", "c.json"],
    ["witness", "--out=c.json", "-"],
    ["witness"],
    ["witness", "m.txt", "extra", "more"],
    ["witness", "-h"],
    ["verify", "c.json"],
    ["verify", "c.json", "m.txt", "--jso"],
    ["verify"],
    ["verify", "--", "c.json", "-m"],
    ["verify", "c.json", "m.txt", "extra"],
    ["verify", "--help"],
    ["oracle", "m.txt", "--budget=0"],
    ["oracle", "--budget", "7", "--jso", "m.txt"],
    ["oracle", "m.txt", "--budget", "-5"],
    ["oracle", "m.txt", "--budget", "abc"],
    ["oracle", "m.txt", "--budget"],
    ["oracle", "--", "-m"],
    ["oracle", "m.txt", "--o"],
    ["oracle", "m.txt", "extra"],
    ["oracle", "m.txt", "extra", "more"],
    ["oracle"],
    ["oracle", "-h"],
]


@pytest.fixture
def recorded_commands():
    """Every command's `fn` replaced by one that records its namespace."""
    seen = []

    def record(args):
        seen.append(args)
        return 0

    commands = catmat.cli._parsers()[1]
    original = {name: p.get_default("fn") for name, p in commands.items()}
    for p in commands.values():
        p.set_defaults(fn=record)
    try:
        yield seen
    finally:
        for name, p in commands.items():
            p.set_defaults(fn=original[name])


def parse_outcome(parse, argv, capsys):
    """The namespace `parse` returns, or the code, stdout and stderr of its exit."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        out = capsys.readouterr()
        return ("exit", exc.code, out.out, out.err)
    return ("namespace", args)


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=" ".join)
def test_one_pass_dispatch_matches_argparse(capsys, recorded_commands, argv):
    def dispatched(argv):
        assert main(list(argv)) == 0
        return recorded_commands.pop()

    want = parse_outcome(build_parser().parse_args, list(argv), capsys)
    got = parse_outcome(dispatched, argv, capsys)
    assert got == want
    assert not recorded_commands


def newline_forms(text):
    """text with LF, CRLF and CR line endings, as bytes."""
    data = text.encode()
    return [data, data.replace(b"\n", b"\r\n"), data.replace(b"\n", b"\r")]


MATRIX_ARGVS = (["decide", "--explain"], ["decide", "--json"], ["report"], ["witness"], ["oracle"])


def input_outcome(tmp_path, capsys, monkeypatch, argv, data):
    """(exit code, stdout) of main(argv) on `data` as its last argument's
    file, checked to be the same as on `data` through stdin."""
    import io

    path = tmp_path / "input"
    path.write_bytes(data)
    code = main(argv + [str(path)])
    by_file = (code, capsys.readouterr().out)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = main(argv + ["-"])
    assert (code, capsys.readouterr().out) == by_file
    return by_file


@pytest.mark.parametrize(
    "text",
    [
        "1 2\n3 7\n",
        "1 2\n3 6\n",
        '{"n": 2,\n "entries": [[1, 2],\n  [3, 7]]}\n',
        '{"n": 3,\n "entries": [[2, 0, 0], [0, 1, 2],\n  [0, 3, 6]]}\n',
    ],
)
def test_crlf_and_cr_input_reads_as_lf(tmp_path, capsys, monkeypatch, text):
    for argv in MATRIX_ARGVS:
        lf, crlf, cr = (input_outcome(tmp_path, capsys, monkeypatch, argv, data)
                        for data in newline_forms(text))
        assert crlf == lf and cr == lf


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


@pytest.mark.parametrize("text", ["1 2\n3 7\n", "1 2\n3 6\n", '{"n": 2, "entries": [[1, 2], [3, 7]]}\n'])
def test_a_byte_order_mark_is_dropped_from_a_matrix(tmp_path, capsys, monkeypatch, text):
    for argv in MATRIX_ARGVS:
        plain = input_outcome(tmp_path, capsys, monkeypatch, argv, text.encode())
        assert input_outcome(tmp_path, capsys, monkeypatch, argv, BOM + text.encode()) == plain
    outcomes = []
    for data in (text.encode(), BOM + text.encode()):
        d = tmp_path / ("bom" if data.startswith(BOM) else "plain")
        d.mkdir()
        (d / "m").write_bytes(data)
        outcomes.append((main(["decide", "--batch", str(d)]), capsys.readouterr().out))
    assert outcomes[1] == outcomes[0]
    assert outcomes[0][0] in (0, 1)


def test_a_byte_order_mark_is_dropped_from_a_certificate(tmp_path, capsys, monkeypatch):
    cert = tmp_path / "cert.json"
    assert main(["witness", write(tmp_path, "m.txt", "1 2 2\n3 7 7\n3 7 7\n"), "--out", str(cert)]) == 0
    capsys.readouterr()
    data = cert.read_bytes()
    plain = input_outcome(tmp_path, capsys, monkeypatch, ["verify"], data)
    assert plain[0] == 0 and plain[1].startswith("VERIFIED")
    assert input_outcome(tmp_path, capsys, monkeypatch, ["verify"], BOM + data) == plain


def test_crlf_certificate_verifies(tmp_path, capsys, monkeypatch):
    import io

    cert = tmp_path / "cert.json"
    assert main(["witness", write(tmp_path, "m.txt", "1 2 2\n3 7 7\n3 7 7\n"), "--out", str(cert)]) == 0
    data = cert.read_bytes().replace(b"\n", b"\r\n")
    cert.write_bytes(data)
    capsys.readouterr()
    assert main(["verify", str(cert)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("VERIFIED")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert main(["verify", "-"]) == 0
    assert capsys.readouterr().out == out


def test_internal_error_is_not_a_verdict(tmp_path, capsys, monkeypatch):
    def crash(M):
        raise KeyError("lost")

    monkeypatch.setattr("catmat.decider.decide", crash)
    path = write(tmp_path, "m.txt", "1 2\n3 7\n")
    assert main(["decide", path]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip() == "internal error: KeyError: 'lost'"


# --batch on several CPUs: each case runs once on the CPUs of a monkeypatched
# affinity mask and once on a mask of one CPU, which forks no child.

def batch_dir(tmp_path):
    """EXISTS, ABSENT and every kind of ERROR file, in one directory."""
    d = tmp_path / "mixed"
    d.mkdir()
    for name, text in [
        ("a.txt", "1 2\n3 7\n"),
        ("b.txt", "1 2\n3 6\n"),
        ("c.json", '{"n": 3, "entries": [[2,0,0],[0,1,2],[0,3,6]]}'),
        ("d.txt", "not a matrix"),
        ("e.txt", "1 1 1 1 1 1 1 1 1 1\n" * 10),
        ("f.txt", "1\n"),
        ("g.txt", "2 2 0\n0 2 2\n0 0 2\n"),
        ("h.txt", "1 2 2\n3 7 7\n3 7 7\n"),
    ]:
        (d / name).write_text(text)
    (d / "u.txt").write_bytes(b"\xff\xfe\n")
    return d


def batch_run(argv, capsys, cpus):
    """(exit code, stdout, stderr, forks) of main(argv) on `cpus` CPUs."""
    forks = []
    real_fork = os.fork
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        mp.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        code = main(argv)
        out, err = capsys.readouterr()
    # No child outlives main.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, out, err, len(forks)


def assert_batch_equivalent(argv, capsys, cpus, forks):
    parallel = batch_run(argv, capsys, cpus)
    serial = batch_run(argv, capsys, 1)
    assert serial[3] == 0 and parallel[3] == forks
    assert parallel[:3] == serial[:3]
    return serial[:3]


@pytest.mark.parametrize("flags", [[], ["--json"], ["--via-submatrices"], ["--json", "--via-submatrices"]])
def test_parallel_batch_is_the_serial_batch(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.setenv("CATMAT_TRIPLE_BUDGET", "384")
    d = str(batch_dir(tmp_path))
    code, out, err = assert_batch_equivalent(["decide", "--batch", d, *flags], capsys, 3, 2)
    assert code == 2 and err == ""
    listed = [e["file"] for e in json.loads(out)] if "--json" in flags else [
        line.split(":")[0] for line in out.splitlines()]
    assert listed == sorted(os.listdir(d))
    if "--via-submatrices" in flags and "--json" not in flags:
        assert "e.txt: ERROR 385 submatrix windows exceed the budget of 384\n" in out


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_parallel_batch_of_no_file_or_one_file(tmp_path, capsys, monkeypatch, flags):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, err = assert_batch_equivalent(["decide", "--batch", str(empty), *flags],
                                             capsys, 4, 0)
    assert (code, out, err) == (0, "[]\n" if flags else "", "")
    one = tmp_path / "one"
    one.mkdir()
    (one / "m.txt").write_text("1 2\n3 6\n")
    code, out, _ = assert_batch_equivalent(["decide", "--batch", str(one), *flags],
                                           capsys, 4, 0)
    assert code == 1 and "ABSENT" in out.upper()


def test_parallel_batch_with_more_cpus_than_files(tmp_path, capsys, monkeypatch):
    for name in "abc":
        write(tmp_path, name + ".txt", "1 2\n3 7\n")
    code, out, _ = assert_batch_equivalent(["decide", "--batch", str(tmp_path)],
                                           capsys, 8, 2)
    assert (code, out) == (0, "a.txt: EXISTS\nb.txt: EXISTS\nc.txt: EXISTS\n")


@pytest.mark.parametrize("crash", ["g.txt", "h.txt"])  # this process's share, a child's
def test_batch_crash_in_any_share_is_the_serial_internal_error(tmp_path, capsys, monkeypatch, crash):
    d = batch_dir(tmp_path)
    rows = (d / crash).read_text()
    real = catmat.decider.decide

    def decide(M):
        if "".join(" ".join(map(str, row)) + "\n" for row in M.entries) == rows:
            raise ValueError("boom")
        return real(M)

    monkeypatch.setattr(catmat.decider, "decide", decide)
    code, out, err = assert_batch_equivalent(["decide", "--batch", str(d)], capsys, 3, 2)
    assert code == 4 and err == "internal error: ValueError: boom\n"
    before = sorted(name for name in os.listdir(d) if name < crash)
    assert [line.split(":")[0] for line in out.splitlines()] == before


@pytest.mark.parametrize("fault", ["exit", "signal", "truncated", "late"])
def test_batch_child_without_a_whole_share_is_an_internal_error(tmp_path, capsys, monkeypatch, fault):
    d = str(batch_dir(tmp_path))
    parent = os.getpid()
    real = catmat.batch._decide_share

    def share(args, names):
        if os.getpid() != parent and fault == "exit":
            os._exit(3)
        if os.getpid() != parent and fault == "signal":
            os.kill(os.getpid(), signal.SIGKILL)
        return real(args, names)

    monkeypatch.setattr(catmat.batch, "_decide_share", share)
    if fault == "late":  # the whole share is sent, then the child fails
        real_exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: real_exit(5))
    if fault == "truncated":
        monkeypatch.setattr(catmat.batch, "json", types.SimpleNamespace(
            dumps=lambda obj: json.dumps(obj)[:-1], loads=json.loads))
    code, out, err, forks = batch_run(["decide", "--batch", d], capsys, 2)
    status = {"exit": 3, "signal": -signal.SIGKILL, "truncated": 0, "late": 5}[fault]
    assert (code, out, forks) == (4, "", 1)
    assert err.startswith("internal error: RuntimeError: batch worker ")
    assert err.endswith(f" ended with status {status} without sending its share\n")


def test_batch_decides_a_share_it_cannot_fork_for_itself(tmp_path, capsys, monkeypatch):
    d = str(batch_dir(tmp_path))
    real_fork, real_pipe = os.fork, os.pipe
    calls = []
    pipes = []

    def fork():
        calls.append(1)
        if len(calls) == 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(real_pipe()) or pipes[-1])
    parallel = batch_run(["decide", "--batch", d], capsys, 4)
    serial = batch_run(["decide", "--batch", d], capsys, 1)
    assert parallel[3] == 3 and len(calls) == 3
    assert parallel[:3] == serial[:3]
    # Both ends of every pipe are closed, the failed fork's included.
    assert len(pipes) == 3
    for fd in itertools.chain(*pipes):
        with pytest.raises(OSError):
            os.fstat(fd)


def test_interrupted_batch_kills_and_reaps_its_children(tmp_path, capsys, monkeypatch):
    d = str(batch_dir(tmp_path))
    parent = os.getpid()
    real = catmat.batch._decide_share

    def share(args, names):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return real(args, names)

    monkeypatch.setattr(catmat.batch, "_decide_share", share)
    t = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        batch_run(["decide", "--batch", d], capsys, 3)
    assert time.perf_counter() - t < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_batch_forks_no_child_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert catmat.batch._batch_workers(10) == 4
    assert catmat.batch._batch_workers(2) == 2
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert catmat.batch._batch_workers(10) == 1
    finally:
        stop.set()
        thread.join()
    monkeypatch.delattr(os, "fork")
    assert catmat.batch._batch_workers(10) == 1


def test_batch_skips_subdirectories_and_follows_symlinks(tmp_path, capsys, monkeypatch):
    d = tmp_path / "batch"
    d.mkdir()
    write(d, "a.txt", "1 2\n3 7\n")
    (d / "sub").mkdir()
    write(d / "sub", "x.txt", "1 2\n3 6\n")
    outside = write(tmp_path, "outside.txt", "1 2\n3 6\n")
    (d / "link.txt").symlink_to(outside)
    (d / "dangling.txt").symlink_to(tmp_path / "missing.txt")
    code, out, _ = assert_batch_equivalent(["decide", "--batch", str(d)], capsys, 2, 1)
    assert code == 1
    assert out == "a.txt: EXISTS\nlink.txt: ABSENT (UDiagonalFail objects=[1] required>=7 actual=6)\n"


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# The process-pool modules --batch does without, and json, which only --json
# output and JSON input need.
WATCHED = {"pickle", "multiprocessing", "concurrent.futures", "signal", "subprocess", "json"}
BASE = ["catmat", "catmat.cli", "catmat.errors"]


def loaded(code, *argv):
    """The catmat modules and watched modules a fresh interpreter loads while
    it runs `code` (with sys.argv[1:] = argv). Modules it held before, such as
    a json that a site hook imported, are not counted."""
    code = ("import sys; before = set(sys.modules)\n" + code +
            "\nnew = set(sys.modules) - before; print(sorted(m for m in new if m.split('.')[0] == 'catmat'));"
            f" print(sorted(new & {WATCHED!r}))")
    out = subprocess.run([sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True).stdout
    return [eval(line) for line in out.splitlines()[-2:]]


def test_importing_the_cli_loads_no_process_pool_module():
    # --batch forks with os alone, and the parser needs no decision module,
    # no batch code and no json.
    assert loaded("import catmat.cli") == [BASE, []]
    assert loaded("import catmat.cli; catmat.cli.build_parser()") == [BASE, []]


def test_importing_the_cli_loads_only_the_parser_and_the_errors():
    # argparse, and the __future__ module each `from __future__` import
    # loads, are loaded first; the CLI adds only its package and errors.
    code = ("import sys, argparse, __future__; before = set(sys.modules); import catmat.cli; "
            "print(sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True).stdout
    assert eval(out) == BASE


def test_running_the_cli_module_loads_it_once(tmp_path, capsys):
    # `python -m catmat.cli` runs cli.py as __main__, and --batch must not
    # load it a second time as catmat.cli.
    batch = tmp_path / "two"
    batch.mkdir()
    write(batch, "a.txt", "1 2\n3 7\n")
    write(batch, "b.txt", "1 2\n3 6\n")
    argv = ["decide", "--batch", str(batch)]
    code = ("import runpy, sys\n"
            "try:\n    runpy.run_module('catmat.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n    print(exc.code)\n"
            "print('catmat.cli' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True)
    assert main(argv) == 1
    assert run.stdout == capsys.readouterr().out + "1\nFalse\n"
    assert run.stderr == ""


def test_each_command_loads_only_its_modules(tmp_path):
    path = write(tmp_path, "m.txt", "1 2\n3 7\n")
    json_path = write(tmp_path, "m.json", '{"n": 2, "entries": [[1, 2], [3, 7]]}')
    batch = tmp_path / "batch"
    batch.mkdir()
    write(batch, "a.txt", "1 2\n3 7\n")
    write(batch, "b.txt", "1 2\n3 6\n")
    cert = str(tmp_path / "c.json")
    run = ("import contextlib, io, sys, catmat.cli\n"
           "with contextlib.redirect_stdout(io.StringIO()): catmat.cli.main(sys.argv[1:])\n")
    decide = ["decider", "matrix", "partition", "reduction"]
    verify = ["category", "certificate", "matrix", "partition", "reduction", "verifier"]
    for argv, modules, watched in [
        (["decide", path], decide, []),
        (["decide", "--explain", "--via-submatrices", path], decide, []),
        (["decide", "--json", path], decide, ["json"]),
        (["decide", json_path], decide, ["json"]),
        (["decide", "--batch", str(batch)], ["batch", *decide], ["json"]),
        (["report", path], decide, []),
        (["oracle", path], ["matrix", "oracle"], []),
        (["oracle", "--json", path], ["matrix", "oracle"], ["json"]),
        (["witness", path, "--out", cert], [*verify, "decider", "witness"], ["json"]),
        (["verify", cert, path], verify, ["json"]),
    ]:
        want = [sorted(BASE + [f"catmat.{m}" for m in modules]), watched]
        assert loaded(run, *argv) == want, argv
    # The oracle builds its category, and loads that module, only when asked.
    found = "result = catmat.oracle.oracle_decide(catmat.matrix.parse_matrix('1'))\n"
    oracle = BASE + ["catmat.matrix", "catmat.oracle"]
    assert loaded(run + found, "oracle", path) == [sorted(oracle), []]
    assert loaded(run + found + "result.category", "oracle", path) == [
        sorted(oracle + ["catmat.category"]), []]
