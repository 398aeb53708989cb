"""Fuzz the input boundary: whatever the text or JSON, parsing and loading
raise only their documented errors, and the CLI ends in a documented exit
code (0, 1 or 2), never an internal error (4) or an escaped exception."""

import contextlib
import copy
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from catmat import HomMatrix, build_witness
from catmat.certificate import build_certificate, load_certificate
from catmat.cli import main
from catmat.errors import CertificateError, ParseError, ShapeError
from catmat.matrix import parse_matrix

LONG = "7" * (sys.get_int_max_str_digits() + 1)
TOKENS = [
    "0", "1", "2", "7", "12", "-", "-1", "+", "+1", "_", "1_0", "١", "\x0c",
    "\x85", "\xa0", " ", "\n", "\t", "{", "}", "[", "]", ",", ":", '"n"',
    '"entries"', "null", "true", "1.5", "1e3", '{"n": 1, "entries": [[', LONG,
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

matrix_texts = st.one_of(
    st.text(),
    st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=4), max_size=4).map(
        lambda rows: "".join(" ".join(map(str, row)) + "\n" for row in rows)
    ),
    st.lists(st.sampled_from(TOKENS), max_size=24).map("".join),
    st.builds(json.dumps, st.fixed_dictionaries({"n": json_values, "entries": json_values})),
    st.integers(1, 4).map(lambda k: '{"n": 1, "entries": ' + "[" * 10**k),
)

CERTS = [
    build_certificate(build_witness(M), M)
    for M in (HomMatrix.from_rows([[1, 2, 2], [3, 7, 7], [3, 7, 7]]), HomMatrix.from_rows([[1]]))
]
LABELS = sorted({label for cert in CERTS for labels in cert["homs"].values() for label in labels})


def slots(node, out):
    """Every (container, key) of a JSON document, containers included."""
    keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        out.append((node, key))
        slots(node[key], out)
    return out


@st.composite
def certificates(draw):
    """A real certificate with one to three random edits (a value replaced
    by any JSON value or by one of its labels, deleted or copied), or with
    only its size respelt (as a bool, float, string or any JSON value), or
    any JSON value."""
    if draw(st.booleans()):
        return draw(json_values)
    doc = copy.deepcopy(draw(st.sampled_from(CERTS)))
    if draw(st.booleans()):
        n = doc["matrix"]["n"]
        doc["matrix"]["n"] = draw(st.sampled_from([n == 1, float(n), str(n)]) | json_values)
        return doc
    for _ in range(draw(st.integers(1, 3))):
        node, key = draw(st.sampled_from(slots(doc, [])))
        edit = draw(st.sampled_from(["replace", "label", "delete", "copy"]))
        if edit == "replace":
            node[key] = draw(json_values)
        elif edit == "label":
            node[key] = draw(st.sampled_from(LABELS))
        elif edit == "delete":
            del node[key]
        elif isinstance(node, list):
            node.append(copy.deepcopy(node[key]))
        else:
            node[draw(st.text(max_size=4))] = copy.deepcopy(node[key])
    return doc


@settings(max_examples=200, deadline=None)
@given(matrix_texts)
def test_parse_matrix_raises_only_parse_and_shape_errors(text):
    try:
        parse_matrix(text)
    except (ParseError, ShapeError):
        pass


@settings(max_examples=200, deadline=None)
@given(certificates())
def test_load_certificate_raises_only_certificate_errors(data):
    try:
        load_certificate(data)
    except CertificateError:
        pass


@settings(max_examples=100, deadline=None)
@given(matrix_texts, certificates(), st.booleans())
def test_cli_ends_in_a_documented_exit_code(tmp_path_factory, text, cert, cert_as_text):
    where = tmp_path_factory.mktemp("fuzz")
    matrix, certificate = where / "matrix.txt", where / "cert.json"
    matrix.write_text(text, encoding="utf-8")
    certificate.write_text(text if cert_as_text else json.dumps(cert), encoding="utf-8")
    for argv in (
        ["decide", str(matrix)],
        ["decide", "--explain", "--json", str(matrix)],
        ["report", str(matrix)],
        ["verify", str(certificate)],
        ["verify", str(certificate), str(matrix)],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 1, 2), (argv, code, err.getvalue())
