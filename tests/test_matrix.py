import enum
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catmat.matrix
from catmat import HomMatrix, ParseError, ShapeError, decide, parse_matrix
from helpers import permute, principal_submatrix, reference_parse, transpose

matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
).map(HomMatrix.from_rows)


def test_parse_text():
    assert parse_matrix("1 2\n3 7") == HomMatrix.from_rows([[1, 2], [3, 7]])
    assert parse_matrix("1") == HomMatrix.from_rows([[1]])
    assert parse_matrix("  \n\n") == HomMatrix(0, ())
    assert parse_matrix("1 2 \n 3 7\n") == HomMatrix.from_rows([[1, 2], [3, 7]])
    # Non-ASCII whitespace only separates entries, as str.split() has it.
    assert parse_matrix("1\u00a02\n3 7") == HomMatrix.from_rows([[1, 2], [3, 7]])


def test_parse_json():
    assert parse_matrix('{"n": 2, "entries": [[1,2],[3,7]]}') == HomMatrix.from_rows(
        [[1, 2], [3, 7]]
    )
    assert parse_matrix('{"n": 0, "entries": []}') == HomMatrix(0, ())


def test_parse_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        parse_matrix("1 2\n3")
    with pytest.raises(ShapeError):
        parse_matrix("1 2 3\n4 5 6")
    with pytest.raises(ShapeError):
        parse_matrix('{"n": 2, "entries": [[1,2]]}')


def test_parse_rejects_bad_tokens():
    with pytest.raises(ParseError):
        parse_matrix("1 x\n3 7")
    # The first token int() refuses is named, whatever follows it.
    for text in ("1 2 3\n4 x 6\n7 8 9", "1 x y\n4 5 6\n7 8 9"):
        with pytest.raises(ParseError) as exc:
            parse_matrix(text)
        assert str(exc.value) == "not an integer: 'x'"
    with pytest.raises(ParseError, match=r"entry \(0,1\) is negative: -2"):
        parse_matrix("1 -2\n3 7")
    with pytest.raises(ParseError):
        parse_matrix("{not json")
    with pytest.raises(ParseError):
        parse_matrix('{"entries": [[1]]}')
    with pytest.raises(ParseError):
        parse_matrix('{"n": 1, "entries": [[1.5]]}')


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0661", "\uff11"])
def test_parse_refuses_what_int_takes_beyond_ascii_digits(token):
    # int() reads these as 10, 1, 1 and 1; an entry is ASCII digits only.
    with pytest.raises(ParseError) as exc:
        parse_matrix(f"1 {token}\n3 7")
    assert str(exc.value) == f"not an integer: {token!r} (entries are ASCII digits)"


def test_parse_json_checks_n_and_entries():
    for n in ("-1", "true", '"1"'):
        text = f'{{"n": {n}, "entries": [[1]]}}'
        with pytest.raises(ParseError, match='"n" must be a nonnegative integer'):
            parse_matrix(text)
    for text in ('{"n": 1, "entries": 1}', '{"n": 1, "entries": [1]}'):
        with pytest.raises(ParseError, match='"entries" must be a list of rows'):
            parse_matrix(text)


def test_constructor_validates():
    with pytest.raises(ShapeError):
        HomMatrix(2, ((1, 2),))
    with pytest.raises(ShapeError, match="^negative size -1$"):
        HomMatrix(-1, ())
    with pytest.raises(ParseError):
        HomMatrix.from_rows([[1, -1], [0, 1]])
    # True and 1.0 equal 1, so only a type check tells them from a size.
    for n in (True, 1.0):
        with pytest.raises(ParseError, match=f"size is not an integer: {n!r}"):
            HomMatrix(n, ((1,),))
    # Rows must be tuples: list entries would leave the matrix unhashable.
    for entries, message in (
        ([[1, 2], [0, 1]], "entries must be a tuple of rows, not list"),
        (((1, 2), [0, 1]), "row 1 must be a tuple, not list"),
    ):
        with pytest.raises(ShapeError) as exc:
            HomMatrix(2, entries)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "row, message",
    [
        ((0, True), "entry (1,1) is not an integer: True"),
        ((0, 1.0), "entry (1,1) is not an integer: 1.0"),
        ((0, "1"), "entry (1,1) is not an integer: '1'"),
        (("1", 0), "entry (1,0) is not an integer: '1'"),
        ((0, None), "entry (1,1) is not an integer: None"),
        ((0, -1), "entry (1,1) is negative: -1"),
        ((-1, "x"), "entry (1,0) is negative: -1"),
    ],
)
def test_constructor_names_the_first_bad_entry_of_a_later_row(row, message):
    # A ParseError, never the TypeError of comparing a str with an int.
    with pytest.raises(ParseError) as exc:
        HomMatrix(2, ((1, 2), row))
    assert str(exc.value) == message


def test_constructor_accepts_int_subclasses_other_than_bool():
    class Size(enum.IntEnum):
        ONE = 1
        TWO = 2

    M = HomMatrix(2, ((Size.ONE, Size.TWO), (0, Size.ONE)))
    assert M == HomMatrix.from_rows([[1, 2], [0, 1]])
    assert decide(M).exists


LONG = "1" * (sys.get_int_max_str_digits() + 1)
ODD_TOKENS = ["256", "007", "00", "-0", "-3", "1_0", "+1", "\u0661", "\uff11", "x", "1.5", LONG]
TABLE_TOKENS = st.integers(0, 255).map(str)


@st.composite
def matrix_texts(draw):
    """Square texts, now and then with an odd token, a ragged row or a
    blank line."""
    n = draw(st.integers(0, 4))
    lines = []
    for _ in range(n + (draw(st.integers(0, 7)) == 0)):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        width = n if draw(st.integers(0, 7)) else draw(st.integers(1, 5))
        tokens = [
            draw(st.sampled_from(ODD_TOKENS) if draw(st.integers(0, 15)) == 0 else TABLE_TOKENS)
            for _ in range(width)
        ]
        lines.append(draw(st.sampled_from([" ", "  ", "\t", "\u00a0"])).join(tokens))
    return "\n".join(lines)


def outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, ShapeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(matrix_texts())
def test_parse_matches_reference_parser(text):
    assert outcome(parse_matrix, text) == outcome(reference_parse, text)


def test_parse_calls_int_only_past_the_table(monkeypatch):
    # The table holds exactly the decimal forms of 0..255; every other
    # token, a padded or signed one included, is read by int().
    lines = []
    real = catmat.matrix._parse_tokens

    def spy(line, *args):
        lines.append(line)
        return real(line, *args)

    monkeypatch.setattr(catmat.matrix, "_parse_tokens", spy)
    square = "\n".join(" ".join(str(16 * i + j) for j in range(16)) for i in range(16))
    assert parse_matrix(square)[15][15] == 255
    assert lines == []
    for token, value in (("007", 7), ("00", 0), ("-0", 0), ("256", 256), ("0256", 256)):
        assert parse_matrix(f"1 {token}\n0 1") == HomMatrix.from_rows([[1, value], [0, 1]])
    with pytest.raises(ParseError, match="negative"):
        parse_matrix("1 -1\n0 1")
    assert lines == [f"1 {token}" for token in ("007", "00", "-0", "256", "0256", "-1")]


@pytest.mark.parametrize("text, error", [
    ("1 2\n3", (ShapeError, "row 1 has 1 entries, expected 2")),
    ("1 2\n3 4\n5 6", (ShapeError, "row 0 has 2 entries, expected 3")),
    ("1 2 3\n4 5 6", (ShapeError, "row 0 has 3 entries, expected 2")),
    ("1 -3\n0 1", (ParseError, "entry (0,1) is negative: -3")),
    (f"1 {LONG}\n0 1", (ParseError, f"row 0 has an integer longer than the limit of "
                                    f"{sys.get_int_max_str_digits()} digits")),
])
def test_parse_keeps_the_full_check_off_the_table(text, error):
    assert outcome(parse_matrix, text) == error


def test_parse_skips_the_check_only_for_square_tabled_rows(monkeypatch):
    checked = []
    real = HomMatrix.__post_init__
    monkeypatch.setattr(HomMatrix, "__post_init__", lambda M: checked.append(M) or real(M))
    M = parse_matrix("1 2\n3 255")
    assert checked == [] and M == HomMatrix.from_rows([[1, 2], [3, 255]])
    assert type(M.entries) is tuple and all(type(row) is tuple for row in M.entries)
    checked.clear()
    for text, rows in (("1 007\n0 1", [[1, 7], [0, 1]]), ("1 256\n0 1", [[1, 256], [0, 1]])):
        assert parse_matrix(text) == HomMatrix.from_rows(rows)
    assert len(checked) == 4  # each parse, and each matrix it is compared with


def test_principal_submatrix():
    M = HomMatrix.from_rows([[1, 2], [3, 7]])
    assert principal_submatrix(M, (0,)) == HomMatrix.from_rows([[1]])
    block = HomMatrix.from_rows([[1, 1, 1, 2], [1, 2, 2, 3], [0, 0, 1, 1], [0, 0, 2, 3]])
    assert principal_submatrix(block, (2, 3)) == HomMatrix.from_rows([[1, 1], [2, 3]])
    assert principal_submatrix(M, ()) == HomMatrix(0, ())
    with pytest.raises(IndexError):
        principal_submatrix(M, (0, 2))
    with pytest.raises(ValueError):
        principal_submatrix(M, (1, 0))


def test_permute():
    M = HomMatrix.from_rows([[1, 2], [3, 7]])
    assert permute(M, (1, 0)) == HomMatrix.from_rows([[7, 3], [2, 1]])
    assert permute(HomMatrix.from_rows([[0]]), (0,)) == HomMatrix.from_rows([[0]])
    with pytest.raises(IndexError):
        permute(M, (0, 0))


def test_transpose():
    M = HomMatrix.from_rows([[1, 2], [3, 7]])
    assert transpose(M) == HomMatrix.from_rows([[1, 3], [2, 7]])
    assert transpose(HomMatrix.from_rows([[1]])) == HomMatrix.from_rows([[1]])


@given(matrices)
def test_transpose_is_an_involution(M):
    assert transpose(transpose(M)) == M


@given(matrices, st.randoms())
def test_permute_round_trip(M, rng):
    sigma = list(range(M.n))
    rng.shuffle(sigma)
    inverse = [0] * M.n
    for i, s in enumerate(sigma):
        inverse[s] = i
    assert permute(permute(M, sigma), inverse) == M


@given(matrices)
def test_row_col_total_consistency(M):
    assert principal_submatrix(M, tuple(range(M.n))) == M
