import pytest
from hypothesis import given
from hypothesis import strategies as st

from catmat import HomMatrix, ParseError, ShapeError, parse_matrix
from helpers import permute, principal_submatrix, transpose

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
    with pytest.raises(ParseError):
        HomMatrix.from_rows([[1, -1], [0, 1]])
    # True and 1.0 equal 1, so only a type check tells them from a size.
    for n in (True, 1.0):
        with pytest.raises(ParseError, match=f"size is not an integer: {n!r}"):
            HomMatrix(n, ((1,),))


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
