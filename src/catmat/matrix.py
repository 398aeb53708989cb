"""Square nonnegative integer matrices of hom-set sizes.

Entry (i, j) is the number of morphisms from object i to object j.
Matrices are immutable.  Only JSON input loads the json module: read_json
imports it, so parsing a text matrix does not.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable

from .errors import ParseError, ShapeError


Rows = tuple[tuple[int, ...], ...]
_INT = frozenset({int})


@dataclass(frozen=True)
class HomMatrix:
    """Immutable square matrix of nonnegative integers.

    `entries` is a tuple of n rows, each a tuple of n ints: bool is refused,
    other int subclasses are taken, and list rows are refused since they
    would leave the matrix unhashable.  Each row is checked whole, its set
    of entry types against {int} and then its min, in that order since min
    of mixed types raises TypeError; only a row that fails is walked entry
    by entry, to name its first bad entry.
    """

    n: int
    entries: Rows

    def __post_init__(self):
        n = self.n
        if not isinstance(n, int) or isinstance(n, bool):
            raise ParseError(f"size is not an integer: {n!r}")
        if n < 0:
            raise ShapeError(f"negative size {n}")
        if not isinstance(self.entries, tuple):
            raise ShapeError(f"entries must be a tuple of rows, not {type(self.entries).__name__}")
        if len(self.entries) != n:
            raise ShapeError(f"expected {n} rows, got {len(self.entries)}")
        for i, row in enumerate(self.entries):
            if type(row) is tuple and len(row) == n and {*map(type, row)} == _INT and min(row) >= 0:
                continue
            if not isinstance(row, tuple):
                raise ShapeError(f"row {i} must be a tuple, not {type(row).__name__}")
            if len(row) != n:
                raise ShapeError(f"row {i} has {len(row)} entries, expected {n}")
            for j, value in enumerate(row):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ParseError(f"entry ({i},{j}) is not an integer: {value!r}")
                if value < 0:
                    raise ParseError(f"entry ({i},{j}) is negative: {value}")

    @classmethod
    def _trusted(cls, rows: Rows) -> "HomMatrix":
        """The matrix of rows known to be valid, not checked again: rows cut
        from a checked matrix, or square rows read through the parse table."""
        M = cls.__new__(cls)
        M.__dict__.update(n=len(rows), entries=rows)
        return M

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "HomMatrix":
        entries = tuple(map(tuple, rows))
        return cls(len(entries), entries)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [list(row) for row in self.entries]}


# Every entry in plain decimal form up to 255: "007", "-3" and "256" miss.
_ENTRY = {str(k): k for k in range(256)}


def parse_matrix(text: str) -> HomMatrix:
    """Parse whitespace-separated rows, or a JSON object {"n":..., "entries":...}.

    The two formats are distinguished by the first non-blank character:
    '{' selects JSON.  Empty input denotes the 0x0 matrix.  A text entry is
    ASCII digits, with a leading "-" refused later as negative.  Each line
    is read through the table `_ENTRY` of the decimal strings of 0..255;
    only a line with a token outside it is read by `_parse_tokens`, with
    int().  Rows read through the table alone hold ints in 0..255, so when
    they are square HomMatrix's check is skipped; otherwise it checks the rows.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        return from_json(read_json(stripped, "JSON matrix"))
    rows = []
    tabled = True  # every row was read through _ENTRY
    entry = _ENTRY.__getitem__
    for line in text.splitlines():
        tokens = line.split()
        if tokens:
            try:
                rows.append(list(map(entry, tokens)))
            except KeyError:
                rows.append(_parse_tokens(line, tokens, len(rows)))
                tabled = False
    n = len(rows)
    if tabled and all(len(row) == n for row in rows):
        # Rows made as lists first: tuples straight from map() raised the
        # peak memory of a 400-file --batch run by about 1.5 MB.
        return HomMatrix._trusted(tuple(map(tuple, rows)))
    return HomMatrix.from_rows(rows)


def _parse_tokens(line: str, tokens: list[str], i: int) -> list[int]:
    """Row i, read token by token with int().  int() would also take "_",
    "+" and non-ASCII digits, so a line holding any of them is searched
    for the token to refuse."""
    if "_" in line or "+" in line or not line.isascii():
        for tok in tokens:
            if "_" in tok or "+" in tok or not tok.isascii():
                raise ParseError(f"not an integer: {tok!r} (entries are ASCII digits)")
    row = []
    for tok in tokens:
        try:
            row.append(int(tok))
        except ValueError:
            if tok.removeprefix("-").isdigit():
                raise too_long(f"row {i}") from None
            raise ParseError(f"not an integer: {tok!r}") from None
    return row


def too_long(where: str) -> ParseError:
    """The error for an integer in `where` with more digits than int() converts."""
    limit = sys.get_int_max_str_digits()
    return ParseError(f"{where} has an integer longer than the limit of {limit} digits")


def read_json(text: str | bytes, where: str):
    """json.loads(text), with its failures as ParseError naming `where`."""
    import json

    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{where} is not valid JSON: {exc}") from None
    except ValueError:  # an integer over the digit limit
        raise too_long(where) from None


def from_json(data) -> HomMatrix:
    """The matrix of a decoded JSON object {"n": ..., "entries": [[...], ...]}."""
    if not isinstance(data, dict) or "n" not in data or "entries" not in data:
        raise ParseError('JSON matrix needs keys "n" and "entries"')
    n = data["n"]
    entries = data["entries"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError(f'"n" must be a nonnegative integer, got {n!r}')
    if not isinstance(entries, list) or any(not isinstance(r, list) for r in entries):
        raise ParseError('"entries" must be a list of rows')
    return HomMatrix(n, tuple(tuple(row) for row in entries))
