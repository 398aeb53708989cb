"""Square nonnegative integer matrices of hom-set sizes.

Entry (i, j) is the number of morphisms from object i to object j.
Matrices are immutable.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Iterable

from .errors import ParseError, ShapeError


Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class HomMatrix:
    """Immutable square matrix of nonnegative integers."""

    n: int
    entries: Rows

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ParseError(f"size is not an integer: {self.n!r}")
        if self.n < 0:
            raise ShapeError(f"negative size {self.n}")
        if len(self.entries) != self.n:
            raise ShapeError(f"expected {self.n} rows, got {len(self.entries)}")
        for i, row in enumerate(self.entries):
            if len(row) != self.n:
                raise ShapeError(f"row {i} has {len(row)} entries, expected {self.n}")
            for j, value in enumerate(row):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ParseError(f"entry ({i},{j}) is not an integer: {value!r}")
                if value < 0:
                    raise ParseError(f"entry ({i},{j}) is negative: {value}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "HomMatrix":
        entries = tuple(tuple(row) for row in rows)
        return cls(len(entries), entries)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [list(row) for row in self.entries]}


def parse_matrix(text: str) -> HomMatrix:
    """Parse whitespace-separated rows, or a JSON object {"n":..., "entries":...}.

    The two formats are distinguished by the first non-blank character:
    '{' selects JSON.  Empty input denotes the 0x0 matrix.  A text entry is
    ASCII digits, with a leading "-" refused later as negative; int() would
    also take "_", "+" and non-ASCII digits, so a line holding any of them
    is searched for the token to refuse.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        return _parse_json(stripped)
    rows = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens:
            continue
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
                    raise too_long(f"row {len(rows)}") from None
                raise ParseError(f"not an integer: {tok!r}") from None
        rows.append(row)
    return HomMatrix.from_rows(rows)


def too_long(where: str) -> ParseError:
    """The error for an integer in `where` with more digits than int() converts."""
    limit = sys.get_int_max_str_digits()
    return ParseError(f"{where} has an integer longer than the limit of {limit} digits")


def _parse_json(text: str) -> HomMatrix:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except ValueError:  # an integer over the digit limit
        raise too_long("JSON matrix") from None
    if not isinstance(data, dict) or "n" not in data or "entries" not in data:
        raise ParseError('JSON matrix needs keys "n" and "entries"')
    n = data["n"]
    entries = data["entries"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError(f'"n" must be a nonnegative integer, got {n!r}')
    if not isinstance(entries, list) or any(not isinstance(r, list) for r in entries):
        raise ParseError('"entries" must be a list of rows')
    return HomMatrix(n, tuple(tuple(row) for row in entries))
