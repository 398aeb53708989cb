"""Square nonnegative integer matrices of hom-set sizes.

Entry (i, j) is the number of morphisms from object i to object j.
Matrices are immutable; all transformations return new values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ParseError, ShapeError


Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class HomMatrix:
    """Immutable square matrix of nonnegative integers."""

    n: int
    entries: Rows

    def __post_init__(self):
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
    '{' selects JSON.  Empty input denotes the 0x0 matrix.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        return _parse_json(stripped)
    rows = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens:
            continue
        row = []
        for tok in tokens:
            try:
                row.append(int(tok))
            except ValueError:
                raise ParseError(f"not an integer: {tok!r}") from None
        rows.append(row)
    return HomMatrix.from_rows(rows)


def _parse_json(text: str) -> HomMatrix:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or "n" not in data or "entries" not in data:
        raise ParseError('JSON matrix needs keys "n" and "entries"')
    n = data["n"]
    entries = data["entries"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError(f'"n" must be a nonnegative integer, got {n!r}')
    if not isinstance(entries, list) or any(not isinstance(r, list) for r in entries):
        raise ParseError('"entries" must be a list of rows')
    return HomMatrix(n, tuple(tuple(row) for row in entries))


def principal_submatrix(M: HomMatrix, keep: Sequence[int]) -> HomMatrix:
    """Restrict M to the rows and columns in `keep` (strictly increasing indices)."""
    for k in keep:
        if not 0 <= k < M.n:
            raise IndexError(f"index {k} out of range for size {M.n}")
    if any(keep[t] >= keep[t + 1] for t in range(len(keep) - 1)):
        raise ValueError(f"keep indices must be strictly increasing: {list(keep)}")
    rows = tuple(tuple(M[i][j] for j in keep) for i in keep)
    return HomMatrix(len(keep), rows)


def permute(M: HomMatrix, sigma: Sequence[int]) -> HomMatrix:
    """Relabel objects: result[i][j] = M[sigma[i]][sigma[j]] for a permutation sigma."""
    if len(sigma) != M.n or sorted(sigma) != list(range(M.n)):
        raise IndexError(f"not a permutation of range({M.n}): {list(sigma)}")
    rows = tuple(tuple(M[sigma[i]][sigma[j]] for j in range(M.n)) for i in range(M.n))
    return HomMatrix(M.n, rows)


def transpose(M: HomMatrix) -> HomMatrix:
    """Swap sources and targets; realizability is preserved by opposite categories."""
    rows = tuple(tuple(M[j][i] for j in range(M.n)) for i in range(M.n))
    return HomMatrix(M.n, rows)
