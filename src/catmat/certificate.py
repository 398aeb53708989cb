"""Self-contained JSON certificates for witness categories.

A certificate holds everything needed to replay verification with no trust
in the builder: the matrix, the reduction onto representatives, the objects
with their class coordinates, every hom-set's labels, the identities and the
full composition table.  Labels travel as canonical strings and are treated
as opaque tokens on load, so a verifier never needs the label structure.
A certificate is written from a built category, whose composition is
blocks; `load_certificate` returns a claimed one, filled from the table
rows as they are validated, with no label-keyed table.
"""

from __future__ import annotations

import json
from typing import Iterator

from .category import BAD_ROW, FiniteCategory
from .errors import CertificateError
from .matrix import HomMatrix, Rows
from .partition import acceptability_failures, structure
from .reduction import ReductionMap, reduce_rows


def build_certificate(C: FiniteCategory, M: HomMatrix, rmap: ReductionMap) -> dict:
    """The certificate of a built category whose labels are strings, such as
    a witness; its table is C.rows()."""
    homs = sorted(C.homs.items())
    return _certificate(C, M, rmap, {f"{x},{y}": list(ls) for (x, y), ls in homs}, C.rows())


def _certificate(C: FiniteCategory, M: HomMatrix, rmap: ReductionMap, homs, table) -> dict:
    identities = {str(x): C.identity[x] for x in range(C.n)}
    objects = _objects_json(*reduce_rows(M.entries)[:2])
    return {"matrix": M.to_json(), "reduction": _reduction_json(rmap.class_of, rmap.representative),
            "objects": objects, "homs": homs, "identities": identities, "table": table}


_quote = json.encoder.encode_basestring_ascii  # the C quoting json.dumps uses


def dump_certificate(C: FiniteCategory, M: HomMatrix, rmap: ReductionMap) -> Iterator[str]:
    """The chunks of exactly json.dumps(build_certificate(C, M, rmap), indent=2).

    The two large collections, "homs" and "table", are written by hand,
    straight from C's hom-sets and blocks, one chunk per hom-set and one per
    g of the table; each label is quoted once, and the table is C.walk of
    the quoted labels, with no [g, f, h] lists.  The rest is small and goes
    through json.dumps.
    """
    quoted = {xy: [*map(_quote, labels)] for xy, labels in C.homs.items()}
    homs = (
        f',\n    "{x},{y}": [\n      ' + ",\n      ".join(quoted[x, y]) + "\n    ]"
        for x, y in sorted(quoted)
    )
    table = (
        "".join(f",\n    [\n      {g},\n      {f},\n      {h}\n    ]" for f, h in zip(fs, hs))
        for g, fs, hs in C.walk(quoted)
    )
    sep = "{\n  "
    for key, value in _certificate(C, M, rmap, homs, table).items():
        yield f'{sep}"{key}": '
        sep = ",\n  "
        if value is homs or value is table:
            yield from _nested("{}" if value is homs else "[]", value)
        else:
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
    yield "\n}"


def _nested(brackets: str, entries: Iterator[str]) -> Iterator[str]:
    """A collection one level deep, from entries that each start with the
    separator ",\n    " (dropped from the first); empty, just the brackets."""
    first = next(entries, None)
    yield brackets if first is None else brackets[0] + first[1:]
    if first is not None:
        yield from entries
        yield "\n  " + brackets[1]


def _reduction_json(class_of: tuple[int, ...], representative: tuple[int, ...]) -> dict:
    return {"class_of": list(class_of), "representative": list(representative)}


def _objects_json(rows: Rows, class_of: tuple[int, ...]) -> list[dict]:
    """Each object's class and local index in the partition of the reduced
    rows, onto which class_of maps the objects."""
    if next(acceptability_failures(rows), None) is not None:
        raise CertificateError('"matrix" is not acceptable, so it has no classes')
    local_of = structure(rows).local_of
    return [
        {"id": x, "class": local_of[a][0], "local_index": local_of[a][1]}
        for x, a in enumerate(class_of)
    ]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CertificateError(message)


def _key_objects(key: str, width: int) -> list[int] | None:
    """The objects of a key spelt as build_certificate spells it ("x" or
    "x,y"), or None for any other spelling, such as "01", "-0" or "²"."""
    try:
        objects = [int(p) for p in key.split(",")]
    except ValueError:
        return None
    return objects if len(objects) == width and ",".join(map(str, objects)) == key else None


def load_certificate(data: dict) -> tuple[HomMatrix, FiniteCategory]:
    """Rebuild the claimed matrix and the category with opaque string labels.

    Structural problems raise CertificateError, and composable pairs over
    the triple budget TripleBudgetError; semantic problems (a table that is
    not actually a category) are left for verify_category to report.
    """
    _require(isinstance(data, dict), "certificate is not a JSON object")
    for key in ("matrix", "reduction", "objects", "homs", "identities", "table"):
        _require(key in data, f"certificate is missing {key!r}")

    mat = data["matrix"]
    _require(
        isinstance(mat, dict) and "n" in mat and "entries" in mat,
        'certificate "matrix" needs "n" and "entries"',
    )
    try:
        M = HomMatrix(mat["n"], tuple(tuple(row) for row in mat["entries"]))
    except (ValueError, TypeError) as exc:
        raise CertificateError(f"bad matrix in certificate: {exc}") from None

    rows, class_of, representative = reduce_rows(M.entries)
    reduction = data["reduction"]
    _require(
        reduction == _reduction_json(class_of, representative)
        and all(type(v) is int for values in reduction.values() for v in values),
        '"reduction" does not match the reduction of "matrix"',
    )

    objects = data["objects"]
    _require(
        objects == _objects_json(rows, class_of)
        and all(type(v) is int for entry in objects for v in entry.values()),
        '"objects" does not match the classes of the reduced "matrix"',
    )
    n = M.n

    homs: dict[tuple[int, int], tuple[str, ...]] = {}
    _require(isinstance(data["homs"], dict), '"homs" must be an object')
    for key, labels in data["homs"].items():
        xy = _key_objects(key, 2)
        _require(xy is not None, f'bad hom key {key!r}, expected "i,j"')
        x, y = xy
        _require(0 <= x < n and 0 <= y < n, f"hom key {key!r} out of range")
        _require(
            isinstance(labels, list) and all(isinstance(l, str) for l in labels),
            f"hom {key!r} must list label strings",
        )
        _require(len(set(labels)) == len(labels), f"hom {key!r} repeats a label")
        homs[(x, y)] = tuple(labels)

    identities: dict[int, str] = {}
    _require(isinstance(data["identities"], dict), '"identities" must be an object')
    for key, label in data["identities"].items():
        x = _key_objects(key, 1)
        _require(x is not None and 0 <= x[0] < n, f"bad identity key {key!r}")
        _require(isinstance(label, str), f"identity {key!r} must be a label string")
        identities[x[0]] = label
    _require(len(identities) == n, "one identity per object required")

    _require(isinstance(data["table"], list), '"table" must be a list of [g, f, h]')
    try:
        C = FiniteCategory(n, homs, identities, data["table"])
    except ValueError as exc:
        raise CertificateError(str(exc)) from None
    except TypeError:  # an unhashable label
        raise CertificateError(BAD_ROW) from None
    return M, C
