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
from .errors import CertificateError, NotAcceptable
from .matrix import HomMatrix
from .partition import build_partition
from .reduction import ReductionMap, reduce


def build_certificate(C: FiniteCategory, M: HomMatrix, rmap: ReductionMap) -> dict:
    """The certificate of a built category whose labels are strings, such as
    a witness; its table is C.rows()."""
    return {
        "matrix": M.to_json(),
        "reduction": _reduction_json(rmap),
        "objects": _objects_json(M),
        "homs": {f"{x},{y}": list(labels) for (x, y), labels in sorted(C.homs.items())},
        "identities": {str(x): C.identity[x] for x in range(C.n)},
        "table": C.rows(),
    }


_quote = json.encoder.encode_basestring_ascii  # the C quoting json.dumps uses


def dump_certificate(cert: dict) -> Iterator[str]:
    """The chunks of exactly json.dumps(cert, indent=2), for a certificate
    of build_certificate's shape (every listed hom-set is nonempty).

    The two large collections, nonempty "homs" and "table", are written by
    hand, one chunk per entry; everything else is small and goes through
    json.dumps.  Each label of "homs" is quoted once, and the table reuses
    the quotes; a table label that no hom-set lists is quoted where it is.
    """
    quoted: dict[str, str] = {}
    sep = "{\n  "
    for key, value in cert.items():
        yield f"{sep}{_quote(key)}: "
        sep = ",\n  "
        if not value or key not in ("homs", "table"):
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
        elif key == "homs":
            quoted = {label: _quote(label) for labels in value.values() for label in labels}
            yield from _nested("{}", (
                f",\n    {_quote(xy)}: [\n      " + ",\n      ".join(map(quoted.get, labels)) + "\n    ]"
                for xy, labels in value.items()
            ))
        else:
            q = quoted.get
            yield from _nested("[]", (
                f",\n    [\n      {q(g) or _quote(g)},\n      {q(f) or _quote(f)},"
                f"\n      {q(h) or _quote(h)}\n    ]"
                for g, f, h in value
            ))
    yield "\n}"


def _nested(brackets: str, entries: Iterator[str]) -> Iterator[str]:
    """A nonempty collection one level deep, from entries that each start
    with the separator ",\n    " (dropped from the first)."""
    yield brackets[0] + next(entries)[1:]
    yield from entries
    yield "\n  " + brackets[1]


def _reduction_json(rmap: ReductionMap) -> dict:
    return {"class_of": list(rmap.class_of), "representative": list(rmap.representative)}


def _objects_json(M: HomMatrix) -> list[dict]:
    """Each object's class and local index in the partition of the reduced matrix."""
    N, rmap = reduce(M)
    try:
        local_of = build_partition(N).local_of
    except NotAcceptable:
        raise CertificateError('"matrix" is not acceptable, so it has no classes') from None
    return [
        {"id": x, "class": local_of[a][0], "local_index": local_of[a][1]}
        for x, a in enumerate(rmap.class_of)
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

    reduction = data["reduction"]
    _require(
        reduction == _reduction_json(reduce(M)[1])
        and all(type(v) is int for values in reduction.values() for v in values),
        '"reduction" does not match the reduction of "matrix"',
    )

    objects = data["objects"]
    _require(
        objects == _objects_json(M)
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
