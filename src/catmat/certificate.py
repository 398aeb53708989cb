"""Self-contained JSON certificates for witness categories.

A certificate holds everything needed to replay verification with no trust
in the builder: the matrix, the reduction onto representatives, the objects
with their class coordinates, every hom-set's labels, the identities and the
full composition table.  Labels travel as canonical strings and are treated
as opaque tokens on load, so a verifier never needs the label structure.
"""

from __future__ import annotations

from .category import FiniteCategory
from .errors import CertificateError
from .labels import render
from .matrix import HomMatrix
from .reduction import ReductionMap, reduce


def build_certificate(C: FiniteCategory, M: HomMatrix, rmap: ReductionMap) -> dict:
    if C.coords is None:
        raise CertificateError("category carries no class coordinates")
    objects = [
        {"id": x, "class": C.coords[x][0], "local_index": C.coords[x][1]}
        for x in range(C.n)
    ]
    name = {label: render(label) for label in C.hom_of}
    homs = {
        f"{x},{y}": [name[label] for label in labels]
        for (x, y), labels in sorted(C.homs.items())
    }
    identities = {str(x): name[C.identity[x]] for x in range(C.n)}
    table = sorted([name[g], name[f], name[h]] for (g, f), h in C.table.items())
    return {
        "matrix": M.to_json(),
        "reduction": _reduction_json(rmap),
        "objects": objects,
        "homs": homs,
        "identities": identities,
        "table": table,
    }


def _reduction_json(rmap: ReductionMap) -> dict:
    return {"class_of": list(rmap.class_of), "representative": list(rmap.representative)}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CertificateError(message)


def load_certificate(data: dict) -> tuple[HomMatrix, FiniteCategory]:
    """Rebuild the claimed matrix and the category with opaque string labels.

    Structural problems raise CertificateError; semantic problems (a table
    that is not actually a category) are left for verify_category to report.
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
    _require(isinstance(objects, list), '"objects" must be a list')
    n = len(objects)
    coords: list[tuple[int, int]] = [(-1, -1)] * n
    seen = set()
    for entry in objects:
        _require(
            isinstance(entry, dict)
            and isinstance(entry.get("id"), int)
            and isinstance(entry.get("class"), int)
            and isinstance(entry.get("local_index"), int),
            'every object needs integer "id", "class" and "local_index"',
        )
        x = entry["id"]
        _require(0 <= x < n and x not in seen, f"object ids must cover 0..{n - 1} once")
        seen.add(x)
        coords[x] = (entry["class"], entry["local_index"])

    homs: dict[tuple[int, int], tuple[str, ...]] = {}
    _require(isinstance(data["homs"], dict), '"homs" must be an object')
    for key, labels in data["homs"].items():
        parts = key.split(",")
        _require(
            len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts),
            f'bad hom key {key!r}, expected "i,j"',
        )
        x, y = int(parts[0]), int(parts[1])
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
        _require(key.isdigit() and 0 <= int(key) < n, f"bad identity key {key!r}")
        _require(isinstance(label, str), f"identity {key!r} must be a label string")
        identities[int(key)] = label
    _require(len(identities) == n, "one identity per object required")

    table: dict[tuple[str, str], str] = {}
    _require(isinstance(data["table"], list), '"table" must be a list of [g, f, h]')
    for row in data["table"]:
        _require(
            isinstance(row, list)
            and len(row) == 3
            and all(isinstance(v, str) for v in row),
            "every table row must be three label strings",
        )
        g, f, h = row
        _require((g, f) not in table, f"table defines ({g}, {f}) twice")
        table[(g, f)] = h

    try:
        C = FiniteCategory(n, homs, identities, table, coords=coords)
    except ValueError as exc:
        raise CertificateError(str(exc)) from None
    return M, C
