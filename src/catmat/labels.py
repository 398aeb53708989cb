"""Morphism labels for constructed categories.

Labels encode their own source and target through (class, local index)
coordinates, so a label is globally unique within one category.  Every label
renders to a canonical string used by the certificate format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Identity:
    cls: int
    i: int


@dataclass(frozen=True)
class Pair:
    """Morphism factoring through a class basepoint: u indexes the leg into the
    basepoint (1..a), v the leg out of it (1..b)."""

    cls: int
    i: int
    j: int
    u: int
    v: int


@dataclass(frozen=True)
class Collapsed:
    """The single canonical non-identity morphism shape inside a class with no
    basepoint; all within-class composites collapse onto it."""

    cls: int
    i: int
    j: int


@dataclass(frozen=True)
class Cross:
    """Morphism between ordered classes; part is "Base", "Row", "Col" or "Extra"."""

    part: str
    src_cls: int
    i: int
    dst_cls: int
    j: int
    k: int


@dataclass(frozen=True)
class Pad:
    """Filler morphism absorbing surplus hom-set size beyond the structural labels."""

    cls: int
    i: int
    j: int
    k: int


@dataclass(frozen=True)
class Inflated:
    """Morphism of an inflated category: a copy of `inner` between duplicated objects."""

    src: int
    dst: int
    inner: "MorphismLabel"


MorphismLabel = Union[Identity, Pair, Collapsed, Cross, Pad, Inflated]


def render(label: MorphismLabel) -> str:
    if isinstance(label, Identity):
        return f"Identity({label.cls},{label.i})"
    if isinstance(label, Pair):
        return f"Pair({label.cls},{label.i},{label.j},{label.u},{label.v})"
    if isinstance(label, Collapsed):
        return f"Collapsed({label.cls},{label.i},{label.j})"
    if isinstance(label, Cross):
        return f"Cross{label.part}({label.src_cls},{label.i},{label.dst_cls},{label.j},{label.k})"
    if isinstance(label, Pad):
        return f"Pad({label.cls},{label.i},{label.j},{label.k})"
    if isinstance(label, Inflated):
        return f"Infl({label.src},{label.dst},{render(label.inner)})"
    raise TypeError(f"not a morphism label: {label!r}")
