"""Extended variable domains used by the sampling construction.

An ExtValue is either a plain subset of a frame or a compound ``s o V`` /
``s @ V`` built from a proper nonempty subset ``s`` of an existing value's own
set.  Every value carries ``own`` (the subset it collapses to) and ``sup``
(the coarser value it was split from, if any).

An ExtVector is the n-successor form: either ``n`` copies of a plain subset,
or a family member that feeds each successor one compound component.  The
all-``o`` component pattern is excluded from families by construction.

``ext_table`` and ``vector_table`` own both layouts as integer arrays; the
value and vector objects are built from them.  Their printed forms are the literals of the ``cpt`` dump; nothing reads them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import SizeGuardError
from .tables import Frame, SubsetMask, _bits_of, _subset_pos, subsets_of

OP_DOT = "o"  # behaves as its superset value
OP_AT = "@"  # resolved by averaging against the superset value

MAX_FRAME = 4
MAX_SUCCESSORS = 6


@dataclass(frozen=True)
class ExtValue:
    """A plain subset or a compound split value over one frame."""

    own: SubsetMask
    op: Optional[str] = None
    sup: Optional["ExtValue"] = None

    def __post_init__(self):
        if (self.op is None) != (self.sup is None):
            raise ValueError("compound values need both an operator and a superset value")
        if self.op is not None:
            if self.op not in (OP_DOT, OP_AT):
                raise ValueError(f"unknown operator {self.op!r}")
            parent_own = self.sup.own
            if self.own.frame != parent_own.frame:
                raise ValueError("split subset and superset value use different frames")
            if not (self.own.issubset(parent_own) and self.own.bits != parent_own.bits):
                raise ValueError(f"{self.own} is not a proper nonempty subset of {parent_own}")

    @property
    def is_plain(self) -> bool:
        return self.op is None

    @property
    def frame(self) -> Frame:
        return self.own.frame

    def __str__(self) -> str:
        if self.is_plain:
            return str(self.own)
        return f"{self.own}{self.op}{self.sup}"


@dataclass(frozen=True)
class ExtVector:
    """A vector of n ExtValue components, one per successor edge.

    ``pattern`` bit ``h-1`` selects the ``@`` component for edge ``h``;
    plain vectors have ``sup is None`` and pattern 0.
    """

    own: SubsetMask
    n: int
    sup: Optional[ExtValue] = None
    pattern: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vectors need at least one successor edge")
        if self.sup is None:
            if self.pattern != 0:
                raise ValueError("plain vectors carry no component pattern")
        else:
            if not (1 <= self.pattern < (1 << self.n)):
                raise ValueError("family pattern must select '@' on at least one edge")
            if not (self.own.issubset(self.sup.own) and self.own.bits != self.sup.own.bits):
                raise ValueError(f"{self.own} is not a proper nonempty subset of {self.sup.own}")

    @property
    def is_plain(self) -> bool:
        return self.sup is None

    @property
    def frame(self) -> Frame:
        return self.own.frame

    def __str__(self) -> str:
        return "[" + ";".join(str(component(self, h)) for h in range(1, self.n + 1)) + "]"


def _guard_frame(frame: Frame) -> None:
    if len(frame) > MAX_FRAME:
        raise SizeGuardError(
            f"frame {frame.name!r} has {len(frame)} values; extended domains support at most {MAX_FRAME}"
        )


class ExtTable(NamedTuple):
    """Per extended value of a frame, in ``ext_values`` order: the index of
    its own plain value, that of its superset value (-1 for a plain value),
    whether it is an ``@`` compound, and its CPT row; per row, its first value.

    A row is a derivation: a plain value is its own row, an ``o`` value takes
    its superset value's row, and each pair (own subset, superset row) of an
    ``@`` value is a row, numbered in order of first appearance."""

    own: np.ndarray
    sup: np.ndarray
    at: np.ndarray
    row: np.ndarray
    first: np.ndarray


def _frozen(table):
    for column in table:
        column.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def ext_table(frame: Frame) -> ExtTable:
    """The extended values in canonical order: plain subsets first (canonical
    subset order), then compounds level by level.  Each level splits every
    value of the previous level by each proper nonempty subset of its own set,
    in canonical order, listing the ``o`` compounds before the ``@`` compounds."""
    _guard_frame(frame)
    bits = _bits_of(frame).tolist()
    proper = [[j for j, b in enumerate(bits) if b & t == b != t] for t in bits]
    values = [(j, -1, False) for j in range(len(bits))]  # (own, sup, at)
    level = range(len(bits))
    while level:
        start = len(values)
        values += [(s, v, a) for a in (False, True) for v in level for s in proper[values[v][0]]]
        level = range(start, len(values))
    own, sup, at = zip(*values)
    row, derived = [], {}
    for o, s, a in values:
        if s < 0:
            row.append(o)
        elif a:
            row.append(derived.setdefault((o, row[s]), len(bits) + len(derived)))
        else:
            row.append(row[s])
    first = np.unique(row, return_index=True)[1]
    return _frozen(ExtTable(*map(np.array, (own, sup, at, row)), first))


@lru_cache(maxsize=None)
def ext_values(frame: Frame) -> tuple[ExtValue, ...]:
    """All extended values of a frame, in ``ext_table`` order."""
    subsets, out = subsets_of(frame), []
    for o, s, a in zip(*(column.tolist() for column in ext_table(frame)[:3])):
        op = OP_AT if a else OP_DOT
        out.append(ExtValue(subsets[o]) if s < 0 else ExtValue(subsets[o], op, out[s]))
    return tuple(out)


class VectorTable(NamedTuple):
    """Per extended vector of a frame for n successors, in ``ext_vectors``
    order: the index of its own subset, that of its superset value in
    ``ext_values`` (-1 for a plain vector) and its component pattern; and
    ``row[h - 1]``, per vector the ``ext_table.row`` of its component on edge h."""

    own: np.ndarray
    sup: np.ndarray
    pattern: np.ndarray
    row: np.ndarray


@lru_cache(maxsize=None)
def vector_table(frame: Frame, n: int) -> VectorTable:
    """The extended vectors for n successors in canonical order: plain vectors
    first, then families grouped by the split they refine (superset value,
    then split subset in canonical order), patterns in increasing bit order."""
    table, bits = ext_table(frame), _bits_of(frame)
    if not 1 <= n <= MAX_SUCCESSORS:
        raise SizeGuardError(f"successor count {n} outside 1..{MAX_SUCCESSORS}")
    plain = np.arange(len(bits))
    # per superset value, each proper nonempty subset of its own set, a member per pattern
    own_bits = bits[table.own][:, None]
    sup, own = np.nonzero((bits & own_bits == bits) & (bits != own_bits))
    members = (1 << n) - 1
    sup, own = np.repeat(sup, members), np.repeat(own, members)
    pattern = np.tile(np.arange(1, members + 1), len(sup) // members)
    # the row of each @ value, by (superset value, own subset)
    at_row = np.zeros((len(table.own), len(bits)), dtype=np.int64)
    at_row[table.sup[table.at], table.own[table.at]] = table.row[table.at]
    row = np.where(pattern >> np.arange(n)[:, None] & 1, at_row[sup, own], table.row[sup])
    return _frozen(
        VectorTable(
            np.concatenate([plain, own]),
            np.concatenate([np.full(len(bits), -1), sup]),
            np.concatenate([np.zeros_like(plain), pattern]),
            np.hstack([np.tile(plain, (n, 1)), row]),
        )
    )


@lru_cache(maxsize=None)
def ext_vectors(frame: Frame, n: int) -> tuple[ExtVector, ...]:
    """All extended vectors for a node with n successors, in ``vector_table`` order."""
    subsets, values, table = subsets_of(frame), ext_values(frame), vector_table(frame, n)
    return tuple(
        ExtVector(subsets[o], n) if s < 0 else ExtVector(subsets[o], n, values[s], p)
        for o, s, p in zip(*(column.tolist() for column in table[:3]))
    )


def component(vec: ExtVector, h: int) -> ExtValue:
    """The ExtValue this vector contributes on successor edge h (1-based)."""
    if not 1 <= h <= vec.n:
        raise ValueError(f"edge index {h} outside 1..{vec.n}")
    if vec.is_plain:
        return ExtValue(vec.own)
    op = OP_AT if vec.pattern >> (h - 1) & 1 else OP_DOT
    return ExtValue(vec.own, op, vec.sup)


def _own(value) -> SubsetMask:
    return value if isinstance(value, SubsetMask) else value.own


def own_index(domain) -> np.ndarray:
    """Per value of ``domain``, the index of its own subset in ``subsets_of`` order."""
    pos = _subset_pos(domain[0].frame)
    return np.array([pos[_own(v).bits] for v in domain], dtype=np.int64)

