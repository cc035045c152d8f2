"""Extended variable domains used by the sampling construction.

An ExtValue is either a plain subset of a frame or a compound ``s o V`` /
``s @ V`` built from a proper nonempty subset ``s`` of an existing value's own
set.  Every value carries ``own`` (the subset it collapses to) and ``sup``
(the coarser value it was split from, if any).

An ExtVector is the n-successor form: either ``n`` copies of a plain subset,
or a family member that feeds each successor one compound component.  The
all-``o`` component pattern is excluded from families by construction.

Their printed forms are the literals of the ``cpt`` dump; nothing reads them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import SizeGuardError
from .tables import (
    Frame,
    SubsetMask,
    _by_fields,
    _hash_once,
    _stored_hash,
    _subset_pos,
    subsets_of,
)

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
        _hash_once(self, self.own, self.op, self.sup)

    __hash__ = _stored_hash
    __reduce__ = _by_fields

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
        _hash_once(self, self.own, self.n, self.sup, self.pattern)

    __hash__ = _stored_hash
    __reduce__ = _by_fields

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


@lru_cache(maxsize=None)
def _proper_subsets(frame: Frame) -> dict[int, tuple[SubsetMask, ...]]:
    """Per subset's bits, its proper nonempty subsets in canonical order."""
    subs = subsets_of(frame)
    return {t.bits: tuple(s for s in subs if s.bits & t.bits == s.bits != t.bits) for t in subs}


@lru_cache(maxsize=None)
def ext_values(frame: Frame) -> tuple[ExtValue, ...]:
    """All extended values of a frame, in canonical order.

    Plain subsets come first (canonical subset order), then compounds level by
    level: each level splits every value of the previous level, listing the
    ``o`` compounds before the ``@`` compounds.
    """
    _guard_frame(frame)
    proper = _proper_subsets(frame)
    plain = [ExtValue(s) for s in subsets_of(frame)]
    out = list(plain)
    level = plain
    while True:
        nxt = [
            ExtValue(s, op, v) for op in (OP_DOT, OP_AT) for v in level for s in proper[v.own.bits]
        ]
        if not nxt:
            return tuple(out)
        out.extend(nxt)
        level = nxt


@lru_cache(maxsize=None)
def _ext_value_pos(frame: Frame) -> dict[ExtValue, int]:
    return {v: i for i, v in enumerate(ext_values(frame))}


def ext_value_index(value: ExtValue) -> int:
    return _ext_value_pos(value.frame)[value]


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


@lru_cache(maxsize=None)
def ext_table(frame: Frame) -> ExtTable:
    values = ext_values(frame)
    pos, plain = _ext_value_pos(frame), _subset_pos(frame)
    own = [plain[v.own.bits] for v in values]
    sup = [-1 if v.is_plain else pos[v.sup] for v in values]
    at = [v.op == OP_AT for v in values]
    row, derived = [], {}
    for o, s, a in zip(own, sup, at):
        if s < 0:
            row.append(o)
        elif a:
            row.append(derived.setdefault((o, row[s]), len(plain) + len(derived)))
        else:
            row.append(row[s])
    first = np.unique(row, return_index=True)[1]
    table = ExtTable(*map(np.array, (own, sup, at, row)), first)
    for column in table:
        column.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def ext_vectors(frame: Frame, n: int) -> tuple[ExtVector, ...]:
    """All extended vectors for a node with n successors, in canonical order.

    Plain vectors first, then families grouped by the split they refine
    (superset value, then split subset), patterns in increasing bit order.
    """
    _guard_frame(frame)
    if not 1 <= n <= MAX_SUCCESSORS:
        raise SizeGuardError(f"successor count {n} outside 1..{MAX_SUCCESSORS}")
    proper = _proper_subsets(frame)
    out = [ExtVector(s, n) for s in subsets_of(frame)]
    for sup in ext_values(frame):
        for s in proper[sup.own.bits]:
            out.extend(ExtVector(s, n, sup, pattern) for pattern in range(1, 1 << n))
    return tuple(out)


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

