"""Extended variable domains used by the sampling construction.

An extended value is either a plain subset of a frame or a compound ``s o V``
/ ``s @ V`` split from an existing value ``V`` by a proper nonempty subset
``s`` of its own set.  An extended vector is the n-successor form: either
``n`` copies of a plain subset, or a family member that feeds each successor
edge ``s o V`` or ``s @ V`` for one split ``s`` of ``V``; its pattern selects
``@`` on at least one edge, so the all-``o`` pattern is excluded from families.

``ext_table`` and ``vector_table`` hold both layouts as integer arrays, one
per frame size, and every program path reads those.  ``value_literals`` and
``vector_literals`` print them, for the ``cpt`` dump and refusals; nothing
reads that text back.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import SizeGuardError
from .tables import Frame, _subset_bits, subset_literals

OP_DOT = "o"  # behaves as its superset value
OP_AT = "@"  # resolved by averaging against the superset value

MAX_FRAME = 4
MAX_SUCCESSORS = 6


class ExtTable(NamedTuple):
    """Per extended value of a frame, in canonical order: the index of
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


def ext_table(frame: Frame) -> ExtTable:
    """The extended values of ``frame``: one table per frame size."""
    if len(frame) > MAX_FRAME:
        raise SizeGuardError(
            f"frame {frame.name!r} has {len(frame)} values; extended domains support at most {MAX_FRAME}"
        )
    return _ext_table(len(frame))


@lru_cache(maxsize=None)
def _ext_table(size: int) -> ExtTable:
    """The extended values in canonical order: plain subsets first (canonical
    subset order), then compounds level by level.  Each level splits every
    value of the previous level by each proper nonempty subset of its own set,
    in canonical order, listing the ``o`` compounds before the ``@`` compounds."""
    bits = _subset_bits(size).tolist()
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


class VectorTable(NamedTuple):
    """Per extended vector of a frame for n successors, in canonical order:
    the index of its own subset, that of its superset value in ``ext_table``
    (-1 for a plain vector) and its pattern; and ``row[h - 1]``, per
    vector the ``ext_table.row`` of the value it feeds edge h."""

    own: np.ndarray
    sup: np.ndarray
    pattern: np.ndarray
    row: np.ndarray


def vector_table(frame: Frame, n: int) -> VectorTable:
    """The extended vectors of ``frame`` for n successors: one table per frame size."""
    ext_table(frame)  # the frame guard
    return _vector_table(len(frame), n)


@lru_cache(maxsize=None)
def _vector_table(size: int, n: int) -> VectorTable:
    """The extended vectors for n successors in canonical order: plain vectors
    first, then families grouped by the split they refine (superset value,
    then split subset in canonical order), patterns in increasing bit order."""
    table, bits = _ext_table(size), _subset_bits(size)
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


def value_literals(frame: Frame) -> tuple[str, ...]:
    """The text of each extended value of ``frame``, in ``ext_table`` order: a
    plain value prints as its subset, a compound as its subset, its operator
    and its superset value's text, so ``{a}@{a,b}o{a,b,c}`` nests to the right."""
    ext_table(frame)  # the frame guard
    return _value_literals(subset_literals(frame))


@lru_cache(maxsize=None)
def _value_literals(subsets: tuple[str, ...]) -> tuple[str, ...]:
    table, out = _ext_table(len(subsets).bit_length()), []  # 2**size - 1 subsets
    for o, s, a in zip(*(column.tolist() for column in table[:3])):
        out.append(subsets[o] if s < 0 else subsets[o] + (OP_AT if a else OP_DOT) + out[s])
    return tuple(out)


def vector_literals(frame: Frame, n: int) -> tuple[str, ...]:
    """The text of each extended vector of ``frame`` for n successors, in
    ``vector_table`` order: ``[c1;...;cn]``, where ``ch``, the value fed to
    edge h, is a plain vector's subset, or a family member's subset, ``@``
    where pattern bit h-1 is set and ``o`` where it is not, then its superset
    value's text."""
    vector_table(frame, n)  # the frame and successor guards
    return _vector_literals(subset_literals(frame), n)


@lru_cache(maxsize=None)
def _vector_literals(subsets: tuple[str, ...], n: int) -> tuple[str, ...]:
    table, values = _vector_table(len(subsets).bit_length(), n), _value_literals(subsets)
    out = []
    for o, s, p in zip(*(column.tolist() for column in table[:3])):
        if s < 0:
            parts = [subsets[o]] * n
        else:
            split = [subsets[o] + op + values[s] for op in (OP_DOT, OP_AT)]
            parts = [split[p >> h & 1] for h in range(n)]
        out.append("[" + ";".join(parts) + "]")
    return tuple(out)
