"""Frames, subset literals, conditional tables, and the mass <-> commonality transforms.

A conditional table maps (parent configuration of subsets, child subset) to a
real number, in one of two forms: mass (``kind="m"``), whose values may be
negative, or commonality (``kind="k"``), the superset-cumulated form whose rows
are probability distributions.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import IO, Iterable

import numpy as np

from .errors import InfeasibleModelError, SubsetParseError

# Tolerance ladder: algebraic identities / row sums, of given and computed
# tables alike / the joint's total nonempty mass, a warning only.
EXACT_TOL = 1e-12
ROWSUM_TOL = 1e-9
REPORT_TOL = 1e-6
# Row-sum convention on mass tables is a heuristic check only; inputs are
# often rounded to 6 significant digits, so it gets a looser tolerance.
CONVENTION_TOL = 1e-5


@dataclass(frozen=True)
class Frame:
    """An ordered set of values of one variable."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError(f"frame {self.name!r} needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"frame {self.name!r} has duplicate value labels")

    def __len__(self) -> int:
        return len(self.values)


@lru_cache(maxsize=None)
def _subset_bits(size: int) -> np.ndarray:
    """Membership bits of each nonempty subset of a frame of ``size`` values,
    in canonical order: by size, then by the bits as a number."""
    bits = np.array(sorted(range(1, 1 << size), key=lambda b: (b.bit_count(), b)))
    bits.setflags(write=False)
    return bits


@lru_cache(maxsize=None)
def subset_literals(frame: Frame) -> tuple[str, ...]:
    """The literal of each nonempty subset of ``frame`` in canonical order
    (``{a}``, ``{b}``, ``{a,b}``, ...): a subset is its position here."""
    values = frame.values
    return tuple(
        "{" + ",".join(v for i, v in enumerate(values) if b >> i & 1) + "}"
        for b in _subset_bits(len(frame)).tolist()
    )


@lru_cache(maxsize=None)
def _literal_pos(frame: Frame) -> dict[str, int]:
    return {text: i for i, text in enumerate(subset_literals(frame))}


@lru_cache(maxsize=None)
def _subset_pos(size: int) -> dict[int, int]:
    return {b: i for i, b in enumerate(_subset_bits(size).tolist())}


def subset_index(text: str, frame: Frame) -> int:
    """Position in ``subset_literals`` order of the subset a literal like
    ``{a,b}`` names; the canonical spelling is looked up, any other parsed.

    Rejects unknown labels, duplicates, and empty braces.
    """
    pos = _literal_pos(frame).get(text)
    if pos is not None:
        return pos
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise SubsetParseError(f"subset literal must be brace-delimited, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        raise SubsetParseError(f"empty subset literal {text!r}")
    bits = 0
    for label in (p.strip() for p in inner.split(",")):
        try:
            i = frame.values.index(label)
        except ValueError:
            raise SubsetParseError(
                f"unknown label {label!r} for frame {frame.name!r} (values: {', '.join(frame.values)})"
            ) from None
        if bits >> i & 1:
            raise SubsetParseError(f"duplicate label {label!r} in {text!r}")
        bits |= 1 << i
    return _subset_pos(len(frame))[bits]


class CondTable:
    """Dense conditional table over product configurations, in mass
    (``kind="m"``) or commonality (``kind="k"``) form.

    Rows are indexed by the mixed-radix encoding of the parent configuration
    (last parent varies fastest); columns follow the child's canonical subset
    order.  Instances are immutable after construction.
    """

    def __init__(
        self, child_frame: Frame, parent_frames: tuple[Frame, ...], values: np.ndarray, kind: str
    ):
        if kind not in ("m", "k"):
            raise ValueError(f"table kind must be 'm' or 'k', got {kind!r}")
        self.kind = kind
        self.child_frame = child_frame
        self.parent_frames = tuple(parent_frames)
        self._dims = tuple((1 << len(f)) - 1 for f in self.parent_frames)
        rows = int(np.prod(self._dims)) if self._dims else 1
        ncols = (1 << len(child_frame)) - 1
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (rows, ncols):
            raise ValueError(f"table shape {values.shape} != expected ({rows}, {ncols})")
        if not np.all(np.isfinite(values)):
            raise ValueError("table contains non-finite values")
        values = values.copy()
        values.setflags(write=False)
        self.values = values

    def config(self, r: int) -> tuple[str, ...]:
        """The parent configuration of row ``r``, as subset literals."""
        idx = np.unravel_index(r, self._dims)
        return tuple(subset_literals(f)[i] for f, i in zip(self.parent_frames, idx))


def superset_sums(a: np.ndarray, axes: Iterable[int], inverse: bool = False) -> np.ndarray:
    """Superset sums of ``a`` in place along each of ``axes``; returns ``a``.

    Each of those axes has length 2^k and is indexed by subset bits, index 0
    being the empty set.  Per axis, the zeta transform sets ``a[A]`` to the sum
    of ``a[B]`` over every ``B`` containing ``A``; its Moebius inverse
    (``inverse=True``) undoes it.  One pass per frame value (Kennes & Smets,
    UAI 1990).
    """
    if not a.flags.c_contiguous:
        raise ValueError("superset sums work in place on a C-contiguous array")
    for axis in axes:
        k = a.shape[axis].bit_length() - 1
        # a view with one length-2 axis per frame value; lo lacks the value, hi has it
        split = a.reshape(a.shape[:axis] + (2,) * k + a.shape[axis + 1 :])
        for b in range(axis, axis + k):
            lo = split[(slice(None),) * b + (0,)]
            hi = split[(slice(None),) * b + (1,)]
            if inverse:
                lo -= hi
            else:
                lo += hi
    return a


def bit_ordered(table: CondTable) -> np.ndarray:
    """The table as a dense array over (parents..., child), each axis indexed
    by subset bits; cells with an empty subset are zero."""
    dense = np.zeros([1 << len(f) for f in table.parent_frames + (table.child_frame,)])
    dense[_bit_index(table)] = table.values.reshape(table._dims + (-1,))
    return dense


def _bit_index(table: CondTable) -> tuple[np.ndarray, ...]:
    """Where the table's cells sit in its bit-ordered form."""
    frames = table.parent_frames + (table.child_frame,)
    return np.ix_(*(_subset_bits(len(f)) for f in frames))


def _parent_superset_sums(table: CondTable, inverse: bool) -> np.ndarray:
    """The table's values summed over parent supersets: its commonality form
    from a mass table, or (``inverse``) its mass form from a commonality table."""
    if table.kind != ("k" if inverse else "m"):
        raise ValueError(f"node {table.child_frame.name}: the table is already kind={table.kind}")
    dense = superset_sums(bit_ordered(table), range(len(table.parent_frames)), inverse)
    return dense[_bit_index(table)].reshape(table.values.shape)


def mass_to_commonality(m: CondTable) -> CondTable:
    """Cumulate conditional mass over coarser (superset) parent configurations.

    The result is nonnegative with unit row sums for well-formed inputs.
    Values in [-EXACT_TOL, 0] are clamped to zero; anything lower raises
    InfeasibleModelError naming the node and the first such cell, as for a
    given commonality table (the input has no such representation).
    """
    vals = _parent_superset_sums(m, inverse=False)
    negatives, _ = commonality_faults(CondTable(m.child_frame, m.parent_frames, vals, "k"))
    if negatives:
        raise InfeasibleModelError(f"node {m.child_frame.name}: negative commonality {negatives[0]}")
    return CondTable(m.child_frame, m.parent_frames, np.clip(vals, 0.0, None), "k")


def commonality_to_mass(k: CondTable) -> CondTable:
    """Exact inverse of mass_to_commonality (signed superset sums per parent axis)."""
    return CondTable(k.child_frame, k.parent_frames, _parent_superset_sums(k, inverse=True), "m")


@dataclass
class ValidationReport:
    """Violations (errors) and advisories (warnings) found by a check."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def extend(self, other: "ValidationReport") -> None:
        self.errors.extend(other.errors)
        self.warnings.extend(other.warnings)

    def __str__(self) -> str:
        lines = [f"error: {e}" for e in self.errors] + [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines) if lines else "ok"


def validate_table(t: CondTable) -> ValidationReport:
    """Check table-level numeric contracts.

    Every table is held to the commonality contract in its commonality form
    (a mass table's superset sums, as the CPT build derives them): no value
    below -EXACT_TOL, rows summing to one.  Mass tables are also checked
    against the observed convention that child masses sum to one when every
    conditioning coordinate is the full set and to zero otherwise; deviations
    are warnings, not errors.
    """
    report = ValidationReport()
    name = t.child_frame.name
    k = t
    if t.kind == "m":
        k = CondTable(t.child_frame, t.parent_frames, _parent_superset_sums(t, False), "k")
        sums = t.values.sum(axis=1)
        want = np.zeros_like(sums)
        want[-1] = 1.0  # the all-full-sets configuration is the last row
        for r in np.flatnonzero(np.abs(sums - want) > CONVENTION_TOL):
            report.warnings.append(
                f"{name}: mass row {cfg_text(t.config(r))} sums to {sums[r]:.9f}, "
                f"convention expects {want[r]:g}"
            )
    negatives, rows = commonality_faults(k)
    report.errors += [f"{name}: {row}" for row in rows]
    report.errors += [f"{name}: negative value {cell}" for cell in negatives]
    return report


def commonality_faults(t: CondTable) -> tuple[list[str], list[str]]:
    """Where ``t`` breaks the commonality-table contract: its cells below
    -EXACT_TOL, as ``v at (cfg ; child)``, and its rows that do not sum to one
    within ROWSUM_TOL, as ``row cfg sums to s, expected 1``; each in row order."""
    children = subset_literals(t.child_frame)
    negatives = [
        f"{t.values[r, c]:.6g} at ({cfg_text(t.config(r))} ; {children[c]})"
        for r, c in zip(*np.nonzero(t.values < -EXACT_TOL))
    ]
    sums = t.values.sum(axis=1)
    rows = [
        f"row {cfg_text(t.config(r))} sums to {sums[r]:.9f}, expected 1"
        for r in np.flatnonzero(np.abs(sums - 1.0) > ROWSUM_TOL)
    ]
    return negatives, rows


def csv_cells(values: Iterable) -> list[str]:
    """Each value's text as the csv module writes it in a row (quoted when it
    holds a comma)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([str(v)] for v in values)
    return buf.getvalue().split("\n")[:-1]


def cfg_text(cfg: tuple) -> str:
    """A parent configuration in table-row syntax, space-separated; ``()`` if empty."""
    return " ".join(cfg) if cfg else "()"


_WRITE_CELLS = 1 << 14  # lines formatted at a time


def write_cells(stream: IO[str], header: list, axes: list, values: np.ndarray, rows: np.ndarray):
    """Write ``header`` as a CSV row, then a line ``x,...,x,v`` per ``(i, c)`` in
    C order: the CSV cells of the i-th combination of ``axes[:-1]`` (C order)
    and of ``axes[-1][c]``, then ``values[rows[i], c]`` as ``%.9f``.  A block
    of lines formats each row it reads once."""
    csv.writer(stream, lineterminator="\n").writerow(header)
    *outer, items = [[t + "," for t in csv_cells(a)] for a in axes]
    prefixes = map("".join, itertools.product(*outer))
    width = len(items)
    step = max(1, _WRITE_CELLS // width)
    for lo in range(0, len(rows), step):
        used, at = np.unique(rows[lo : lo + step], return_inverse=True)
        cells = values[used].ravel().tolist()
        figures = (("%.9f\n" * len(cells)) % tuple(cells)).splitlines(keepends=True)
        texts = list(map(str.__add__, items * len(used), figures))
        # ``starts`` first: zip stops at the block's end without drawing a prefix past it
        starts = (at * width).tolist()
        stream.write("".join(p + p.join(texts[s : s + width]) for s, p in zip(starts, prefixes)))
