"""Frames, subset masks, conditional tables, and the mass <-> commonality transforms.

A conditional table maps (parent configuration of subsets, child subset) to a
real number.  Mass tables may carry negative values; commonality tables are the
superset-cumulated form whose rows are probability distributions.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import IO, Iterable, Iterator

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


# Frozen values hash once, at construction: ``__post_init__`` calls
# ``_hash_once`` and the class sets ``__hash__ = _stored_hash``.  They pickle
# by their fields, without the stored hash, since string hashes differ
# between processes; unpickling constructs them afresh.


def _hash_once(obj, *fields) -> None:
    object.__setattr__(obj, "_hash", hash(fields))


def _stored_hash(obj) -> int:
    return obj._hash


def _by_fields(obj):
    return type(obj), tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


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
        _hash_once(self, self.name, self.values)

    __hash__ = _stored_hash
    __reduce__ = _by_fields

    def __len__(self) -> int:
        return len(self.values)

    @property
    def full_bits(self) -> int:
        return (1 << len(self.values)) - 1


@dataclass(frozen=True)
class SubsetMask:
    """A nonempty subset of one frame's values, stored as membership bits."""

    frame: Frame
    bits: int

    def __post_init__(self):
        if not 0 < self.bits <= self.frame.full_bits:
            raise ValueError(f"invalid subset bits {self.bits:#x} for frame {self.frame.name!r}")
        _hash_once(self, self.frame, self.bits)

    __hash__ = _stored_hash
    __reduce__ = _by_fields

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def labels(self) -> tuple[str, ...]:
        return tuple(v for i, v in enumerate(self.frame.values) if self.bits >> i & 1)

    def issubset(self, other: "SubsetMask") -> bool:
        return self.bits & other.bits == self.bits

    def __str__(self) -> str:
        return "{" + ",".join(self.labels()) + "}"


@lru_cache(maxsize=None)
def subsets_of(frame: Frame) -> tuple[SubsetMask, ...]:
    """All nonempty subsets in canonical order: by size, then by lowest members."""
    masks = sorted(range(1, frame.full_bits + 1), key=lambda b: (b.bit_count(), b))
    return tuple(SubsetMask(frame, b) for b in masks)


@lru_cache(maxsize=None)
def _subset_pos(frame: Frame) -> dict[int, int]:
    return {s.bits: i for i, s in enumerate(subsets_of(frame))}


@lru_cache(maxsize=None)
def _literal_pos(frame: Frame) -> dict[str, int]:
    return {str(s): i for i, s in enumerate(subsets_of(frame))}


def subset_index(text: str, frame: Frame) -> int:
    """Position in ``subsets_of`` order of the subset a literal names; the
    canonical spelling is looked up, any other goes to ``parse_subset_label``."""
    pos = _literal_pos(frame).get(text)
    if pos is None:
        pos = _subset_pos(frame)[parse_subset_label(text, frame).bits]
    return pos


def parse_subset_label(text: str, frame: Frame) -> SubsetMask:
    """Parse a literal like ``{a,b}`` against a frame.

    Rejects unknown labels, duplicates, and empty braces.
    """
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
    return SubsetMask(frame, bits)


class _CondTable:
    """Dense conditional table over product configurations.

    Rows are indexed by the mixed-radix encoding of the parent configuration
    (last parent varies fastest); columns follow the child's canonical subset
    order.  Instances are immutable after construction.
    """

    kind = "?"

    def __init__(self, child_frame: Frame, parent_frames: tuple[Frame, ...], values: np.ndarray):
        self.child_frame = child_frame
        self.parent_frames = tuple(parent_frames)
        self._dims = tuple(len(subsets_of(f)) for f in self.parent_frames)
        rows = int(np.prod(self._dims)) if self._dims else 1
        ncols = len(subsets_of(child_frame))
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (rows, ncols):
            raise ValueError(f"table shape {values.shape} != expected ({rows}, {ncols})")
        if not np.all(np.isfinite(values)):
            raise ValueError("table contains non-finite values")
        values = values.copy()
        values.setflags(write=False)
        self.values = values

    def configs(self) -> Iterator[tuple[SubsetMask, ...]]:
        """Parent configurations in row order."""
        return itertools.product(*(subsets_of(f) for f in self.parent_frames))

    def config(self, r: int) -> tuple[SubsetMask, ...]:
        """The parent configuration of row ``r``."""
        idx = np.unravel_index(r, self._dims)
        return tuple(subsets_of(f)[i] for f, i in zip(self.parent_frames, idx))

    def items(self) -> Iterator[tuple[tuple[SubsetMask, ...], SubsetMask, float]]:
        children = subsets_of(self.child_frame)
        for r, cfg in enumerate(self.configs()):
            for c, child in enumerate(children):
                yield cfg, child, float(self.values[r, c])


class CondMassTable(_CondTable):
    """Conditional mass table; values may be negative."""

    kind = "m"


class CondCommonalityTable(_CondTable):
    """Superset-cumulated conditional table; rows are probability distributions."""

    kind = "k"


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


@lru_cache(maxsize=None)
def _bits_of(frame: Frame) -> np.ndarray:
    """Membership bits of each nonempty subset, in canonical order."""
    bits = np.array([s.bits for s in subsets_of(frame)])
    bits.setflags(write=False)
    return bits


def bit_ordered(table: _CondTable) -> np.ndarray:
    """The table as a dense array over (parents..., child), each axis indexed
    by subset bits; cells with an empty subset are zero."""
    dense = np.zeros([1 << len(f) for f in table.parent_frames + (table.child_frame,)])
    dense[_bit_index(table)] = table.values.reshape(table._dims + (-1,))
    return dense


def _bit_index(table: _CondTable) -> tuple[np.ndarray, ...]:
    """Where the table's cells sit in its bit-ordered form."""
    return np.ix_(*map(_bits_of, table.parent_frames + (table.child_frame,)))


def _parent_superset_sums(table: _CondTable, inverse: bool) -> np.ndarray:
    dense = superset_sums(bit_ordered(table), range(len(table.parent_frames)), inverse)
    return dense[_bit_index(table)].reshape(table.values.shape)


def mass_to_commonality(m: CondMassTable) -> CondCommonalityTable:
    """Cumulate conditional mass over coarser (superset) parent configurations.

    The result is nonnegative with unit row sums for well-formed inputs.
    Values in [-EXACT_TOL, 0] are clamped to zero; anything lower raises
    InfeasibleModelError naming the node and the first such cell, as for a
    given commonality table (the input has no such representation).
    """
    vals = _parent_superset_sums(m, inverse=False)
    negatives, _ = commonality_faults(CondCommonalityTable(m.child_frame, m.parent_frames, vals))
    if negatives:
        raise InfeasibleModelError(f"node {m.child_frame.name}: negative commonality {negatives[0]}")
    return CondCommonalityTable(m.child_frame, m.parent_frames, np.clip(vals, 0.0, None))


def commonality_to_mass(k: CondCommonalityTable) -> CondMassTable:
    """Exact inverse of mass_to_commonality (signed superset sums per parent axis)."""
    return CondMassTable(k.child_frame, k.parent_frames, _parent_superset_sums(k, inverse=True))


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


def validate_table(t: _CondTable) -> ValidationReport:
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
        k = CondCommonalityTable(t.child_frame, t.parent_frames, _parent_superset_sums(t, False))
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


def commonality_faults(t: _CondTable) -> tuple[list[str], list[str]]:
    """Where ``t`` breaks the commonality-table contract: its cells below
    -EXACT_TOL, as ``v at (cfg ; child)``, and its rows that do not sum to one
    within ROWSUM_TOL, as ``row cfg sums to s, expected 1``; each in row order."""
    children = subsets_of(t.child_frame)
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
    """A parent configuration as comma-joined literals, ``()`` when empty."""
    return ",".join(str(c) for c in cfg) if cfg else "()"


# The cell writer builds each line as a row of bytes, its pieces padded with
# _PAD, and writes a block of lines as what is left without the padding.
_PAD = 0xFF  # never a byte of UTF-8 text
_WRITE_CELLS = 1 << 14  # cells formatted at a time


def write_cells(stream: IO[str], header: list[str], axes: list[Iterable], values: np.ndarray):
    """Write ``header`` as a CSV row, then one line ``x,...,x,v`` per cell of
    ``values``, a product of ``axes``, in C order: each ``x`` is the CSV cell
    of an item of ``axes[j]`` and ``v`` is the value as ``%.9f``."""
    csv.writer(stream, lineterminator="\n").writerow(header)
    *outer, last = [_padded([t + "," for t in csv_cells(a)]) for a in axes] or [_padded([""])]
    prefix = np.zeros((1, 0), dtype=np.uint8)
    for c in outer:
        prefix = np.hstack([np.repeat(prefix, len(c), axis=0), np.tile(c, (len(prefix), 1))])
    values = np.reshape(values, (len(prefix), len(last)))
    step = max(1, _WRITE_CELLS // len(last))
    for lo in range(0, len(prefix), step):
        v = values[lo : lo + step]
        stream.write(_lines([prefix[lo : lo + step, None], last, _fixed9(v)], v.shape))


def _lines(pieces: list[np.ndarray], shape: tuple[int, ...]) -> str:
    """The text of one line per index of ``shape``: the padded byte pieces,
    each broadcast to ``shape`` plus its own width, side by side, then a newline."""
    rows = [np.broadcast_to(p, shape + p.shape[-1:]) for p in [*pieces, _padded(["\n"])]]
    lines = np.concatenate(rows, axis=-1)
    return lines[lines != _PAD].tobytes().decode()


def _padded(texts: list[str], width: int = 0) -> np.ndarray:
    """Each text's UTF-8 bytes as a row of a uint8 matrix at least ``width``
    wide, padded with _PAD."""
    raw = [t.encode() for t in texts]
    lengths = np.array([len(b) for b in raw], dtype=np.int64)
    out = np.full((len(raw), max(width, lengths.max(initial=0))), _PAD, dtype=np.uint8)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(raw), dtype=np.uint8)
    return out


def _fixed9(p: np.ndarray) -> np.ndarray:
    """``f"{x:.9f}"`` of every ``x`` in ``p``, as padded bytes along a new last axis.

    A cell with |x| < 10 is written as its sign and ``rint(|x| * 1e9)``: the
    product is off by less than 1e-6, so its nearest integer is the correctly
    rounded one unless it lies within 1e-6 of a half.  Those cells, and larger
    or non-finite ones, are formatted by Python.
    """
    scaled = np.abs(p) * 1e9
    q = np.rint(scaled)
    fast = (q < 1e10) & (np.abs(scaled - np.floor(scaled) - 0.5) >= 1e-6)
    slow = [f"{x:.9f}" for x in p[~fast].tolist()]
    out = np.full(p.shape + (max([12, *map(len, slow)]),), _PAD, dtype=np.uint8)
    out[..., 0] = np.where(np.signbit(p), ord("-"), _PAD)
    out[..., 2] = ord(".")
    q = np.where(fast, q, 0).astype(np.int64)
    for at in (11, 10, 9, 8, 7, 6, 5, 4, 3, 1):  # the digits of q, last first
        out[..., at] = q % 10 + ord("0")
        q //= 10
    out[~fast] = _padded(slow, out.shape[-1])
    return out
