"""Unnormalized conjunctive combination: the exact joint mass of a network.

Composing a root table with conditional tables this way yields the exact
joint mass function of a network; the result may carry negative values,
which is precisely what the sampling construction works around.  Mass that
lands on an empty intersection is tracked separately and never redistributed.

Conjunctive combination is the pointwise product of commonality functions
(Shafer 1976).  Every focal element is a product of per-variable subsets, so
the product is taken on a dense array indexed by per-variable subset bits,
empty subsets included: each table's superset sums are multiplied in by
broadcasting, and one Moebius inverse turns the product back into mass.  The
joint keeps the nonempty products, laid out as ``exact_collapsed_joint``'s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO

import numpy as np

from .errors import SizeGuardError
from .network import Network, topological_order
from .tables import (
    EXACT_TOL,
    REPORT_TOL,
    CondCommonalityTable,
    Frame,
    _bits_of,
    _fixed9,
    _lines,
    _padded,
    bit_ordered,
    commonality_to_mass,
    subsets_of,
    superset_sums,
    write_cells,
)

MAX_CELLS = 1 << 23  # entries of the dense array, one axis of 2^|frame| per variable


@dataclass(eq=False)
class JointMass:
    """A joint mass function over a fixed variable scope.

    ``array`` holds the mass of every product of nonempty subsets, zero or
    not: axis j runs over ``subsets_of(frames[j])``.  ``empty_mass``
    accumulates anything that hit an empty intersection.
    """

    frames: tuple[Frame, ...]
    array: np.ndarray
    empty_mass: float = 0.0

    @property
    def scope(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.frames)

    @cached_property
    def entries(self) -> dict[tuple[int, ...], float]:
        """Every cell of ``array``, keyed by its per-variable subset bits."""
        keys = itertools.product(*(_bits_of(f).tolist() for f in self.frames))
        return dict(zip(keys, self.array.ravel().tolist()))


@dataclass(eq=False)
class NegativityReport:
    """The cells of a joint mass function below -EXACT_TOL, as rows of
    indices into ``JointMass.array`` sorted by their subset bits, and their
    ``values``, plus bookkeeping totals."""

    frames: tuple[Frame, ...]
    negatives: np.ndarray
    values: np.ndarray
    min_entry: float
    total_nonempty: float
    empty_mass: float
    warnings: list[str] = field(default_factory=list)

    @property
    def proper(self) -> bool:
        return not len(self.values)

    def __str__(self) -> str:
        lines = [
            f"focal elements below -{EXACT_TOL:g}: {len(self.values)}",
            f"minimum entry: {self.min_entry:.9f}",
            f"total nonempty mass: {self.total_nonempty:.9f}",
            f"empty-intersection mass: {self.empty_mass:.9f}",
        ]
        if not self.proper:  # "  ({a},{a,b}) : -0.000000001" per cell
            texts = [[f"{s}," for s in subsets_of(f)] for f in self.frames]
            texts[-1] = [t[:-1] + ") : " for t in texts[-1]]
            cells = [_padded(t)[i] for t, i in zip(texts, self.negatives.T)]
            text = _lines([_padded(["  ("]), *cells, _fixed9(self.values)], self.values.shape)
            lines.append(text[:-1])
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines)


def network_joint(net: Network) -> tuple[JointMass, NegativityReport]:
    """Combine all node tables into the joint and its negativity report."""
    names = list(net.variables)
    frames = tuple(net.frame(n) for n in names)
    cells = math.prod(1 << len(f) for f in frames)
    if cells > MAX_CELLS:
        raise SizeGuardError(f"joint array would hold {cells} cells (limit {MAX_CELLS})")
    commonality = np.ones([1 << len(f) for f in frames])
    for name in topological_order(net):
        table = net.node(name).table
        if isinstance(table, CondCommonalityTable):
            table = commonality_to_mass(table)
        axes = [names.index(f.name) for f in table.parent_frames + (table.child_frame,)]
        factor = superset_sums(bit_ordered(table), range(len(axes)))
        # the table's axes in scope order, length 1 on the other variables
        shape = [1] * len(names)
        for axis, size in zip(axes, factor.shape):
            shape[axis] = size
        commonality *= factor.transpose(np.argsort(axes)).reshape(shape)
    mass = superset_sums(commonality, range(len(names)), inverse=True)
    # totals and negatives come from the nonempty block in bit order, which
    # sorts the negatives by subset bits; they are mapped to array positions
    nonempty = mass[(slice(1, None),) * len(names)]
    total = float(nonempty.sum())
    joint = JointMass(frames, mass[np.ix_(*map(_bits_of, frames))], float(mass.sum()) - total)
    negatives = np.argwhere(nonempty < -EXACT_TOL)
    for j, frame in enumerate(frames):
        negatives[:, j] = np.argsort(_bits_of(frame))[negatives[:, j]]
    report = NegativityReport(
        frames=frames,
        negatives=negatives,
        values=nonempty[nonempty < -EXACT_TOL],
        min_entry=float(joint.array.min()),
        total_nonempty=total,
        empty_mass=joint.empty_mass,
    )
    if abs(total - 1.0) > REPORT_TOL:
        report.warnings.append(f"nonempty mass sums to {total:.9f}, expected 1")
    return joint, report


def write_joint_csv(joint: JointMass, stream: IO[str]) -> None:
    """One row per focal element, sorted by the canonical subset literals."""
    # each axis's subsets sorted by literal: their product runs in row order
    literals = [[str(s) for s in subsets_of(f)] for f in joint.frames]
    orders = [sorted(range(len(lits)), key=lits.__getitem__) for lits in literals]
    axes = [[lits[i] for i in order] for lits, order in zip(literals, orders)]
    write_cells(stream, [*joint.scope, "mass"], axes, joint.array[np.ix_(*orders)])
