"""Unnormalized conjunctive combination: the exact joint mass of a network.

Composing a root table with conditional tables this way yields the exact
joint mass function of a network; the result may carry negative values,
which is precisely what the sampling construction works around.  Mass that
lands on an empty intersection is tracked separately and never redistributed.

Conjunctive combination is the pointwise product of commonality functions
(Shafer 1976).  Every focal element is a product of per-variable subsets, so
the product is taken on a dense array indexed by per-variable subset bits,
empty subsets included: each table's superset sums are multiplied in by
broadcasting, and one Moebius inverse turns the product back into mass.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from .errors import SizeGuardError
from .network import Network, topological_order
from .tables import (
    EXACT_TOL,
    REPORT_TOL,
    CondCommonalityTable,
    Frame,
    ProductFocal,
    SubsetMask,
    bit_ordered,
    commonality_to_mass,
    csv_cells,
    subsets_of,
    superset_sums,
)

MAX_CELLS = 1 << 23  # entries of the dense array, one axis of 2^|frame| per variable


@dataclass
class JointMass:
    """A joint mass function over a fixed variable scope.

    ``entries`` maps per-variable subset-bit tuples to mass; ``empty_mass``
    accumulates anything that hit an empty intersection.
    """

    frames: tuple[Frame, ...]
    entries: dict[tuple[int, ...], float] = field(default_factory=dict)
    empty_mass: float = 0.0

    @property
    def scope(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.frames)

    def total(self) -> float:
        return sum(self.entries.values()) + self.empty_mass

    def focal(self, bits: tuple[int, ...]) -> ProductFocal:
        return ProductFocal(tuple(SubsetMask(f, b) for f, b in zip(self.frames, bits)))

    def get(self, masks: Sequence[SubsetMask]) -> float:
        return self.entries.get(tuple(m.bits for m in masks), 0.0)

    def items(self):
        for bits, v in self.entries.items():
            yield self.focal(bits), v


@dataclass
class NegativityReport:
    """Entries of a joint mass function below tolerance, keyed like
    ``JointMass.entries``, plus bookkeeping totals."""

    frames: tuple[Frame, ...]
    negatives: list[tuple[tuple[int, ...], float]]
    min_entry: float
    total_nonempty: float
    empty_mass: float
    warnings: list[str] = field(default_factory=list)

    @property
    def proper(self) -> bool:
        return not self.negatives

    def __str__(self) -> str:
        lines = [
            f"focal elements below -{EXACT_TOL:g}: {len(self.negatives)}",
            f"minimum entry: {self.min_entry:.9f}",
            f"total nonempty mass: {self.total_nonempty:.9f}",
            f"empty-intersection mass: {self.empty_mass:.9f}",
        ]
        literals = [{s.bits: str(s) for s in subsets_of(f)} for f in self.frames]
        lines += [
            f"  ({','.join(lit[b] for lit, b in zip(literals, bits))}) : {v:.9f}"
            for bits, v in self.negatives
        ]
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines)


def network_joint(net: Network) -> tuple[JointMass, NegativityReport]:
    """Combine all node tables; ``entries`` holds every product of nonempty
    subsets, zero or not."""
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
    nonempty = mass[(slice(1, None),) * len(names)]
    keys = itertools.product(*(range(1, 1 << len(f)) for f in frames))
    joint = JointMass(
        frames,
        dict(zip(keys, nonempty.ravel().tolist())),
        float(mass.sum() - nonempty.sum()),
    )
    # argwhere runs in key order, so the negatives come sorted
    negative = nonempty < -EXACT_TOL
    keys = map(tuple, (np.argwhere(negative) + 1).tolist())
    total = float(nonempty.sum())
    report = NegativityReport(
        frames=frames,
        negatives=list(zip(keys, nonempty[negative].tolist())),
        min_entry=float(nonempty.min()),
        total_nonempty=total,
        empty_mass=joint.empty_mass,
    )
    if abs(total - 1.0) > REPORT_TOL:
        report.warnings.append(f"nonempty mass sums to {total:.9f}, expected 1")
    return joint, report


def write_joint_csv(joint: JointMass, stream: IO[str]) -> None:
    """One row per focal element, sorted by the canonical subset literals."""
    csv.writer(stream, lineterminator="\n").writerow(list(joint.scope) + ["mass"])
    # each axis's subsets sorted by literal: their product runs in row order
    axes = [sorted(subsets_of(f), key=str) for f in joint.frames]
    keys = itertools.product(*([s.bits for s in subs] for subs in axes))
    cells = itertools.product(*map(csv_cells, axes))
    for bits, row in zip(keys, cells):
        v = joint.entries.get(bits)
        if v is not None:
            stream.write(",".join(row) + f",{v:.9f}\n")
