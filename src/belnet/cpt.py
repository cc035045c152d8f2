"""Conditional probability tables over extended domains.

A node's CPT is built as a tensor with one axis per parent, over its rows
(``ext_table.row``: one per derivation, shared by the values derived alike),
and a last axis over the child domain, in two steps:

1. The plain block: for all plain parent configurations at once, the
   commonality of each child subset is split across the subset's extended
   class.  Every family that refines the subset from a coarser value receives
   that value's plain-vector probability, divided equally among its members,
   and the plain vector keeps the remainder.  Coarser values are split first.
2. The parent axes are extended one at a time, from the last to the first.
   Along an axis, the slice of each derived row is twice the slice of its own
   subset minus that of its superset row (inclusion-exclusion), so that the
   average of an ``@`` value's two substitution choices reproduces the plain
   slice.  An ``o`` value shares its superset value's row.

Every entry must be nonnegative; otherwise the model admits no such CPT and
construction fails with the offending row, named by the first value of each
parent's row.  Two functions address those rows: ``value_rows`` maps each
combination of parent values to its row, for the dump, and ``row_offsets``
maps the parents' drawn vectors to it, for the sampler and the oracle.
``check_feasibility`` verifies a CPT independently, checking the ``@``
identity along every parent axis, slice against slice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleModelError, StructureError, guard_cells
from .extvals import ext_table, value_literals, vector_literals, vector_table
from .network import Network, edge_index, topological_order, validate_structure
from .tables import (
    EXACT_TOL,
    ROWSUM_TOL,
    CondTable,
    Frame,
    ValidationReport,
    _subset_bits,
    cfg_text,
    commonality_faults,
    mass_to_commonality,
    subset_literals,
)


@dataclass(frozen=True)
class ExtCPT:
    """A CPT whose parents range over extended values and whose child ranges
    over extended vectors (or plain subsets for a node with no successors).
    ``probs`` holds one row per combination of parent rows (``ext_table.row``)
    in C order, and a column per child value; ``source`` is the commonality
    (``kind="k"``) table it was built from.  Program paths read sizes and
    ``own``; the literals of the two domains are built for printed text."""

    node: str
    parent_names: tuple[str, ...]
    probs: np.ndarray
    source: CondTable
    n_successors: int

    @property
    def own(self) -> np.ndarray:
        """The collapse map: per child value, its own subset's index."""
        n, frame = self.n_successors, self.source.child_frame
        return vector_table(frame, n).own if n else np.arange(self.probs.shape[1])

    @property
    def child_domain(self) -> tuple[str, ...]:
        n, frame = self.n_successors, self.source.child_frame
        return vector_literals(frame, n) if n else subset_literals(frame)

    @property
    def parent_domains(self) -> tuple[tuple[str, ...], ...]:
        return tuple(map(value_literals, self.source.parent_frames))


def guard_value_rows(cpt: ExtCPT) -> None:
    """Refuse a CPT whose ``value_rows`` would exceed the cell budget, sized
    from its domains alone."""
    values = math.prod(len(ext_table(f).row) for f in cpt.source.parent_frames)
    _guard_cells(cpt.node, values * cpt.probs.shape[1])


def value_rows(cpt: ExtCPT) -> np.ndarray:
    """The ``cpt.probs`` row of each combination of parent extended values,
    in C order over ``parent_domains``."""
    guard_value_rows(cpt)
    tables = [ext_table(f) for f in cpt.source.parent_frames]
    index = np.arange(len(cpt.probs)).reshape([len(t.first) for t in tables])
    return index[np.ix_(*(t.row for t in tables))].ravel()


def row_offsets(net: Network, cpts: dict[str, ExtCPT], name: str) -> list[tuple[str, np.ndarray]]:
    """How the parents' drawn values address a row of ``name``'s CPT.

    Per parent: its name and, per index into its child domain, the row of the
    value that vector feeds the edge (``vector_table.row``) times the parent's
    stride in the row index (the sum over parents is the row).
    """
    out = []
    stride = cpts[name].probs.shape[0]
    for parent, frame in zip(cpts[name].parent_names, cpts[name].source.parent_frames):
        stride //= len(ext_table(frame).first)
        rows = vector_table(frame, len(net.node(parent).successors)).row
        out.append((parent, rows[edge_index(net, parent, name) - 1] * stride))
    return out


def guard_states(shape) -> int:
    """The cells of a collapsed array of ``shape``; SizeGuardError past the cell budget."""
    size = math.prod(shape)
    return guard_cells(size, f"collapsed state space holds {size} states")


def _guard_cells(node: str, cells: int) -> None:
    guard_cells(cells, f"node {node}: extended CPT would hold {cells} cells")


def _row_names(frames):
    """The configuration text of a row index tuple, one index per frame's
    rows, naming each row by its first value (built on call, so only for a
    text that is printed)."""
    return lambda idx: cfg_text(
        tuple(value_literals(f)[ext_table(f).first[i]] for f, i in zip(frames, idx))
    )


def _plain_rows(krows: np.ndarray, frame: Frame, n: int) -> np.ndarray:
    """Split commonality rows (configurations x subsets) over the extended
    child domain of a node with n >= 1 successors, coarser subsets first."""
    table = ext_table(frame)  # the plain values first, in the table's column order
    bits = _subset_bits(len(frame))[table.own]
    size = np.array([b.bit_count() for b in bits.tolist()])
    share = 1.0 / ((1 << n) - 1)
    # per extended value: its plain vector's probability, or a family member's
    vec_p = np.zeros((len(krows), len(bits)))
    for k in range(len(frame), 0, -1):
        for j in np.flatnonzero(size[: krows.shape[1]] == k):
            coarser = np.flatnonzero((bits & bits[j] == bits[j]) & (bits != bits[j]))
            vec_p[:, j] = krows[:, j] - sum(vec_p[:, w] for w in coarser)
        at = np.flatnonzero(table.at & (size == k))
        vec_p[:, at] = vec_p[:, table.sup[at]] * share
    # the plain vectors, then each family member's share of its superset value
    sup = vector_table(frame, n).sup[krows.shape[1] :]
    return np.hstack([vec_p[:, : krows.shape[1]], vec_p[:, sup] * share])


def _clip_checked(node: str, rows: np.ndarray, child, where) -> None:
    """Clip ``rows`` (..., child) to nonnegative in place.  An entry below
    -EXACT_TOL fails instead, naming the first such row in row order; ``child``
    turns a child index into its text, and ``where`` that row's index tuple
    into its configuration text."""
    if rows.size and rows.min() < -EXACT_TOL:
        flat = rows.reshape(-1, rows.shape[-1])
        low = flat.min(axis=1)
        r = int(np.flatnonzero(low < -EXACT_TOL)[0])
        text = child(int(flat[r].argmin()))
        cfg = where(np.unravel_index(r, rows.shape[:-1]))
        raise InfeasibleModelError(f"node {node}: P({text}|{cfg}) = {low[r]:.6g} is negative")
    np.clip(rows, 0.0, None, out=rows)


def _child_text(frame: Frame, n_successors: int, c: int) -> str:
    """The text of child value ``c``: a plain vector prints as its subset."""
    plain = subset_literals(frame)
    return plain[c] if c < len(plain) else vector_literals(frame, n_successors)[c]


def build_node_cpt(node: str, ktable: CondTable, n_successors: int) -> ExtCPT:
    """Build the extended CPT of one node from its commonality table."""
    if ktable.kind != "k":
        raise ValueError(f"node {node}: a CPT is built from a kind=k table, not kind={ktable.kind}")
    frame = ktable.child_frame
    tables = [ext_table(f) for f in ktable.parent_frames]
    if n_successors == 0:
        plain = ktable.values.copy()
    else:
        plain = _plain_rows(ktable.values, frame, n_successors)
    shape = tuple(len(t.first) for t in tables) + plain.shape[1:]
    _guard_cells(node, math.prod(shape))
    child = functools.partial(_child_text, frame, n_successors)
    where = _row_names(ktable.parent_frames)
    plain_dims = tuple((1 << len(f)) - 1 for f in ktable.parent_frames)
    plain = plain.reshape(plain_dims + (-1,))
    _clip_checked(node, plain, child, where)
    probs = np.empty(shape)
    probs[tuple(map(slice, plain_dims))] = plain
    # rows whose first derived coordinate is on this axis, last axis first, in row order:
    # a superset row always comes before its row, so it is derived by then
    for axis, table in reversed(list(enumerate(tables))):
        head = tuple(map(slice, plain_dims[:axis]))
        own, sup = table.own[table.first], table.row[table.sup[table.first]]
        for r in range(plain_dims[axis], len(sup)):
            row = 2.0 * probs[head + (own[r],)] - probs[head + (sup[r],)]
            _clip_checked(node, row, child, lambda idx: where(idx[:axis] + (r,) + idx[axis:]))
            probs[head + (r,)] = row
    probs = probs.reshape(-1, shape[-1])
    probs.setflags(write=False)
    return ExtCPT(
        node=node,
        parent_names=tuple(f.name for f in ktable.parent_frames),
        probs=probs,
        source=ktable,
        n_successors=n_successors,
    )


def build_network_cpts(net: Network) -> dict[str, ExtCPT]:
    """Build every node's CPT; mass tables are converted to commonality first.

    Raises StructureError when two parents of a node are directly connected,
    and InfeasibleModelError naming the node and row when a commonality table,
    given or derived, has a negative cell or a row not summing to one (a short
    row would be drawn with its missing mass on its last positive cell).
    """
    structure = validate_structure(net)
    if not structure.ok:
        raise StructureError(str(structure))
    cpts: dict[str, ExtCPT] = {}
    for name in topological_order(net):
        node = net.node(name)
        table = node.table
        if table.kind == "m":
            table = mass_to_commonality(table)
        negatives, rows = commonality_faults(table)
        if negatives:
            raise InfeasibleModelError(f"node {name}: negative commonality {negatives[0]}")
        if rows:
            raise InfeasibleModelError(f"node {name}: commonality {rows[0]}")
        cpts[name] = build_node_cpt(name, table, len(node.successors))
    return cpts


def check_feasibility(cpt: ExtCPT) -> ValidationReport:
    """Verify every CPT contract, in row order: nonnegativity, unit row sums,
    class sums matching the commonality table, and along every parent axis,
    the substitution average of each derived slice and its superset slice
    reproducing its own-subset slice.  An ``o`` value shares its superset
    value's row, so its identity holds by construction."""
    report = ValidationReport()
    node, probs, frames = cpt.node, cpt.probs, cpt.source.parent_frames
    tables = [ext_table(f) for f in frames]
    dims = tuple(len(t.first) for t in tables)
    cfg = _row_names(frames)

    for r, c in zip(*np.nonzero(probs < 0.0)):
        report.errors.append(
            f"node {node}: negative P({_child_text(cpt.source.child_frame, cpt.n_successors, c)}"
            f"|{cfg(np.unravel_index(r, dims))}) = {probs[r, c]:.6g}"
        )
    sums = probs.sum(axis=1)
    for r in np.flatnonzero(np.abs(sums - 1.0) > ROWSUM_TOL):
        report.errors.append(
            f"node {node}: row {cfg(np.unravel_index(r, dims))} sums to {sums[r]:.12f}"
        )

    # class sums against the source table on plain configurations
    tensor = probs.reshape(dims + (-1,))
    plain_dims = tuple((1 << len(f)) - 1 for f in frames)
    classes = subset_literals(cpt.source.child_frame)
    members = np.eye(len(classes))[cpt.own]
    got = tensor[tuple(map(slice, plain_dims))].reshape(-1, len(members)) @ members
    want = cpt.source.values
    for r, s in zip(*np.nonzero(np.abs(got - want) > ROWSUM_TOL)):
        report.errors.append(
            f"node {node}: class {classes[s]} of row {cfg(np.unravel_index(r, plain_dims))} "
            f"sums to {got[r, s]:.12f}, table says {want[r, s]:.12f}"
        )

    # per axis, every derived slice against the slices it is defined by
    for axis, (table, p) in enumerate(zip(tables, plain_dims)):
        moved = np.moveaxis(tensor, axis, 0)
        own, sup = table.own[table.first[p:]], table.row[table.sup[table.first[p:]]]
        bad = (np.abs((moved[p:] + moved[sup]) / 2.0 - moved[own]) > ROWSUM_TOL).any(axis=-1)
        # the derived rows in order, each slice in row order
        for j, *idx in zip(*np.nonzero(bad)):
            rows = (cfg((*idx[:axis], i, *idx[axis:])) for i in (p + j, sup[j], own[j]))
            text = "node {}: substitution average of {} and {} does not reproduce {}"
            report.errors.append(text.format(node, *rows))
    return report
