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
parent's row.  ``value_rows`` expands a CPT to one row per combination of
parent values.  ``check_feasibility`` verifies a CPT independently, checking
the ``@`` identity along every parent axis, slice against slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleModelError, SizeGuardError, StructureError
from .extvals import ExtValue, ExtVector, ext_table, ext_values, ext_vectors, own_index
from .network import Network, topological_order, validate_structure
from .tables import (
    EXACT_TOL,
    ROWSUM_TOL,
    CondCommonalityTable,
    Frame,
    SubsetMask,
    ValidationReport,
    _bits_of,
    cfg_text,
    commonality_faults,
    mass_to_commonality,
    subsets_of,
)

MAX_CPT_CELLS = 10_000_000


@dataclass
class ExtCPT:
    """A CPT whose parents range over extended values and whose child ranges
    over extended vectors (or plain subsets for a node with no successors).
    ``probs`` holds one row per combination of parent rows (``ext_table.row``)
    in C order.  Immutable after construction."""

    node: str
    child_domain: tuple
    parent_names: tuple[str, ...]
    parent_domains: tuple[tuple[ExtValue, ...], ...]
    probs: np.ndarray
    source: CondCommonalityTable


def value_rows(cpt: ExtCPT) -> np.ndarray:
    """``cpt.probs`` with one row per combination of parent extended values,
    in C order over ``parent_domains``."""
    _guard_cells(cpt.node, math.prod(map(len, cpt.parent_domains)) * len(cpt.child_domain))
    tables = [ext_table(f) for f in cpt.source.parent_frames]
    tensor = cpt.probs.reshape(tuple(len(t.first) for t in tables) + (-1,))
    return tensor[np.ix_(*(t.row for t in tables))].reshape(-1, tensor.shape[-1])


def _guard_cells(node: str, cells: int) -> None:
    if cells > MAX_CPT_CELLS:
        raise SizeGuardError(
            f"node {node}: extended CPT would hold {cells} cells (limit {MAX_CPT_CELLS})"
        )


def _row_names(frames):
    """The configuration text of a row index tuple, one index per frame's
    rows, naming each row by its first value."""
    firsts = [[ext_values(f)[i] for i in ext_table(f).first] for f in frames]
    return lambda idx: cfg_text(tuple(v[i] for v, i in zip(firsts, idx)))


def _plain_rows(krows: np.ndarray, frame: Frame, n: int) -> np.ndarray:
    """Split commonality rows (configurations x subsets) over the extended
    child domain of a node with n >= 1 successors, coarser subsets first."""
    table = ext_table(frame)  # the plain values first, in the table's column order
    bits = _bits_of(frame)[table.own]
    size = np.array([s.size for s in subsets_of(frame)])[table.own]
    share = 1.0 / ((1 << n) - 1)
    # per extended value: its plain vector's probability, or a family member's
    vec_p = np.zeros((len(krows), len(bits)))
    for k in range(len(frame), 0, -1):
        for j in np.flatnonzero(size[: krows.shape[1]] == k):
            coarser = np.flatnonzero((bits & bits[j] == bits[j]) & (bits != bits[j]))
            vec_p[:, j] = krows[:, j] - sum(vec_p[:, w] for w in coarser)
        at = np.flatnonzero(table.at & (size == k))
        vec_p[:, at] = vec_p[:, table.sup[at]] * share
    # the plain vectors, then per superset value a family for each proper subset
    family = ((1 << size) - 2) * ((1 << n) - 1)
    return np.hstack([vec_p[:, : krows.shape[1]], np.repeat(vec_p, family, axis=1) * share])


def _clip_checked(node: str, rows: np.ndarray, child_domain, where) -> None:
    """Clip ``rows`` (..., child) to nonnegative in place.  An entry below
    -EXACT_TOL fails instead, naming the first such row in row order; ``where``
    turns that row's index tuple into its configuration text."""
    if rows.size and rows.min() < -EXACT_TOL:
        flat = rows.reshape(-1, rows.shape[-1])
        low = flat.min(axis=1)
        r = int(np.flatnonzero(low < -EXACT_TOL)[0])
        child = _child_text(child_domain[int(flat[r].argmin())])
        cfg = where(np.unravel_index(r, rows.shape[:-1]))
        raise InfeasibleModelError(f"node {node}: P({child}|{cfg}) = {low[r]:.6g} is negative")
    np.clip(rows, 0.0, None, out=rows)


def _child_text(child) -> str:
    if isinstance(child, SubsetMask):
        return str(child)
    if isinstance(child, ExtVector) and child.is_plain:
        return str(child.own)
    return str(child)


def build_node_cpt(node: str, ktable: CondCommonalityTable, n_successors: int) -> ExtCPT:
    """Build the extended CPT of one node from its commonality table."""
    frame = ktable.child_frame
    if n_successors == 0:
        child_domain: tuple = subsets_of(frame)
    else:
        child_domain = ext_vectors(frame, n_successors)
    tables = [ext_table(f) for f in ktable.parent_frames]
    shape = tuple(len(t.first) for t in tables) + (len(child_domain),)
    _guard_cells(node, math.prod(shape))
    where = _row_names(ktable.parent_frames)
    plain_dims = tuple(len(subsets_of(f)) for f in ktable.parent_frames)
    if n_successors == 0:
        plain = ktable.values.copy()
    else:
        plain = _plain_rows(ktable.values, frame, n_successors)
    plain = plain.reshape(plain_dims + (-1,))
    _clip_checked(node, plain, child_domain, where)
    probs = np.empty(shape)
    probs[tuple(map(slice, plain_dims))] = plain
    # rows whose first derived coordinate is on this axis, last axis first
    for axis, table in reversed(list(enumerate(tables))):
        head = tuple(map(slice, plain_dims[:axis]))
        own, sup = table.own[table.first], table.row[table.sup[table.first]]
        for lo, hi in _blocks(sup, plain_dims[axis]):
            rows = probs[head + (own[lo:hi],)]
            rows *= 2.0
            rows -= probs[head + (sup[lo:hi],)]
            # the derived rows in order, each slice in row order
            _clip_checked(
                node,
                np.moveaxis(rows, axis, 0),
                child_domain,
                lambda idx: where(idx[1 : axis + 1] + (lo + idx[0],) + idx[axis + 1 :]),
            )
            probs[head + (slice(lo, hi),)] = rows
    probs = probs.reshape(-1, len(child_domain))
    probs.setflags(write=False)
    return ExtCPT(
        node=node,
        child_domain=child_domain,
        parent_names=tuple(f.name for f in ktable.parent_frames),
        parent_domains=tuple(map(ext_values, ktable.parent_frames)),
        probs=probs,
        source=ktable,
    )


def _blocks(sup: np.ndarray, start: int):
    """Runs ``[lo, hi)`` of the derived rows, from ``start`` on, whose
    superset rows all lie before the run, so can be derived together."""
    lo = start
    for j in range(start, len(sup)):
        if sup[j] >= lo:
            yield lo, j
            lo = j
    if lo < len(sup):
        yield lo, len(sup)


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
            f"node {node}: negative P({_child_text(cpt.child_domain[c])}"
            f"|{cfg(np.unravel_index(r, dims))}) = {probs[r, c]:.6g}"
        )
    sums = probs.sum(axis=1)
    for r in np.flatnonzero(np.abs(sums - 1.0) > ROWSUM_TOL):
        report.errors.append(
            f"node {node}: row {cfg(np.unravel_index(r, dims))} sums to {sums[r]:.12f}"
        )

    # class sums against the source table on plain configurations
    tensor = probs.reshape(dims + (-1,))
    plain_dims = tuple(len(subsets_of(f)) for f in frames)
    classes = subsets_of(cpt.source.child_frame)
    members = np.eye(len(classes))[own_index(cpt.child_domain)]
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
