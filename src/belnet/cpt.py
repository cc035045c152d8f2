"""Conditional probability tables over extended domains.

A node's CPT is built as a tensor with one axis per parent, over its extended
values, and a last axis over the child domain, in two steps:

1. The plain block: for all plain parent configurations at once, the
   commonality of each child subset is split across the subset's extended
   class.  Every family that refines the subset from a coarser value receives
   that value's plain-vector probability, divided equally among its members,
   and the plain vector keeps the remainder.  Coarser values are split first.
2. The parent axes are extended one at a time, from the last to the first.
   Along an axis, an ``o`` value copies the slice of its superset value, and
   an ``@`` value takes twice the slice of its own subset minus that of its
   superset value (inclusion-exclusion), so that the average of the two
   substitution choices reproduces the plain slice.  Each row is so derived
   on its first compound coordinate.

Every entry must be nonnegative; otherwise the model admits no such CPT and
construction fails with the offending row.  ``check_feasibility`` verifies a
CPT independently, checking both identities along every parent axis, slice
against slice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

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
    Immutable after construction."""

    node: str
    n_successors: int
    child_domain: tuple
    parent_names: tuple[str, ...]
    parent_domains: tuple[tuple[ExtValue, ...], ...]
    probs: np.ndarray
    source: CondCommonalityTable

    @cached_property
    def _parent_pos(self) -> list[dict[ExtValue, int]]:
        return [{v: i for i, v in enumerate(domain)} for domain in self.parent_domains]

    @cached_property
    def _child_pos(self) -> dict:
        return {c: i for i, c in enumerate(self.child_domain)}

    def configs(self):
        return itertools.product(*self.parent_domains)

    def row_index(self, cfg: tuple[ExtValue, ...]) -> int:
        idx = 0
        for domain, pos, value in zip(self.parent_domains, self._parent_pos, cfg):
            idx = idx * len(domain) + pos[value]
        return idx

    def row(self, cfg: tuple[ExtValue, ...]) -> np.ndarray:
        return self.probs[self.row_index(cfg)]

    def get(self, cfg: tuple[ExtValue, ...], child) -> float:
        return float(self.row(cfg)[self._child_pos[child]])


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
    parent_domains = tuple(ext_values(f) for f in ktable.parent_frames)
    shape = tuple(map(len, parent_domains)) + (len(child_domain),)
    if math.prod(shape) > MAX_CPT_CELLS:
        raise SizeGuardError(
            f"node {node}: extended CPT would hold {math.prod(shape)} cells "
            f"(limit {MAX_CPT_CELLS})"
        )

    def where(idx) -> str:
        return cfg_text(tuple(d[i] for d, i in zip(parent_domains, idx)))

    plain_dims = tuple(len(subsets_of(f)) for f in ktable.parent_frames)
    if n_successors == 0:
        plain = ktable.values.copy()
    else:
        plain = _plain_rows(ktable.values, frame, n_successors)
    plain = plain.reshape(plain_dims + (-1,))
    _clip_checked(node, plain, child_domain, where)
    probs = np.empty(shape)
    probs[tuple(map(slice, plain_dims))] = plain
    # rows whose first compound coordinate is on this axis, last axis first
    for axis in reversed(range(len(parent_domains))):
        head = tuple(map(slice, plain_dims[:axis]))
        table = ext_table(ktable.parent_frames[axis])
        for lo, hi in _blocks(table.sup, plain_dims[axis]):
            dot = lo + np.flatnonzero(~table.at[lo:hi])
            probs[head + (dot,)] = probs[head + (table.sup[dot],)]
            at = lo + np.flatnonzero(table.at[lo:hi])
            rows = probs[head + (table.own[at],)]
            rows *= 2.0
            rows -= probs[head + (table.sup[at],)]
            # the slices in domain order, each in row order
            _clip_checked(
                node,
                np.moveaxis(rows, axis, 0),
                child_domain,
                lambda idx: where(idx[1 : axis + 1] + (at[idx[0]],) + idx[axis + 1 :]),
            )
            probs[head + (at,)] = rows
    probs = probs.reshape(-1, len(child_domain))
    probs.setflags(write=False)
    return ExtCPT(
        node=node,
        n_successors=n_successors,
        child_domain=child_domain,
        parent_names=tuple(f.name for f in ktable.parent_frames),
        parent_domains=parent_domains,
        probs=probs,
        source=ktable,
    )


def _blocks(sup: np.ndarray, start: int):
    """Runs ``[lo, hi)`` of the compound values, from ``start`` on, whose
    superset values all lie before the run, so can be derived together."""
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
    """Verify every CPT contract: nonnegativity, unit row sums, class sums
    matching the commonality table, and along every parent axis, deferral
    slices identical to their superset slices and the substitution average of
    each ``@`` slice and its superset slice reproducing its own-subset slice."""
    report = ValidationReport()
    node, domains, probs = cpt.node, cpt.parent_domains, cpt.probs
    dims = tuple(map(len, domains))

    def cfg(idx) -> str:
        return cfg_text(tuple(d[i] for d, i in zip(domains, idx)))

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
    plain_dims = tuple(len(subsets_of(f)) for f in cpt.source.parent_frames)
    classes = subsets_of(cpt.source.child_frame)
    members = np.eye(len(classes))[own_index(cpt.child_domain)]
    got = tensor[tuple(map(slice, plain_dims))].reshape(-1, len(members)) @ members
    want = cpt.source.values
    for r, s in zip(*np.nonzero(np.abs(got - want) > ROWSUM_TOL)):
        report.errors.append(
            f"node {node}: class {classes[s]} of row {cfg(np.unravel_index(r, plain_dims))} "
            f"sums to {got[r, s]:.12f}, table says {want[r, s]:.12f}"
        )

    # per axis, every compound slice against the slices it is defined by
    for axis, frame in enumerate(cpt.source.parent_frames):
        table = ext_table(frame)
        moved = np.moveaxis(tensor, axis, 0)
        dot = np.flatnonzero((table.sup >= 0) & ~table.at)
        at = np.flatnonzero(table.at)
        bad = np.zeros(moved.shape[:-1], dtype=bool)
        bad[dot] = (moved[dot] != moved[table.sup[dot]]).any(axis=-1)
        average = (moved[at] + moved[table.sup[at]]) / 2.0
        bad[at] = (np.abs(average - moved[table.own[at]]) > ROWSUM_TOL).any(axis=-1)
        # the slices in domain order, each in row order
        for j, *idx in zip(*np.nonzero(bad)):
            rows = (cfg((*idx[:axis], i, *idx[axis:])) for i in (j, table.sup[j], table.own[j]))
            if table.at[j]:
                text = "substitution average of {0} and {1} does not reproduce {2}"
            else:
                text = "deferral row {0} differs from {1}"
            report.errors.append(f"node {node}: " + text.format(*rows))
    return report
