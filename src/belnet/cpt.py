"""Conditional probability tables over extended domains.

A node's commonality table is turned into a proper CPT in two steps:

1. For every plain parent configuration, the commonality of each child subset
   is split across the subset's extended class: every family that refines the
   subset from a coarser value receives that coarser value's plain-vector
   probability, divided equally among its members, and the plain vector keeps
   the remainder.  Coarser values are resolved first, so nested splits always
   refer to already-assigned probabilities.
2. Rows for compound parent configurations are derived coordinatewise: an
   ``o`` coordinate defers to the row of its superset value, and an ``@``
   coordinate is resolved by inclusion-exclusion (twice the row of its own
   subset minus the row of its superset value), so that the average of the
   two substitution choices reproduces the plain row.

Every entry of the result must be nonnegative; otherwise the model admits no
such CPT and construction fails with the offending row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InfeasibleModelError, SizeGuardError
from .extvals import OP_AT, OP_DOT, ExtValue, ExtVector, ext_values, ext_vectors
from .network import Network, topological_order, validate_structure
from .tables import (
    EXACT_TOL,
    REPORT_TOL,
    ROWSUM_TOL,
    CondCommonalityTable,
    Frame,
    SubsetMask,
    ValidationReport,
    mass_to_commonality,
    subsets_of,
    _subset_pos,
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

    def __post_init__(self):
        self._parent_pos = [
            {v: i for i, v in enumerate(domain)} for domain in self.parent_domains
        ]
        self._child_pos = {c: i for i, c in enumerate(self.child_domain)}

    def configs(self):
        if not self.parent_domains:
            yield ()
            return
        yield from itertools.product(*self.parent_domains)

    def row_index(self, cfg: tuple[ExtValue, ...]) -> int:
        idx = 0
        for domain, pos, value in zip(self.parent_domains, self._parent_pos, cfg):
            idx = idx * len(domain) + pos[value]
        return idx

    def row(self, cfg: tuple[ExtValue, ...]) -> np.ndarray:
        return self.probs[self.row_index(cfg)]

    def get(self, cfg: tuple[ExtValue, ...], child) -> float:
        return float(self.row(cfg)[self._child_pos[child]])


@lru_cache(maxsize=None)
def _coarser_values(frame: Frame) -> dict[int, tuple[ExtValue, ...]]:
    """For each subset, the extended values it can be split from."""
    out: dict[int, list[ExtValue]] = {s.bits: [] for s in subsets_of(frame)}
    for v in ext_values(frame):
        vb = v.own.bits
        for s in subsets_of(frame):
            if s.bits & vb == s.bits and s.bits != vb:
                out[s.bits].append(v)
    return {b: tuple(vs) for b, vs in out.items()}


def _plain_row(krow: np.ndarray, frame: Frame, n: int) -> tuple[np.ndarray, dict[ExtValue, float]]:
    """Split one commonality row over the extended child domain (n >= 1)."""
    pos = _subset_pos(frame)
    coarser = _coarser_values(frame)
    share = 1.0 / ((1 << n) - 1)
    vec_p: dict[ExtValue, float] = {}
    for v in sorted(ext_values(frame), key=lambda v: -v.own.size):
        if v.is_plain:
            vec_p[v] = krow[pos[v.own.bits]] - sum(vec_p[w] for w in coarser[v.own.bits])
        elif v.op == OP_AT:
            vec_p[v] = vec_p[v.sup] * share
        else:
            vec_p[v] = 0.0
    domain = ext_vectors(frame, n)
    row = np.empty(len(domain))
    for i, x in enumerate(domain):
        row[i] = vec_p[ExtValue(x.own)] if x.is_plain else vec_p[x.sup] * share
    return row, vec_p


def _check_row(node: str, cfg, domain, row: np.ndarray) -> np.ndarray:
    low = row.min() if row.size else 0.0
    if low < -EXACT_TOL:
        c = int(row.argmin())
        raise InfeasibleModelError(
            f"node {node}: P({_child_text(domain[c])}|{_cfg_text(cfg)}) = {low:.6g} is negative"
        )
    np.clip(row, 0.0, None, out=row)
    return row


def _child_text(child) -> str:
    if isinstance(child, SubsetMask):
        return str(child)
    if isinstance(child, ExtVector) and child.is_plain:
        return str(child.own)
    return str(child)


def _cfg_text(cfg) -> str:
    return ",".join(str(v) for v in cfg) if cfg else "()"


def build_node_cpt(node: str, ktable: CondCommonalityTable, n_successors: int) -> ExtCPT:
    """Build the extended CPT of one node from its commonality table."""
    frame = ktable.child_frame
    if n_successors == 0:
        child_domain: tuple = subsets_of(frame)
    else:
        child_domain = ext_vectors(frame, n_successors)
    parent_domains = tuple(ext_values(f) for f in ktable.parent_frames)
    rows = 1
    for d in parent_domains:
        rows *= len(d)
    if rows * len(child_domain) > MAX_CPT_CELLS:
        raise SizeGuardError(
            f"node {node}: extended CPT would hold {rows * len(child_domain)} cells "
            f"(limit {MAX_CPT_CELLS})"
        )

    resolved: dict[tuple[ExtValue, ...], np.ndarray] = {}
    for cfg in ktable.configs():
        krow = ktable.row(cfg)
        if n_successors == 0:
            row = krow.copy()
        else:
            row, _ = _plain_row(krow, frame, n_successors)
        key = tuple(ExtValue(m) for m in cfg)
        resolved[key] = _check_row(node, key, child_domain, row)

    def resolve(cfg: tuple[ExtValue, ...]) -> np.ndarray:
        row = resolved.get(cfg)
        if row is not None:
            return row
        for i, v in enumerate(cfg):
            if v.is_plain:
                continue
            if v.op == OP_DOT:
                # defers to the superset value's row, shared by reference
                row = resolve(cfg[:i] + (v.sup,) + cfg[i + 1 :])
            else:
                own_row = resolve(cfg[:i] + (ExtValue(v.own),) + cfg[i + 1 :])
                sup_row = resolve(cfg[:i] + (v.sup,) + cfg[i + 1 :])
                row = _check_row(node, cfg, child_domain, 2.0 * own_row - sup_row)
            resolved[cfg] = row
            return row
        raise AssertionError("unreachable: plain configurations are pre-seeded")

    probs = np.empty((rows, len(child_domain)))
    for r, cfg in enumerate(itertools.product(*parent_domains) if parent_domains else [()]):
        probs[r] = resolve(cfg)
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


def build_network_cpts(net: Network) -> dict[str, ExtCPT]:
    """Build every node's CPT; mass tables are converted to commonality first.

    Requires a structurally valid network (no directly connected parents).
    """
    structure = validate_structure(net)
    if not structure.ok:
        raise ValueError("; ".join(structure.errors))
    cpts: dict[str, ExtCPT] = {}
    for name in topological_order(net):
        node = net.node(name)
        table = node.table
        if table.kind == "m":
            table = mass_to_commonality(table)
        else:
            low = float(table.values.min()) if table.values.size else 0.0
            if low < -EXACT_TOL:
                raise InfeasibleModelError(
                    f"node {name}: commonality table has negative value {low:.6g}"
                )
        _check_row_sums(name, table)
        cpts[name] = build_node_cpt(name, table, len(node.successors))
    return cpts


def _check_row_sums(node: str, table: CondCommonalityTable) -> None:
    """Every commonality row must sum to one; a short row would be drawn with its
    missing mass on the row's last positive cell."""
    sums = table.values.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > REPORT_TOL)
    if bad.size:
        r = int(bad[0])
        cfg = next(itertools.islice(table.configs(), r, None))
        raise InfeasibleModelError(
            f"node {node}: commonality row {_cfg_text(cfg)} sums to {sums[r]:.9f}, expected 1"
        )


def check_feasibility(cpt: ExtCPT) -> ValidationReport:
    """Verify every CPT contract: nonnegativity, unit row sums, class sums
    matching the commonality table, deferral rows identical to their superset
    rows, and the substitution-average identity for ``@`` coordinates."""
    report = ValidationReport()
    probs = cpt.probs
    if probs.min(initial=0.0) < 0.0:
        for r, cfg in enumerate(cpt.configs()):
            for c in np.nonzero(probs[r] < 0.0)[0]:
                report.errors.append(
                    f"node {cpt.node}: negative P({_child_text(cpt.child_domain[c])}"
                    f"|{_cfg_text(cfg)}) = {probs[r, c]:.6g}"
                )
    sums = probs.sum(axis=1)
    for r, cfg in enumerate(cpt.configs()):
        if abs(sums[r] - 1.0) > ROWSUM_TOL:
            report.errors.append(
                f"node {cpt.node}: row {_cfg_text(cfg)} sums to {sums[r]:.12f}"
            )

    # class sums against the source table on plain configurations
    frame = cpt.source.child_frame
    own_of = [
        (c if isinstance(c, SubsetMask) else c.own).bits for c in cpt.child_domain
    ]
    class_cols = {
        s.bits: [i for i, b in enumerate(own_of) if b == s.bits] for s in subsets_of(frame)
    }
    for cfg in cpt.source.configs():
        key = tuple(ExtValue(m) for m in cfg)
        row = cpt.row(key)
        krow = cpt.source.row(cfg)
        for s in subsets_of(frame):
            got = float(row[class_cols[s.bits]].sum())
            want = float(krow[_subset_pos(frame)[s.bits]])
            if abs(got - want) > ROWSUM_TOL:
                report.errors.append(
                    f"node {cpt.node}: class {s} of row {_cfg_text(key)} sums to "
                    f"{got:.12f}, table says {want:.12f}"
                )

    for cfg in cpt.configs():
        dots = [i for i, v in enumerate(cfg) if (not v.is_plain) and v.op == OP_DOT]
        if dots:
            i = dots[0]
            alt = cfg[:i] + (cfg[i].sup,) + cfg[i + 1 :]
            if not np.array_equal(cpt.row(cfg), cpt.row(alt)):
                report.errors.append(
                    f"node {cpt.node}: deferral row {_cfg_text(cfg)} differs from {_cfg_text(alt)}"
                )
        ats = [i for i, v in enumerate(cfg) if (not v.is_plain) and v.op == OP_AT]
        if ats:
            base = list(cfg)
            for i in ats:
                base[i] = ExtValue(cfg[i].own)
            mean = np.zeros_like(probs[0])
            for choice in itertools.product((0, 1), repeat=len(ats)):
                sub = list(cfg)
                for pick, i in zip(choice, ats):
                    if pick:
                        sub[i] = cfg[i].sup
                mean += cpt.row(tuple(sub))
            mean /= 2 ** len(ats)
            if not np.allclose(mean, cpt.row(tuple(base)), atol=ROWSUM_TOL, rtol=0.0):
                report.errors.append(
                    f"node {cpt.node}: substitution average of {_cfg_text(cfg)} "
                    f"does not reproduce {_cfg_text(tuple(base))}"
                )
    return report
