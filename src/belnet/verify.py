"""Exact distributions of the extended model and empirical comparison.

The sampler realizes the chain-rule product of the extended CPT rows; that
product, enumerated exhaustively, is the reference the sample is checked
against.  The collapsed form is its push-forward under per-variable collapse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .cpt import ExtCPT, build_network_cpts
from .errors import SizeGuardError
from .network import Network, topological_order
from .sampler import Sample, own_index, row_offsets
from .tables import subsets_of

MAX_STATES = 10_000_000


@dataclass
class ExactDistribution:
    """Probabilities over state vectors (declaration order keys)."""

    variables: tuple[str, ...]
    probs: dict[tuple, float] = field(default_factory=dict)

    def total(self) -> float:
        return sum(self.probs.values())

    def marginal(self, variable: str) -> dict:
        j = self.variables.index(variable)
        out: dict = {}
        for key, p in self.probs.items():
            out[key[j]] = out.get(key[j], 0.0) + p
        return out


def _extended_array(
    net: Network, cpts: dict[str, ExtCPT] | None, max_states: int
) -> tuple[tuple[str, ...], dict[str, ExtCPT], np.ndarray]:
    """The chain-rule product over all extended states, as a dense array with
    one axis per node in topological order, indexed by child-domain position.

    Each node's CPT is broadcast onto its parents' axes and its own, and the
    factors are multiplied in topological order.
    """
    if cpts is None:
        cpts = build_network_cpts(net)
    topo = topological_order(net)
    sizes = [len(cpts[name].child_domain) for name in topo]
    size = math.prod(sizes)
    if size > max_states:
        raise SizeGuardError(f"extended state space holds {size} states (limit {max_states})")
    axis = {name: j for j, name in enumerate(topo)}
    joint = np.ones(sizes)
    for j, name in enumerate(topo):
        # flat CPT cell of every (parent values, own value) combination
        cell = _along(np.arange(sizes[j]), j, len(topo))
        for parent, offsets in row_offsets(net, cpts, name):
            cell = cell + _along(offsets * sizes[j], axis[parent], len(topo))
        joint *= cpts[name].probs.ravel()[cell]
    return topo, cpts, joint


def _along(values: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """``values`` laid along one axis of an ``ndim``-dimensional array."""
    return values.reshape([-1 if a == axis else 1 for a in range(ndim)])


def _keyed(net: Network, topo, labels, index, probs: np.ndarray) -> ExactDistribution:
    """Distribution from per-axis indices of its support: ``labels[j][index[j]]``
    is the value of node ``topo[j]``; keys are in declaration order."""
    values = dict(zip(topo, (np.array(lab, dtype=object)[i] for lab, i in zip(labels, index))))
    keys = zip(*(values[name] for name in net.variables))
    return ExactDistribution(tuple(net.variables), dict(zip(keys, probs.tolist())))


def exact_extended_joint(
    net: Network, cpts: dict[str, ExtCPT] | None = None, max_states: int = MAX_STATES
) -> ExactDistribution:
    """Exhaustive chain-rule product over all extended states."""
    topo, cpts, joint = _extended_array(net, cpts, max_states)
    support = np.nonzero(joint)
    labels = [cpts[name].child_domain for name in topo]
    return _keyed(net, topo, labels, support, joint[support])


def exact_collapsed_joint(
    net: Network, cpts: dict[str, ExtCPT] | None = None, max_states: int = MAX_STATES
) -> ExactDistribution:
    """Push-forward of the extended joint under per-variable collapse."""
    topo, cpts, joint = _extended_array(net, cpts, max_states)
    labels = [subsets_of(net.frame(name)) for name in topo]
    sizes = [len(lab) for lab in labels]
    # collapsed class of every extended state, in mixed radix over own subsets
    owns = [_along(own_index(cpts[name].child_domain), j, len(topo)) for j, name in enumerate(topo)]
    classes = np.ravel_multi_index(owns, sizes)
    probs = np.bincount(classes.ravel(), weights=joint.ravel(), minlength=math.prod(sizes))
    support = np.flatnonzero(probs)
    return _keyed(net, topo, labels, np.unravel_index(support, sizes), probs[support])


@dataclass
class ComparisonReport:
    """Empirical-vs-exact comparison over collapsed cells."""

    n: int
    linf: float
    chi2: float
    dof: int
    threshold: float | None
    cells: list[tuple[tuple, float, float]]
    impossible: list[tuple] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (self.threshold is None or self.linf <= self.threshold) and not self.impossible

    def __str__(self) -> str:
        lines = [
            f"records: {self.n}",
            f"cells (exact support): {self.dof + 1}",
            f"L-infinity distance: {self.linf:.9f}"
            + (f" (threshold {self.threshold:.9f})" if self.threshold is not None else ""),
            f"chi-square: {self.chi2:.6f} on {self.dof} degrees of freedom",
        ]
        for key in self.impossible:
            lines.append(f"impossible cell observed: {_key_text(key)}")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _key_text(key: tuple) -> str:
    return "(" + ",".join(str(k) for k in key) + ")"


def compare_empirical(
    sample: Sample | Mapping[tuple, float],
    exact: ExactDistribution,
    linf_threshold: float | None = None,
) -> ComparisonReport:
    """Compare an empirical collapsed distribution against the exact one.

    ``sample`` is either a Sample or a mapping of collapsed state tuples to
    counts (weights).  The chi-square statistic is computed over the cells of
    the exact support; the pass verdict keys on the L-infinity distance.
    """
    if isinstance(sample, Sample):
        if tuple(sample.variables) != tuple(exact.variables):
            raise ValueError(
                f"sample variables {sample.variables} do not match exact scope {exact.variables}"
            )
        counts: Mapping[tuple, float] = sample.collapsed_counts()
    else:
        counts = sample
    n = sum(counts.values())
    if n <= 0:
        raise ValueError("empirical sample is empty")

    support = {k: p for k, p in exact.probs.items() if p > 0.0}
    impossible = sorted(
        (k for k, c in counts.items() if c and k not in support), key=_key_text
    )
    linf = 0.0
    chi2 = 0.0
    cells = []
    for key in sorted(set(support) | set(counts), key=_key_text):
        p = exact.probs.get(key, 0.0)
        emp = counts.get(key, 0.0) / n
        linf = max(linf, abs(emp - p))
        if key in support:
            expected = n * p
            chi2 += (counts.get(key, 0.0) - expected) ** 2 / expected
        cells.append((key, p, emp))
    return ComparisonReport(
        n=int(n),
        linf=linf,
        chi2=chi2,
        dof=len(support) - 1,
        threshold=linf_threshold,
        cells=cells,
        impossible=list(impossible),
    )
