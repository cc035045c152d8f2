"""Exact distributions of the extended model and empirical comparison.

The sampler realizes the chain-rule product of the extended CPT rows; that
product, enumerated exhaustively, is the reference the sample is checked
against.  The collapsed form is its push-forward under per-variable collapse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cpt import ExtCPT, build_network_cpts
from .errors import SizeGuardError
from .network import Network, topological_order
from .sampler import MAX_STATES, Sample, own_index, row_offsets
from .tables import subsets_of


@dataclass(eq=False)
class ExactDistribution:
    """Probabilities over state vectors, as a dense array with one axis per
    variable in declaration order: axis j runs over ``labels[j]``, the values
    of ``variables[j]``."""

    variables: tuple[str, ...]
    labels: tuple[tuple, ...]
    array: np.ndarray

    @cached_property
    def probs(self) -> dict[tuple, float]:
        """The support, keyed by state tuples (one value per variable)."""
        support = np.nonzero(self.array)
        values = (np.array(lab, dtype=object)[i] for lab, i in zip(self.labels, support))
        return dict(zip(zip(*values), self.array[support].tolist()))

    def total(self) -> float:
        return float(self.array.sum())

    def marginal(self, variable: str) -> dict:
        j = self.variables.index(variable)
        sums = self.array.sum(axis=tuple(a for a in range(self.array.ndim) if a != j))
        return {lab: p for lab, p in zip(self.labels[j], sums.tolist()) if p}


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


def _declared(net: Network, topo, labels, array: np.ndarray) -> ExactDistribution:
    """Distribution from an array over ``topo``'s axes, labelled per axis by
    ``labels``; axes and labels are put in declaration order."""
    order = [topo.index(name) for name in net.variables]
    return ExactDistribution(
        tuple(net.variables), tuple(labels[j] for j in order), array.transpose(order)
    )


def exact_extended_joint(
    net: Network, cpts: dict[str, ExtCPT] | None = None, max_states: int = MAX_STATES
) -> ExactDistribution:
    """Exhaustive chain-rule product over all extended states; axis j runs
    over the child domain of ``net.variables[j]``."""
    topo, cpts, joint = _extended_array(net, cpts, max_states)
    return _declared(net, topo, [cpts[name].child_domain for name in topo], joint)


def exact_collapsed_joint(
    net: Network, cpts: dict[str, ExtCPT] | None = None, max_states: int = MAX_STATES
) -> ExactDistribution:
    """Push-forward of the extended joint under per-variable collapse; axis j
    runs over ``subsets_of`` the frame of ``net.variables[j]``."""
    topo, cpts, joint = _extended_array(net, cpts, max_states)
    labels = [subsets_of(net.frame(name)) for name in topo]
    sizes = [len(lab) for lab in labels]
    # collapsed class of every extended state, in mixed radix over own subsets
    owns = [_along(own_index(cpts[name].child_domain), j, len(topo)) for j, name in enumerate(topo)]
    classes = np.ravel_multi_index(owns, sizes)
    probs = np.bincount(classes.ravel(), weights=joint.ravel(), minlength=math.prod(sizes))
    return _declared(net, topo, labels, probs.reshape(sizes))


@dataclass
class ComparisonReport:
    """Empirical-vs-exact comparison over collapsed cells."""

    n: int
    linf: float
    chi2: float
    dof: int
    threshold: float | None
    impossible: list[tuple]

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
            lines.append(f"impossible cell observed: ({','.join(map(str, key))})")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def compare_empirical(
    sample: Sample | np.ndarray,
    exact: ExactDistribution,
    linf_threshold: float | None = None,
) -> ComparisonReport:
    """Compare empirical collapsed counts against the exact collapsed distribution.

    ``sample`` is either a Sample or an array of counts shaped like
    ``exact.array``, such as ``Sample.collapsed_counts()``.  The chi-square
    statistic is computed over the cells of the exact support; the pass
    verdict keys on the L-infinity distance.  Impossible cells, observed
    outside the support, are listed in array order.
    """
    if isinstance(sample, Sample):
        if tuple(sample.variables) != tuple(exact.variables):
            raise ValueError(
                f"sample variables {sample.variables} do not match exact scope {exact.variables}"
            )
        counts = sample.collapsed_counts()
    else:
        counts = np.asarray(sample)
    p = exact.array
    if counts.shape != p.shape:
        raise ValueError(f"counts of shape {counts.shape} do not match exact shape {p.shape}")
    n = counts.sum()
    if n <= 0:
        raise ValueError("empirical sample is empty")
    support = p > 0.0
    expected = n * p[support]
    impossible = np.argwhere((counts > 0) & ~support).tolist()
    return ComparisonReport(
        n=int(n),
        linf=float(np.abs(counts / n - p).max()),
        chi2=float(((counts[support] - expected) ** 2 / expected).sum()),
        dof=int(support.sum()) - 1,
        threshold=linf_threshold,
        impossible=[tuple(lab[i] for lab, i in zip(exact.labels, cell)) for cell in impossible],
    )
