"""The exact collapsed distribution of the extended model, and empirical comparison.

The sampler realizes the chain-rule product of the extended CPT rows.  Its
push-forward under per-variable collapse, summed by one tensor contraction
rather than enumerated, is the one oracle a sample is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cpt import ExtCPT, build_network_cpts
from .errors import SizeGuardError
from .network import Network
from .extvals import own_index
from .sampler import MAX_STATES, Sample, row_offsets
from .tables import subsets_of


@dataclass(eq=False)
class ExactDistribution:
    """Probabilities over state vectors, as a dense array with one axis per
    variable in declaration order: axis j runs over ``labels[j]``, the values
    of ``variables[j]``."""

    variables: tuple[str, ...]
    labels: tuple[tuple, ...]
    array: np.ndarray


def exact_collapsed_joint(net: Network, cpts: dict[str, ExtCPT] | None = None) -> ExactDistribution:
    """The chain-rule product of the extended CPT rows, pushed forward under
    per-variable collapse, as one tensor contraction; axis j runs over
    ``subsets_of`` the frame of ``net.variables[j]``.

    Axis j is variable j's extended value, axis n + j its collapsed class.  Per
    node: its CPT, each parent axis gathered through the edge's ``row_offsets``,
    and a 0/1 collapse matrix (``own_index``) from axis j to axis n + j.  The
    guard bounds the answer and every operand; numpy's greedy path makes no
    intermediate larger than the largest of those.
    """
    if cpts is None:
        cpts = build_network_cpts(net)
    labels = [subsets_of(net.frame(v)) for v in net.variables]
    if (size := math.prod(map(len, labels))) > MAX_STATES:
        raise SizeGuardError(f"collapsed state space holds {size} states (limit {MAX_STATES})")
    axis = {name: j for j, name in enumerate(net.variables)}
    n, operands = len(axis), []
    for name, j in axis.items():
        parents = row_offsets(net, cpts, name)
        width = len(cpts[name].child_domain)
        # the larger operand: the gathered CPT (parents x own) or the collapse matrix (own x subsets)
        size = max(math.prod(len(o) for _, o in parents), len(labels[j])) * width
        if size > MAX_STATES:
            raise SizeGuardError(
                f"collapsed joint needs an operand of {size} cells at {name} (limit {MAX_STATES})"
            )
        # the CPT row of every combination of parent values, one axis per parent
        rows = sum(np.ix_(*(offsets for _, offsets in parents)), np.int64(0))
        operands += [cpts[name].probs[rows], [axis[p] for p, _ in parents] + [j]]
        operands += [np.eye(len(labels[j]))[own_index(cpts[name].child_domain)], [j, n + j]]
    array = np.einsum(*operands, [n + j for j in range(n)], optimize="greedy")
    return ExactDistribution(tuple(net.variables), tuple(labels), array)


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
