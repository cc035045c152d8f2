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
from .fusion import JointMass
from .network import Network
from . import sampler
from .tables import subset_literals


def exact_collapsed_joint(net: Network, cpts: dict[str, ExtCPT] | None = None) -> JointMass:
    """The chain-rule product of the extended CPT rows, pushed forward under
    per-variable collapse, as one tensor contraction: a ``JointMass`` whose
    axis j runs over ``subset_literals`` of the frame of ``net.variables[j]``, with no
    empty mass (a collapsed record never lands on an empty set).

    Axis j is variable j's extended value, axis n + j its collapsed class.  Per
    node: its CPT, each parent axis gathered through the edge's ``row_offsets``,
    and a 0/1 collapse matrix (``ExtCPT.own``) from axis j to axis n + j.  The
    guard bounds the answer and every operand; numpy's greedy path makes no
    intermediate larger than the largest of those.
    """
    if cpts is None:
        cpts = build_network_cpts(net)
    frames = tuple(map(net.frame, net.variables))
    sizes = [(1 << len(f)) - 1 for f in frames]
    sampler.guard_states(sizes)
    axis = {name: j for j, name in enumerate(net.variables)}
    n, operands = len(axis), []
    for name, j in axis.items():
        parents = sampler.row_offsets(net, cpts, name)
        width = cpts[name].probs.shape[1]
        # the larger operand: the gathered CPT (parents x own) or the collapse matrix (own x subsets)
        size = max(math.prod(len(o) for _, o in parents), sizes[j]) * width
        if size > (limit := sampler.MAX_STATES):
            raise SizeGuardError(
                f"collapsed joint needs an operand of {size} cells at {name} (limit {limit})"
            )
        # the CPT row of every combination of parent values, one axis per parent
        rows = sum(np.ix_(*(offsets for _, offsets in parents)), np.int64(0))
        operands += [cpts[name].probs[rows], [axis[p] for p, _ in parents] + [j]]
        operands += [np.eye(sizes[j])[cpts[name].own], [j, n + j]]
    array = np.einsum(*operands, [n + j for j in range(n)], optimize="greedy")
    return JointMass(frames, array)


@dataclass
class ComparisonReport:
    """Empirical-vs-exact comparison over collapsed cells."""

    n: int
    linf: float
    chi2: float
    dof: int
    threshold: float | None
    impossible: list[tuple[str, ...]]

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
            lines.append(f"impossible cell observed: ({','.join(key)})")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def compare_empirical(
    sample: sampler.Sample | np.ndarray,
    exact: JointMass,
    linf_threshold: float | None = None,
) -> ComparisonReport:
    """Compare empirical collapsed counts against the exact collapsed distribution.

    ``sample`` is either a Sample or an array of counts shaped like
    ``exact.array``, such as ``Sample.collapsed_counts()``.  The chi-square
    statistic is computed over the cells of the exact support; the pass
    verdict keys on the L-infinity distance.  Impossible cells, observed
    outside the support, are listed in array order.
    """
    if isinstance(sample, sampler.Sample):
        if tuple(sample.variables) != exact.scope:
            raise ValueError(
                f"sample variables {sample.variables} do not match exact scope {exact.scope}"
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
        impossible=[
            tuple(subset_literals(f)[i] for f, i in zip(exact.frames, cell)) for cell in impossible
        ],
    )
