"""Forward (ancestral) sampling over extended domains, collapse, CSV output.

Randomness is fully determined by a single integer seed: a counter-based
generator produces one uniform variate per record per node, and each record
consumes only its own row of variates, so output is identical no matter how
records are batched.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Iterator, Sequence

import numpy as np

from .cpt import ExtCPT, build_network_cpts
from .errors import SizeGuardError
from .tables import SubsetMask, _subset_pos, csv_cells, subsets_of
from .extvals import component, ext_value_index
from .network import Network, edge_index, topological_order

_CHUNK = 1 << 18
_GUIDE_CELLS = 1 << 21  # guide entries per node, at most
MAX_STATES = 10_000_000  # cells of a dense joint or count array, at most


@dataclass(frozen=True)
class SampleRecord:
    """One drawn record: the extended value and its collapsed subset per variable."""

    variables: tuple[str, ...]
    extended: tuple
    collapsed: tuple[SubsetMask, ...]


def row_offsets(net: Network, cpts: dict[str, ExtCPT], name: str) -> list[tuple[str, np.ndarray]]:
    """How the parents' drawn values address a row of ``name``'s CPT.

    Per parent: its name and, per index into its child domain, that value's
    contribution to the row index (the sum over parents is the row).
    """
    out = []
    stride = cpts[name].probs.shape[0]
    for parent, domain in zip(cpts[name].parent_names, cpts[name].parent_domains):
        stride //= len(domain)
        h = edge_index(net, parent, name)
        comp = [ext_value_index(component(x, h)) for x in cpts[parent].child_domain]
        out.append((parent, np.asarray(comp, dtype=np.int64) * stride))
    return out


class _NodeDraw:
    """One node's drawing tables: the cumulative CPT rows, the last positive cell
    of each row, a guide of ``k`` buckets per row, and per parent, its record
    column and its ``row_offsets`` pre-multiplied by ``k``."""

    def __init__(self, probs: np.ndarray, parents: list[tuple[int, np.ndarray]]):
        # rows of nonnegative cells, so every CDF row is nondecreasing
        self.cdf = np.cumsum(probs, axis=1)
        self.top = np.where(probs > 0.0, np.arange(probs.shape[1]), -1).max(axis=1)
        self.k = 1 << max(4, (8 * probs.shape[1] - 1).bit_length())
        while self.k > 1 and probs.shape[0] * self.k > _GUIDE_CELLS:
            self.k >>= 1
        self.guide = _guide(self.cdf, self.top, self.k)
        self.parents = [(col, offsets * self.k) for col, offsets in parents]

    def draw(self, records: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Child index per record, given its parents' columns in ``records``:
        one guide lookup, and a binary search where the bucket holds a CDF entry."""
        cell = (u * self.k).astype(np.int64)
        for col, offsets in self.parents:
            cell += offsets[records[:, col]]
        out = self.guide[cell]
        miss = np.flatnonzero(out < 0)
        if len(miss):
            out[miss] = _draw_cells(self.cdf, self.top, cell[miss] // self.k, u[miss])
        return out


def _guide(cdf: np.ndarray, top: np.ndarray, k: int) -> np.ndarray:
    """Per row r and bucket b, flattened: ``min(#{c : cdf[r, c] <= u}, top[r])``,
    the same for every u in ``[b/k, (b+1)/k)``, or -1 where a CDF entry lies
    inside the bucket.  ``k`` is a power of two, so ``cdf * k`` and ``u * k``
    are exact, and the cells <= u are those with ``ceil(cdf * k) <= b``."""
    scaled = cdf * k
    ceil = np.ceil(scaled)
    guide = np.zeros(cdf.shape[:1] + (k,), dtype=np.min_scalar_type(-cdf.shape[1] - 1))
    # the last cell of each run of equal ceilings sets the count from its bucket on
    last = np.diff(ceil, axis=1, append=np.inf) != 0
    r, c = np.nonzero(last & (ceil < k))
    guide[r, ceil[r, c].astype(np.intp)] = c + 1
    np.maximum.accumulate(guide, axis=1, out=guide)
    np.minimum(guide, top[:, None].astype(guide.dtype), out=guide)
    r, c = np.nonzero((scaled != ceil) & (scaled < k))
    guide[r, scaled[r, c].astype(np.intp)] = -1
    return guide.ravel()


def _draw_cells(cdf: np.ndarray, top: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``min(#{c : cdf[r, c] <= u}, top[r])`` with ``r = rows[i]``, for every i.

    The count is a binary search of each record's own nondecreasing CDF row,
    vectorized over records, so memory is a few arrays of ``len(u)`` whatever
    the row width.
    """
    d = cdf.shape[1]
    flat = cdf.ravel()
    last = rows * d - 1  # flat position of cell -1 of each record's row
    count = np.zeros(len(u), dtype=np.int64)
    step = 1 << (d.bit_length() - 1)
    while step:
        cand = np.minimum(count + step, d)
        count = np.where(flat[last + cand] <= u, cand, count)
        step >>= 1
    return np.minimum(count, top[rows], out=count)


class Sample(Sequence[SampleRecord]):
    """A drawn sample; indexable as SampleRecord objects.

    ``codes`` holds the per-variable child-domain indices (records x variables,
    declaration order); ``generate`` stores contiguous columns of a narrow unsigned type.
    """

    def __init__(self, variables: tuple[str, ...], domains: list, codes: np.ndarray):
        self.variables = variables
        self.domains = domains
        self.codes = codes
        self._subsets = [subsets_of(_own(domain[0]).frame) for domain in domains]
        self._own_index = [own_index(domain) for domain in domains]

    def __len__(self) -> int:
        return self.codes.shape[0]

    def __getitem__(self, i) -> SampleRecord:
        if isinstance(i, slice):
            raise TypeError("slicing a sample is not supported")
        row = self.codes[i]
        extended = tuple(domain[c] for domain, c in zip(self.domains, row))
        return SampleRecord(self.variables, extended, tuple(_own(v) for v in extended))

    def collapsed_counts(self) -> np.ndarray:
        """Counts of collapsed records, as an int64 array with one axis per
        variable, indexed by its own subsets in ``subsets_of`` order."""
        shape = tuple(len(subs) for subs in self._subsets)
        size = math.prod(shape)
        if size > MAX_STATES:
            raise SizeGuardError(f"collapsed state space holds {size} states (limit {MAX_STATES})")
        out = np.zeros(shape, dtype=np.int64)
        for inv, own in self._chunk_classes():
            out[tuple(own.T)] += np.bincount(inv)
        return out

    def marginal_counts(self, variable: str) -> dict[SubsetMask, int]:
        j = self.variables.index(variable)
        subs = self._subsets[j]
        counts = np.bincount(self._own_index[j][self.codes[:, j]], minlength=len(subs))
        return {subs[i]: int(c) for i, c in enumerate(counts) if c}

    def _chunk_classes(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Collapsed classes, ``_CHUNK`` records at a time.

        Yields, per chunk, the class id of every record and the class table:
        per class, the own-subset index of every variable (classes x variables).
        """
        for lo in range(0, len(self), _CHUNK):
            codes = self.codes[lo : lo + _CHUNK]
            # mixed-radix class code, re-ranked before a multiply could overflow
            key = np.zeros(len(codes), dtype=np.int64)
            bound = 1
            for j, subs in enumerate(self._subsets):
                if bound > np.iinfo(np.int64).max // len(subs):
                    uniq, key = np.unique(key, return_inverse=True)
                    bound = len(uniq)
                key = key * len(subs) + self._own_index[j][codes[:, j]]
                bound *= len(subs)
            if bound <= 4 * len(key) + 1024:
                # dense presence: ranks in key order, as np.unique gives them
                seen = np.zeros(bound, dtype=bool)
                seen[key] = True
                inv = (np.cumsum(seen) - 1)[key]
            else:
                inv = np.unique(key, return_inverse=True)[1]
            # one record standing for each class
            rep = np.empty(inv.max() + 1, dtype=np.int64)
            rep[inv] = np.arange(len(inv))
            own = np.stack([m[codes[rep, j]] for j, m in enumerate(self._own_index)], axis=1)
            yield inv, own


def _own(value) -> SubsetMask:
    return value if isinstance(value, SubsetMask) else value.own


def own_index(domain) -> np.ndarray:
    """Per child-domain index, the index of the value's own subset in
    ``subsets_of`` order."""
    pos = _subset_pos(_own(domain[0]).frame)
    return np.array([pos[_own(v).bits] for v in domain], dtype=np.int64)


def generate(
    net: Network,
    count: int,
    seed: int = 0,
    cpts: dict[str, ExtCPT] | None = None,
) -> Sample:
    """Draw ``count`` i.i.d. records from the extended model of ``net``.

    Identical (net, count, seed) always produce identical output.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if cpts is None:
        cpts = build_network_cpts(net)
    variables = tuple(net.variables)
    column = {name: j for j, name in enumerate(variables)}
    topo = topological_order(net)
    parents = {name: [(column[p], o) for p, o in row_offsets(net, cpts, name)] for name in topo}
    nodes = [(column[name], _NodeDraw(cpts[name].probs, parents[name])) for name in topo]
    widest = max(len(cpts[name].child_domain) for name in topo)
    # one contiguous column per variable, in the narrowest unsigned type
    codes = np.empty((count, len(topo)), dtype=np.min_scalar_type(widest - 1), order="F")
    rng = np.random.Generator(np.random.Philox(seed))
    for lo in range(0, count, _CHUNK):
        chunk = codes[lo : lo + _CHUNK]
        # one variate per record per node, in topological order; a row per node
        u = rng.random((len(chunk), len(topo))).T.copy()
        for t, (col, node) in enumerate(nodes):
            chunk[:, col] = node.draw(chunk, u[t])
    return Sample(variables, [cpts[name].child_domain for name in variables], codes)


def write_csv(sample: Sample, dest: str | IO[str]) -> None:
    """Write collapsed records as CSV: header of variable names, canonical
    subset literals as cells, newline-terminated rows."""
    if hasattr(dest, "write"):
        _write_csv_stream(sample, dest)
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            _write_csv_stream(sample, fh)


def _write_csv_stream(sample: Sample, stream: IO[str]) -> None:
    csv.writer(stream, lineterminator="\n").writerow(sample.variables)
    cells = [np.array(csv_cells(subs), dtype=object) for subs in sample._subsets]
    for inv, own in sample._chunk_classes():
        cols = [c[own[:, j]] for j, c in enumerate(cells)]
        lines = np.array([",".join(row) + "\n" for row in zip(*cols)], dtype=object)
        stream.write("".join(lines[inv]))
