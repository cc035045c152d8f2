"""Forward (ancestral) sampling over extended domains, collapse, CSV output.

A sample stores no records: each pass over it draws them afresh, chunk by
chunk, from a single integer seed.  A counter-based generator produces one
uniform variate per record per node, and each record consumes only its own
row of variates, so output is identical no matter how records are batched.
"""

from __future__ import annotations

import csv
import itertools
import math
from typing import IO, Iterator

import numpy as np

from .cpt import ExtCPT, build_network_cpts
from .errors import SizeGuardError
from .tables import csv_cells, subset_literals
from .extvals import ext_table, vector_table
from .network import Network, edge_index, topological_order

_CHUNK = 1 << 18
_GUIDE_CELLS = 1 << 21  # guide entries per node, at most
MAX_STATES = 10_000_000  # cells of a dense joint or count array, at most
# collapsed classes of a run of CSV columns, at most: a run's class texts are formatted
# up front, and this caps that work while one run still covers each benchmark network
_CSV_CLASSES = 1 << 12


def guard_states(shape) -> int:
    """The cells of a collapsed array of ``shape``; SizeGuardError past MAX_STATES."""
    if (size := math.prod(shape)) > MAX_STATES:
        raise SizeGuardError(f"collapsed state space holds {size} states (limit {MAX_STATES})")
    return size


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


class _NodeDraw:
    """One node's drawing tables: the cumulative CPT rows, holding 2 from each
    row's last positive cell on, a guide of ``k`` buckets per row, and per
    parent, its record column and its ``row_offsets`` pre-multiplied by ``k``."""

    def __init__(self, probs: np.ndarray, parents: list[tuple[int, np.ndarray]]):
        # nonnegative cells, so every CDF row is nondecreasing; no variate (< 1) reaches a 2
        self.cdf = np.cumsum(probs, axis=1)
        last = np.where(probs > 0.0, np.arange(probs.shape[1]), -1).max(axis=1)
        self.cdf[np.arange(probs.shape[1]) >= last[:, None]] = 2.0
        self.k = 1 << max(4, (8 * probs.shape[1] - 1).bit_length())
        while self.k > 1 and probs.shape[0] * self.k > _GUIDE_CELLS:
            self.k >>= 1
        self.guide = _guide(self.cdf, self.k)
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
            out[miss] = _draw_cells(self.cdf, cell[miss] // self.k, u[miss])
        return out


def _guide(cdf: np.ndarray, k: int) -> np.ndarray:
    """Per row r and bucket b, flattened: ``#{c : cdf[r, c] <= u}``, the same for
    every u in ``[b/k, (b+1)/k)``, or -1 where a CDF entry lies inside the
    bucket.  ``k`` is a power of two, so ``cdf * k`` and ``u * k`` are exact,
    and the cells <= u are those with ``ceil(cdf * k) <= b``."""
    scaled = cdf * k
    ceil = np.ceil(scaled)
    guide = np.zeros(cdf.shape[:1] + (k,), dtype=np.min_scalar_type(-cdf.shape[1] - 1))
    # the last cell of each run of equal ceilings sets the count from its bucket on
    last = np.diff(ceil, axis=1, append=np.inf) != 0
    r, c = np.nonzero(last & (ceil < k))
    guide[r, ceil[r, c].astype(np.intp)] = c + 1
    np.maximum.accumulate(guide, axis=1, out=guide)
    r, c = np.nonzero((scaled != ceil) & (scaled < k))
    guide[r, scaled[r, c].astype(np.intp)] = -1
    return guide.ravel()


def _draw_cells(cdf: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``#{c : cdf[r, c] <= u}`` with ``r = rows[i]``, for every i.

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
    return count


class Sample:
    """``count`` records of ``variables``, drawn afresh on each pass from a
    fresh generator seeded by ``seed``.

    ``nodes`` are the drawing tables, ``(column, _NodeDraw)`` in topological
    order, and ``dtype`` the type of a drawn code: an index into variable j's
    child values, which ``owns[j]`` maps to its own subset in
    ``subset_literals(frames[j])``.
    """

    def __init__(
        self, variables: tuple[str, ...], frames, owns, count: int, seed: int, nodes: list, dtype
    ):
        self.variables = variables
        self.count = count
        self.seed = seed
        self._nodes = nodes
        self._dtype = dtype
        self._subsets = [subset_literals(frame) for frame in frames]
        self._owns = owns

    def __len__(self) -> int:
        return self.count

    def chunks(self) -> Iterator[np.ndarray]:
        """One pass over the records, in chunks of ``_CHUNK`` (records x
        variables, declaration order); each pass draws them again."""
        rng = np.random.Generator(np.random.Philox(self.seed))
        for lo in range(0, self.count, _CHUNK):
            yield self._draw(rng, min(_CHUNK, self.count - lo))

    def _draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """The codes of ``size`` records; their variates are freed before the caller yields."""
        codes = np.empty((size, len(self._nodes)), dtype=self._dtype, order="F")
        # one variate per record per node, in topological order; a column per node
        u = rng.random((size, len(self._nodes)))
        for t, (col, node) in enumerate(self._nodes):
            codes[:, col] = node.draw(codes, u[:, t])
        return codes

    def collapsed_counts(self) -> np.ndarray:
        """Counts of collapsed records, as an int64 array with one axis per
        variable, indexed by its own subsets in ``subset_literals`` order."""
        shape = tuple(len(subs) for subs in self._subsets)
        out = np.zeros(guard_states(shape), dtype=np.int64)
        for codes in self.chunks():
            counts = np.bincount(self._classes(codes, 0, len(shape)))
            out[: len(counts)] += counts
        return out.reshape(shape)

    def _classes(self, codes: np.ndarray, first: int, stop: int) -> np.ndarray:
        """Collapsed class of each record of the chunk ``codes`` over variables
        ``first:stop``: their own-subset indices in mixed radix, last fastest."""
        owns = [self._owns[j][codes[:, j]] for j in range(first, stop)]
        return np.ravel_multi_index(owns, [len(subs) for subs in self._subsets[first:stop]])


def generate(
    net: Network,
    count: int,
    seed: int = 0,
    cpts: dict[str, ExtCPT] | None = None,
) -> Sample:
    """``count`` i.i.d. records from the extended model of ``net``, drawn on each
    pass; an infeasible model is refused here, before any record is drawn.

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
    # one contiguous column per variable, in the narrowest unsigned type
    dtype = np.min_scalar_type(max(cpts[name].probs.shape[1] for name in topo) - 1)
    owns = [cpts[name].own for name in variables]
    return Sample(variables, tuple(map(net.frame, variables)), owns, count, seed, nodes, dtype)


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
    sizes = [len(subs) for subs in sample._subsets]
    starts = [0]  # runs of at most _CSV_CLASSES classes; a wider variable is a run of its own
    for j in range(1, len(sizes)):
        if math.prod(sizes[starts[-1] : j + 1]) > _CSV_CLASSES:
            starts.append(j)
    runs = list(zip(starts, starts[1:] + [len(sizes)]))
    # per run, the text of every class: each cell followed by "," or, last, the line end
    ends = [","] * (len(sizes) - 1) + ["\n"]
    cells = [[c + end for c in csv_cells(subs)] for subs, end in zip(sample._subsets, ends)]
    pieces = [np.array(list(map("".join, itertools.product(*cells[a:b]))), object) for a, b in runs]
    for codes in sample.chunks():
        cols = [p[sample._classes(codes, a, b)] for p, (a, b) in zip(pieces, runs)]
        stream.write("".join(np.stack(cols, axis=1).ravel().tolist()))
