"""Forward (ancestral) sampling over extended domains, collapse, CSV output.

A sample stores no records: each pass over it draws them afresh, chunk by
chunk, from a single integer seed.  A counter-based generator produces one
uniform variate per record per node, and each record consumes only its own
row of variates, so output is identical no matter how records are batched.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from typing import IO, Callable, Iterable, Iterator

import numpy as np

from .cpt import ExtCPT, build_network_cpts
from .errors import SizeGuardError
from .tables import csv_cells, subsets_of
from .extvals import component, ext_table, ext_value_index, own_index
from .network import Network, edge_index, topological_order

_CHUNK = 1 << 18
_GUIDE_CELLS = 1 << 21  # guide entries per node, at most
MAX_STATES = 10_000_000  # cells of a dense joint or count array, at most
# collapsed classes of a run of CSV columns, at most: a run's class texts are formatted
# up front, and this caps that work while one run still covers each benchmark network
_CSV_CLASSES = 1 << 12


def row_offsets(net: Network, cpts: dict[str, ExtCPT], name: str) -> list[tuple[str, np.ndarray]]:
    """How the parents' drawn values address a row of ``name``'s CPT.

    Per parent: its name and, per index into its child domain, the row of that
    value's component (``ext_table.row``) times the parent's stride in the row
    index (the sum over parents is the row).
    """
    out = []
    stride = cpts[name].probs.shape[0]
    for parent, frame in zip(cpts[name].parent_names, cpts[name].source.parent_frames):
        table = ext_table(frame)
        stride //= len(table.first)
        h = edge_index(net, parent, name)
        comp = [ext_value_index(component(x, h)) for x in cpts[parent].child_domain]
        out.append((parent, table.row[comp] * stride))
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


class Sample:
    """``count`` records of ``variables``, drawn afresh on each pass.

    ``source()`` starts a pass: an iterable of the records in order, in chunks
    of per-variable child-domain indices (records x variables, declaration
    order), axis j indexing ``domains[j]``, variable j's child domain.
    """

    def __init__(self, variables: tuple[str, ...], domains: list, count: int, source: Callable):
        self.variables = variables
        self.count = count
        self._source = source
        self._subsets = [subsets_of(domain[0].frame) for domain in domains]
        self._own_index = [own_index(domain) for domain in domains]

    def __len__(self) -> int:
        return self.count

    def chunks(self) -> Iterable[np.ndarray]:
        """One pass over the records, chunk by chunk; each pass draws them again."""
        return self._source()

    def collapsed_counts(self) -> np.ndarray:
        """Counts of collapsed records, as an int64 array with one axis per
        variable, indexed by its own subsets in ``subsets_of`` order."""
        shape = tuple(len(subs) for subs in self._subsets)
        size = math.prod(shape)
        if size > MAX_STATES:
            raise SizeGuardError(f"collapsed state space holds {size} states (limit {MAX_STATES})")
        out = np.zeros(size, dtype=np.int64)
        for codes in self.chunks():
            counts = np.bincount(self._classes(codes, 0, len(shape)))
            out[: len(counts)] += counts
        return out.reshape(shape)

    def _classes(self, codes: np.ndarray, first: int, stop: int) -> np.ndarray:
        """Collapsed class of each record of the chunk ``codes`` over variables
        ``first:stop``: their own-subset indices in mixed radix, last fastest."""
        owns = [self._own_index[j][codes[:, j]] for j in range(first, stop)]
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
    dtype = np.min_scalar_type(max(len(cpts[name].child_domain) for name in topo) - 1)
    source = functools.partial(_draw_chunks, nodes, dtype, count, seed)
    return Sample(variables, [cpts[name].child_domain for name in variables], count, source)


def _draw_chunks(nodes: list, dtype: np.dtype, count: int, seed: int) -> Iterator[np.ndarray]:
    """``count`` records from a fresh generator seeded by ``seed``, in chunks of ``_CHUNK``."""
    rng = np.random.Generator(np.random.Philox(seed))
    for lo in range(0, count, _CHUNK):
        yield _draw_chunk(nodes, dtype, rng, min(_CHUNK, count - lo))


def _draw_chunk(nodes: list, dtype: np.dtype, rng: np.random.Generator, size: int) -> np.ndarray:
    """The codes of ``size`` records; their variates are freed before the caller yields."""
    codes = np.empty((size, len(nodes)), dtype=dtype, order="F")
    # one variate per record per node, in topological order; a row per node
    u = rng.random((size, len(nodes))).T.copy()
    for t, (col, node) in enumerate(nodes):
        codes[:, col] = node.draw(codes, u[t])
    return codes


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
