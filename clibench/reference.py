"""Independent reference: the exact joint mass function of a `.dsn` network.

Nothing here imports belnet.  The file reader is a small one of its own, and
the joint is computed by a route the package does not take: unnormalized
conjunctive combination multiplies commonality functions pointwise (Shafer,
*A Mathematical Theory of Evidence*, 1976), and commonality and mass are
related by per-axis zeta/Moebius transforms over subset bits (Kennes & Smets,
*Computational aspects of the Moebius transformation*, UAI 1990).

Every variable with frame Theta gets one axis of length 2**|Theta|, indexed by
subset bits with the empty subset kept at index 0.  A node's conditional mass
table is a factor over its parent axes and its own axis (full set elsewhere);
its commonality is the superset sum over those axes.  The product of all
factors is the commonality of the combination, and one Moebius inversion over
every axis gives the joint mass.  Cells with an empty coordinate hold the mass
of empty intersections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Table:
    child: str
    parents: tuple[str, ...]
    kind: str
    # (parent subset bits..., child subset bits) -> value
    entries: dict[tuple[int, ...], float] = field(default_factory=dict)


@dataclass
class Model:
    name: str
    frames: dict[str, tuple[str, ...]] = field(default_factory=dict)
    edges: list[tuple[str, str]] = field(default_factory=list)
    tables: dict[str, Table] = field(default_factory=dict)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self.frames)

    def successors(self, name: str) -> list[str]:
        return [c for p, c in self.edges if p == name]


def literal_bits(text: str, labels: tuple[str, ...]) -> int:
    """Bits of a subset literal such as ``{a,b}``; raises ValueError if invalid."""
    text = text.strip()
    if len(text) < 3 or text[0] != "{" or text[-1] != "}":
        raise ValueError(f"not a subset literal: {text!r}")
    bits = 0
    for label in text[1:-1].split(","):
        i = labels.index(label.strip())
        if bits >> i & 1:
            raise ValueError(f"repeated label in {text!r}")
        bits |= 1 << i
    return bits


def bits_literal(bits: int, labels: tuple[str, ...]) -> str:
    return "{" + ",".join(v for i, v in enumerate(labels) if bits >> i & 1) + "}"


def read_model(text: str, name: str = "net") -> Model:
    """Read the subset of the `.dsn` format that the benchmark's inputs use."""
    model = Model(name)
    table: Table | None = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if table is not None:
            if line == "end":
                model.tables[table.child] = table
                table = None
                continue
            left, value = line.rsplit(":", 1)
            child_lit, _, parent_part = left.partition("|")
            parent_lits = parent_part.split()
            if len(parent_lits) != len(table.parents):
                raise ValueError(f"row arity does not match table {table.child}: {line!r}")
            key = tuple(
                literal_bits(lit, model.frames[p]) for lit, p in zip(parent_lits, table.parents)
            ) + (literal_bits(child_lit, model.frames[table.child]),)
            table.entries[key] = float(value)
        elif line.startswith("net "):
            model.name = line[4:].strip()
        elif line.startswith("var "):
            var, labels = line[4:].split(":", 1)
            model.frames[var.strip()] = tuple(labels.split())
        elif line.startswith("edge "):
            a, b = line[5:].split("->")
            model.edges.append((a.strip(), b.strip()))
        elif line.startswith("table "):
            head, kind = line[6:].rsplit("kind=", 1)
            child, _, parents = head.partition("|")
            table = Table(child.strip(), tuple(parents.split()), kind.strip())
        else:
            raise ValueError(f"unrecognized line {line!r}")
    if table is not None:
        raise ValueError(f"table {table.child} is not closed")
    return model


def load_model(path: str) -> Model:
    with open(path, encoding="utf-8") as fh:
        return read_model(fh.read(), path.rsplit("/", 1)[-1].rsplit(".", 1)[0])


def _transform(a: np.ndarray, widths: list[int], sign: float, axes=None) -> np.ndarray:
    """Per-bit superset sums (sign +1) or their inverse (sign -1).

    Axis i of ``a`` has length 2**widths[i] and is viewed as widths[i] axes of
    length 2, one per subset bit; only the axes listed in ``axes`` (default:
    all) are transformed.
    """
    b = a.reshape([2] * sum(widths)).copy()
    starts = np.cumsum([0] + widths)
    for i in range(len(widths)) if axes is None else axes:
        for ax in range(starts[i], starts[i + 1]):
            lo = [slice(None)] * b.ndim
            hi = [slice(None)] * b.ndim
            lo[ax], hi[ax] = 0, 1
            b[tuple(lo)] += sign * b[tuple(hi)]
    return b.reshape(a.shape)


def zeta(a: np.ndarray, widths: list[int], axes=None) -> np.ndarray:
    """Superset sums: out[A] = sum over B containing A (per axis) of a[B]."""
    return _transform(a, widths, 1.0, axes)


def moebius(a: np.ndarray, widths: list[int], axes=None) -> np.ndarray:
    """Inverse of :func:`zeta` on the same axes."""
    return _transform(a, widths, -1.0, axes)


def _dense_table(model: Model, table: Table) -> np.ndarray:
    """The table as a dense array over (parents..., child), mass form."""
    axes = table.parents + (table.child,)
    widths = [len(model.frames[v]) for v in axes]
    a = np.zeros([1 << w for w in widths])
    for key, v in table.entries.items():
        a[key] += v
    if table.kind == "k":
        # commonality tables cumulate mass over coarser parent configurations
        # (nonempty ones only); undo that on the parent axes
        a = moebius(a, widths, axes=range(len(table.parents)))
        for ax in range(len(table.parents)):
            index = [slice(None)] * a.ndim
            index[ax] = 0
            a[tuple(index)] = 0.0
    elif table.kind != "m":
        raise ValueError(f"unknown table kind {table.kind!r}")
    return a


@dataclass
class Joint:
    variables: tuple[str, ...]
    frames: tuple[tuple[str, ...], ...]
    mass: np.ndarray  # dense over per-variable subset bits, empty subset at 0

    def entries(self, tol: float = 0.0) -> dict[tuple[int, ...], float]:
        """Focal elements with every coordinate nonempty and |mass| > tol."""
        inner = self.mass[tuple(slice(1, None) for _ in self.variables)]
        out = {}
        for idx in zip(*np.nonzero(np.abs(inner) > tol)):
            out[tuple(int(i) + 1 for i in idx)] = float(inner[idx])
        return out

    @property
    def empty_mass(self) -> float:
        inner = self.mass[tuple(slice(1, None) for _ in self.variables)]
        return float(self.mass.sum() - inner.sum())

    def marginal(self, variable: str) -> np.ndarray:
        """Mass of each subset of one variable (index = subset bits)."""
        j = self.variables.index(variable)
        inner = self.mass[tuple(slice(1, None) for _ in self.variables)]
        out = np.zeros(self.mass.shape[j])
        out[1:] = inner.sum(axis=tuple(i for i in range(inner.ndim) if i != j))
        return out


def combination_joint(model: Model) -> Joint:
    """Unnormalized conjunctive combination of every node's table."""
    variables = model.variables
    widths = [len(model.frames[v]) for v in variables]
    q = np.ones([1 << w for w in widths])
    for name, table in model.tables.items():
        axes = table.parents + (table.child,)
        factor = zeta(_dense_table(model, table), [len(model.frames[v]) for v in axes])
        # broadcast the factor onto the full scope in the scope's axis order
        order = sorted(range(len(axes)), key=lambda i: variables.index(axes[i]))
        factor = factor.transpose(order)
        shape = [1] * len(variables)
        for i in order:
            shape[variables.index(axes[i])] = factor.shape[order.index(i)]
        q *= factor.reshape(shape)
    frames = tuple(model.frames[v] for v in variables)
    return Joint(variables, frames, moebius(q, widths))
