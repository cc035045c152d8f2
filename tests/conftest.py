"""Shared fixtures: canonical tables and networks used across the suite."""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from belnet import CondTable, Frame, load_network
from belnet.cpt import value_rows

FIXTURES = Path(__file__).parent / "fixtures"

# Conditional with strong self-transition: its 4-chain composition has
# negative joint values and its CPT construction fails.
TIGHT_ROWS = {
    ("{a}", "{a}"): 22 / 75,
    ("{b}", "{a}"): -19 / 150,
    ("{a,b}", "{a}"): -1 / 6,
    ("{a}", "{b}"): -19 / 150,
    ("{b}", "{b}"): 22 / 75,
    ("{a,b}", "{b}"): -1 / 6,
    ("{a}", "{a,b}"): 0.3,
    ("{b}", "{a,b}"): 0.3,
    ("{a,b}", "{a,b}"): 0.4,
}
# Milder conditional: proper joints up to 4 variables, feasible CPTs.
LOOSE_ROWS = {
    ("{a}", "{a}"): 1 / 6,
    ("{b}", "{a}"): -1 / 12,
    ("{a,b}", "{a}"): -1 / 12,
    ("{a}", "{b}"): -1 / 12,
    ("{b}", "{b}"): 1 / 6,
    ("{a,b}", "{b}"): -1 / 12,
    ("{a}", "{a,b}"): 0.35,
    ("{b}", "{a,b}"): 0.35,
    ("{a,b}", "{a,b}"): 0.3,
}
ROOT_ROWS = {"{a}": 0.4, "{b}": 0.4, "{a,b}": 0.2}


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def load(name: str):
    return load_network(fixture_path(name))


def bframe(name: str = "X") -> Frame:
    return Frame(name, ("a", "b"))


def by_text(domain, text: str):
    """The value of ``domain``, such as ``ref_values(frame)``, that prints as ``text``."""
    return next(v for v in domain if str(v) == text)


# The plain subsets and extended domains by the paper's definition, a
# reference for the library's subset positions, integer tables and literals
# that reads none of them.


@dataclass(frozen=True)
class Subset:
    """A nonempty subset of one frame's values, as membership bits (bit i
    for ``frame.values[i]``)."""

    frame: Frame
    bits: int

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def issubset(self, other: "Subset") -> bool:
        return self.bits & other.bits == self.bits

    def __str__(self) -> str:
        labels = (v for i, v in enumerate(self.frame.values) if self.bits >> i & 1)
        return "{" + ",".join(labels) + "}"


@lru_cache(maxsize=None)
def subsets(frame: Frame) -> tuple:
    """The nonempty subsets of ``frame`` by size; within a size, by their
    members compared from the last frame value down, which is the order of
    their membership bits read as binary numbers."""
    values = range(len(frame))
    members = [c for k in range(1, len(frame) + 1) for c in itertools.combinations(values, k)]
    members.sort(key=lambda c: (len(c), c[::-1]))
    return tuple(Subset(frame, sum(1 << i for i in c)) for c in members)


def mask(frame: Frame, literal: str) -> Subset:
    """The subset of ``frame`` whose canonical literal is ``literal``."""
    return by_text(subsets(frame), literal)


def configs(table) -> list:
    """The parent configurations of a conditional table in row order, as
    tuples of reference subsets."""
    return list(itertools.product(*map(subsets, table.parent_frames)))


@dataclass(frozen=True)
class Value:
    """An extended value: a plain subset, or ``own`` split by ``op`` from the
    value ``sup``."""

    own: Subset
    op: str | None = None
    sup: "Value | None" = None

    @property
    def is_plain(self) -> bool:
        return self.op is None

    def __str__(self) -> str:
        return str(self.own) if self.is_plain else f"{self.own}{self.op}{self.sup}"


@dataclass(frozen=True)
class Vector:
    """An extended vector for n successors: a plain subset on every edge, or
    the family member of the split ``own`` of ``sup`` that is ``@`` on edge h
    where pattern bit h-1 is set."""

    own: Subset
    n: int
    sup: Value | None = None
    pattern: int = 0

    @property
    def is_plain(self) -> bool:
        return self.sup is None

    def __str__(self) -> str:
        return "[" + ";".join(str(component(self, h)) for h in range(1, self.n + 1)) + "]"


def component(vec: Vector, h: int) -> Value:
    """The value ``vec`` feeds successor edge h (1-based)."""
    if vec.is_plain:
        return Value(vec.own)
    return Value(vec.own, "@" if vec.pattern >> (h - 1) & 1 else "o", vec.sup)


def proper_subsets(frame: Frame, own: Subset) -> list:
    """The proper nonempty subsets of ``own``, in canonical order."""
    return [s for s in subsets(frame) if s != own and s.issubset(own)]


@lru_cache(maxsize=None)
def ref_values(frame: Frame) -> tuple:
    """The plain values, then level by level, each value of the last level
    split by every proper nonempty subset of its own set, ``o`` before ``@``."""
    level = [Value(s) for s in subsets(frame)]
    out = list(level)
    while level:
        level = [
            Value(s, op, v) for op in "o@" for v in level for s in proper_subsets(frame, v.own)
        ]
        out += level
    return tuple(out)


@lru_cache(maxsize=None)
def ref_vectors(frame: Frame, n: int) -> tuple:
    """The plain vectors, then per superset value and proper subset of its
    own set, the family members of patterns 1 to 2^n - 1."""
    out = [Vector(s, n) for s in subsets(frame)]
    for sup in ref_values(frame):
        for s in proper_subsets(frame, sup.own):
            out += [Vector(s, n, sup, pattern) for pattern in range(1, 1 << n)]
    return tuple(out)


def child_values(cpt) -> tuple:
    """The reference values of a CPT's child domain: plain subsets for a node
    with no successors, else its extended vectors."""
    frame, n = cpt.source.child_frame, cpt.n_successors
    return ref_vectors(frame, n) if n else subsets(frame)


def _row_index(domains, cfg) -> int:
    """The C-order row of the parent values ``cfg``, one from each of ``domains``."""
    assert len(cfg) == len(domains), f"{len(cfg)} parent values for {len(domains)} parents"
    index = 0
    for domain, value in zip(domains, cfg):
        index = index * len(domain) + domain.index(value)
    return index


def cpt_row(cpt, cfg=()):
    """The row of ``cpt`` given the parent extended values ``cfg``, each a
    literal or a value that prints as one, read through the per-value index ``value_rows``."""
    return cpt.probs[value_rows(cpt)][_row_index(cpt.parent_domains, tuple(map(str, cfg)))]


def mass_table(child: Frame, parents: tuple, entries: dict) -> CondTable:
    """A conditional mass table from a sparse mapping ``{(cfg, child subset): v}``,
    ``cfg`` a tuple of parent subsets; absent cells are zero."""
    domains = [subsets(f) for f in parents]
    values = np.zeros((math.prod(map(len, domains)), len(subsets(child))))
    for (cfg, subset), v in entries.items():
        values[_row_index(domains, cfg), subsets(child).index(subset)] = v
    return CondTable(child, parents, values, "m")


def table_row(table, cfg=()) -> np.ndarray:
    """The row of a conditional table given the parent subsets ``cfg``."""
    return table.values[_row_index([subsets(f) for f in table.parent_frames], cfg)]


def table_cell(table, cfg, child) -> float:
    """The cell of a conditional table at the parent subsets ``cfg`` and the
    child subset ``child``."""
    return float(table_row(table, cfg)[subsets(table.child_frame).index(child)])


def axis_labels(joint) -> list:
    """Per axis of a joint, what it runs over: the nonempty subsets of each
    frame of a ``JointMass``, or a reference's own ``labels``."""
    if hasattr(joint, "frames"):
        return [subsets(f) for f in joint.frames]
    return joint.labels


def support(joint) -> dict:
    """The nonzero cells of a joint, keyed by state tuples (one label per
    variable)."""
    labels = axis_labels(joint)
    return {tuple(lab[i] for lab, i in zip(labels, cell)): float(joint.array[tuple(cell)])
            for cell in np.argwhere(joint.array)}


def marginal(joint, variable: str) -> dict:
    """The nonzero marginal probabilities of ``variable``, keyed by its labels."""
    j = joint.scope.index(variable)
    sums = joint.array.sum(axis=tuple(a for a in range(joint.array.ndim) if a != j))
    return {lab: p for lab, p in zip(axis_labels(joint)[j], sums.tolist()) if p}


def ternary_collider(parents: int, spread: float, seed: int = 0) -> str:
    """``.dsn`` text of a ternary leaf C under ``parents`` ternary roots A1, A2,
    ...: every root row heavy on singletons (a cell shrinks by 0.1 per extra
    member), every leaf row the same with 0.3, perturbed by up to ``spread``
    (relative, per cell) and renormalized."""
    rng = np.random.default_rng(seed)
    literals = [str(s) for s in subsets(Frame("C", ("a", "b", "c")))]
    sizes = np.array([s.count(",") for s in literals])
    roots = [f"A{i}" for i in range(1, parents + 1)]
    lines = [f"var {v} : a b c" for v in roots + ["C"]] + [f"edge {v} -> C" for v in roots]
    for v in roots:
        row = 0.1**sizes / (0.1**sizes).sum()
        lines += [f"table {v} | kind=k"] + [f"  {s} : {float(x)!r}" for s, x in zip(literals, row)]
        lines.append("end")
    lines.append(f"table C | {' '.join(roots)} kind=k")
    for cfg in itertools.product(literals, repeat=parents):
        row = 0.3**sizes * (1 + rng.uniform(-spread, spread, len(literals)))
        row /= row.sum()
        lines += [f"  {s} | {' '.join(cfg)} : {float(x)!r}" for s, x in zip(literals, row)]
    return "\n".join(lines + ["end"]) + "\n"


def joint_cell(joint, *literals) -> float:
    """The mass a joint puts on the product of the subsets ``literals`` name,
    one per variable in scope order."""
    cell = (list(map(str, subsets(f))).index(t) for f, t in zip(joint.frames, literals))
    return float(joint.array[tuple(cell)])


def cond_table(child: Frame, parent: Frame, rows: dict) -> CondTable:
    entries = {
        ((mask(parent, cfg),), mask(child, ch)): v for (ch, cfg), v in rows.items()
    }
    return mass_table(child, (parent,), entries)


def root_table(frame: Frame, rows: dict = ROOT_ROWS) -> CondTable:
    entries = {((), mask(frame, lit)): v for lit, v in rows.items()}
    return mass_table(frame, (), entries)


@pytest.fixture(scope="session")
def loose_cond():
    return cond_table(bframe("X2"), bframe("X1"), LOOSE_ROWS)


@pytest.fixture(scope="session")
def tight_cond():
    return cond_table(bframe("X2"), bframe("X1"), TIGHT_ROWS)


@pytest.fixture(scope="session")
def sampling_net():
    return load("chain4_sampling.dsn")
