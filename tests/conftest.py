"""Shared fixtures: canonical tables and networks used across the suite."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from belnet import CondMassTable, Frame, load_network, parse_subset_label, subsets_of
from belnet.cpt import value_rows
from belnet.tables import subset_index

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


def mask(frame: Frame, literal: str):
    return parse_subset_label(literal, frame)


def by_text(domain, text: str):
    """The value of ``domain``, such as ``ext_values(frame)``, that prints as ``text``."""
    return next(v for v in domain if str(v) == text)


def _row_index(domains, cfg) -> int:
    """The C-order row of the parent values ``cfg``, one from each of ``domains``."""
    assert len(cfg) == len(domains), f"{len(cfg)} parent values for {len(domains)} parents"
    index = 0
    for domain, value in zip(domains, cfg):
        index = index * len(domain) + domain.index(value)
    return index


def cpt_row(cpt, cfg=()):
    """The row of ``cpt`` given the parent extended values ``cfg``, read from
    the per-value view ``value_rows``."""
    return value_rows(cpt)[_row_index(cpt.parent_domains, cfg)]


def mass_table(child: Frame, parents: tuple, entries: dict) -> CondMassTable:
    """A conditional mass table from a sparse mapping ``{(cfg, child subset): v}``,
    ``cfg`` a tuple of parent subsets; absent cells are zero."""
    domains = [subsets_of(f) for f in parents]
    values = np.zeros((math.prod(map(len, domains)), len(subsets_of(child))))
    for (cfg, subset), v in entries.items():
        values[_row_index(domains, cfg), subsets_of(child).index(subset)] = v
    return CondMassTable(child, parents, values)


def table_row(table, cfg=()) -> np.ndarray:
    """The row of a conditional table given the parent subsets ``cfg``."""
    return table.values[_row_index([subsets_of(f) for f in table.parent_frames], cfg)]


def table_cell(table, cfg, child) -> float:
    """The cell of a conditional table at the parent subsets ``cfg`` and the
    child subset ``child``."""
    return float(table_row(table, cfg)[subsets_of(table.child_frame).index(child)])


def support(exact) -> dict:
    """The nonzero cells of an exact distribution, keyed by state tuples (one
    label per variable)."""
    cells = np.argwhere(exact.array)
    return {tuple(lab[i] for lab, i in zip(exact.labels, cell)): float(exact.array[tuple(cell)])
            for cell in cells}


def marginal(exact, variable: str) -> dict:
    """The nonzero marginal probabilities of ``variable``, keyed by its labels."""
    j = exact.variables.index(variable)
    sums = exact.array.sum(axis=tuple(a for a in range(exact.array.ndim) if a != j))
    return {lab: p for lab, p in zip(exact.labels[j], sums.tolist()) if p}


def ternary_collider(parents: int, spread: float, seed: int = 0) -> str:
    """``.dsn`` text of a ternary leaf C under ``parents`` ternary roots A1, A2,
    ...: every root row heavy on singletons (a cell shrinks by 0.1 per extra
    member), every leaf row the same with 0.3, perturbed by up to ``spread``
    (relative, per cell) and renormalized."""
    rng = np.random.default_rng(seed)
    subsets = [str(s) for s in subsets_of(Frame("C", ("a", "b", "c")))]
    sizes = np.array([s.count(",") for s in subsets])
    roots = [f"A{i}" for i in range(1, parents + 1)]
    lines = [f"var {v} : a b c" for v in roots + ["C"]] + [f"edge {v} -> C" for v in roots]
    for v in roots:
        row = 0.1**sizes / (0.1**sizes).sum()
        lines += [f"table {v} | kind=k"] + [f"  {s} : {float(x)!r}" for s, x in zip(subsets, row)]
        lines.append("end")
    lines.append(f"table C | {' '.join(roots)} kind=k")
    for cfg in itertools.product(subsets, repeat=parents):
        row = 0.3**sizes * (1 + rng.uniform(-spread, spread, len(subsets)))
        row /= row.sum()
        lines += [f"  {s} | {' '.join(cfg)} : {float(x)!r}" for s, x in zip(subsets, row)]
    return "\n".join(lines + ["end"]) + "\n"


def joint_cell(joint, *literals) -> float:
    """The mass a joint puts on the product of the subsets ``literals`` name,
    one per variable in scope order."""
    return float(joint.array[tuple(map(subset_index, literals, joint.frames))])


def cond_table(child: Frame, parent: Frame, rows: dict) -> CondMassTable:
    entries = {
        ((mask(parent, cfg),), mask(child, ch)): v for (ch, cfg), v in rows.items()
    }
    return mass_table(child, (parent,), entries)


def root_table(frame: Frame, rows: dict = ROOT_ROWS) -> CondMassTable:
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
