"""Shared fixtures: canonical tables and networks used across the suite."""

from pathlib import Path

import pytest

from belnet import CondMassTable, Frame, load_network, parse_subset_label
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


def joint_cell(joint, *literals) -> float:
    """The mass a joint puts on the product of the subsets ``literals`` name,
    one per variable in scope order."""
    return float(joint.array[tuple(map(subset_index, literals, joint.frames))])


def cond_table(child: Frame, parent: Frame, rows: dict) -> CondMassTable:
    entries = {
        ((mask(parent, cfg),), mask(child, ch)): v for (ch, cfg), v in rows.items()
    }
    return CondMassTable.from_entries(child, (parent,), entries)


def root_table(frame: Frame, rows: dict = ROOT_ROWS) -> CondMassTable:
    entries = {((), mask(frame, lit)): v for lit, v in rows.items()}
    return CondMassTable.from_entries(frame, (), entries)


@pytest.fixture(scope="session")
def loose_cond():
    return cond_table(bframe("X2"), bframe("X1"), LOOSE_ROWS)


@pytest.fixture(scope="session")
def tight_cond():
    return cond_table(bframe("X2"), bframe("X1"), TIGHT_ROWS)


@pytest.fixture(scope="session")
def sampling_net():
    return load("chain4_sampling.dsn")
