"""Subset literals and parsing, conditional tables, and the mass <-> commonality transforms."""

import csv
import io
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belnet import (
    CondTable,
    Frame,
    InfeasibleModelError,
    SubsetParseError,
    commonality_to_mass,
    mass_to_commonality,
    parse_network,
    subset_index,
    subset_literals,
    validate_table,
)
from belnet import tables
from belnet.tables import bit_ordered, superset_sums, write_cells

from conftest import (
    LOOSE_ROWS,
    TIGHT_ROWS,
    bframe,
    cond_table,
    configs,
    mask,
    mass_table,
    subsets,
    table_cell,
)

# Commonality of the milder conditional, child values in order {a},{b},{a,b}.
LOOSE_COMM = {
    "{a}": (0.516667, 0.266667, 0.216667),
    "{b}": (0.266667, 0.516667, 0.216667),
    "{a,b}": (0.35, 0.35, 0.3),
}


def _refused(text: str, frame: Frame) -> str:
    with pytest.raises(SubsetParseError) as info:
        subset_index(text, frame)
    return str(info.value)


class TestParseSubsetLabel:
    def test_full_set(self):
        f = bframe()
        assert subset_literals(f)[subset_index("{a,b}", f)] == "{a,b}"

    def test_singleton(self):
        assert subset_index("{a}", bframe()) == 0

    def test_unknown_label(self):
        assert _refused("{c}", bframe()) == "unknown label 'c' for frame 'X' (values: a, b)"

    def test_empty_braces(self):
        assert _refused("{}", bframe()) == "empty subset literal '{}'"
        assert _refused(" { } ", bframe()) == "empty subset literal '{ }'"

    def test_duplicate_label(self):
        assert _refused("{a,a}", bframe()) == "duplicate label 'a' in '{a,a}'"
        assert _refused("{ b , b }", bframe()) == "duplicate label 'b' in '{ b , b }'"

    def test_unbraced(self):
        for text in ("a", "{a", "a}", "(a,b)"):
            want = f"subset literal must be brace-delimited, got {text!r}"
            assert _refused(text, bframe()) == want

    def test_canonical_printing_uses_frame_order(self):
        f = Frame("Y", ("b", "a"))
        assert subset_literals(f)[subset_index("{a,b}", f)] == "{b,a}"

    def test_other_spellings_name_the_same_subset(self):
        f = Frame("Y", ("a", "b", "c"))
        for text in ("{b,a}", "{ a , b }", " {a,b} ", "{b, a}"):
            assert subset_index(text, f) == 3
        assert subset_index("{c,b,a}", f) == 6


def test_subset_order_by_size_then_members():
    f = Frame("Y", ("a", "b", "c"))
    assert subset_literals(f) == ("{a}", "{b}", "{c}", "{a,b}", "{a,c}", "{b,c}", "{a,b,c}")
    # within a size, the bits as a number: the last value weighs most
    pairs = subset_literals(Frame("Z", ("a", "b", "c", "d")))[4:10]
    assert pairs == ("{a,b}", "{a,c}", "{b,c}", "{a,d}", "{b,d}", "{c,d}")


# frames of 1-4 values, and the 13 values of the sampler's widest CSV test
REFERENCE_FRAMES = [Frame("X", tuple("abcdefghijklm"[:n])) for n in (1, 2, 3, 4, 13)]


@pytest.mark.parametrize("frame", REFERENCE_FRAMES, ids=lambda f: f"{len(f)}-values")
def test_subset_literals_of_the_reference(frame):
    """The literals and positions are those of the suite's own enumeration,
    and every literal parses back to its position."""
    ref = subsets(frame)
    assert subset_literals(frame) == tuple(map(str, ref))
    assert [subset_index(str(s), frame) for s in ref] == list(range(len(ref)))
    # a spelling with the members reversed and spaced is the same subset
    spaced = ["{ " + " , ".join(reversed(str(s)[1:-1].split(","))) + " }" for s in ref]
    assert [subset_index(t, frame) for t in spaced] == list(range(len(ref)))


class TestMassToCommonality:
    def test_golden_values(self, loose_cond):
        k = mass_to_commonality(loose_cond)
        for cfg_lit, row in LOOSE_COMM.items():
            cfg = (mask(loose_cond.parent_frames[0], cfg_lit),)
            for child_lit, want in zip(("{a}", "{b}", "{a,b}"), row):
                got = table_cell(k, cfg, mask(loose_cond.child_frame, child_lit))
                assert got == pytest.approx(want, abs=1e-6)

    def test_rows_are_distributions(self, loose_cond, tight_cond):
        for m in (loose_cond, tight_cond):
            k = mass_to_commonality(m)
            assert np.allclose(k.values.sum(axis=1), 1.0, atol=1e-9)
            assert k.values.min() >= 0.0

    def test_single_superset_term(self, loose_cond):
        k = mass_to_commonality(loose_cond)
        full = mask(loose_cond.parent_frames[0], "{a,b}")
        got = table_cell(k, (full,), mask(loose_cond.child_frame, "{a,b}"))
        assert got == pytest.approx(0.3, abs=1e-9)

    def test_vacuous(self):
        child, parent = bframe("C"), bframe("P")
        m = mass_table(
            child, (parent,), {((mask(parent, "{a,b}"),), mask(child, "{a,b}")): 1.0}
        )
        k = mass_to_commonality(m)
        for cfg in configs(k):
            assert table_cell(k, cfg, mask(child, "{a,b}")) == 1.0
            assert table_cell(k, cfg, mask(child, "{a}")) == 0.0

    def test_not_representable(self):
        child, parent = bframe("C"), bframe("P")
        m = mass_table(
            child,
            (parent,),
            {
                ((mask(parent, "{a}"),), mask(child, "{a}")): -0.5,
                ((mask(parent, "{a,b}"),), mask(child, "{a}")): 0.2,
            },
        )
        with pytest.raises(InfeasibleModelError, match="negative commonality"):
            mass_to_commonality(m)

    def test_root_table_is_identity(self):
        f = bframe()
        m = mass_table(
            f, (), {((), mask(f, "{a}")): 0.4, ((), mask(f, "{b}")): 0.4, ((), mask(f, "{a,b}")): 0.2}
        )
        k = mass_to_commonality(m)
        assert np.array_equal(k.values, m.values)


class TestCommonalityToMass:
    def test_golden_inversion(self, loose_cond):
        k = mass_to_commonality(loose_cond)
        m = commonality_to_mass(k)
        cfg = (mask(loose_cond.parent_frames[0], "{a}"),)
        # 0.516667 - 0.35
        got = table_cell(m, cfg, mask(loose_cond.child_frame, "{a}"))
        assert got == pytest.approx(1 / 6, abs=1e-9)

    def test_roundtrip_identity(self, loose_cond, tight_cond):
        for t in (loose_cond, tight_cond):
            back = commonality_to_mass(mass_to_commonality(t))
            assert np.abs(back.values - t.values).max() <= 1e-12


def _random_table(rng, n_parents, sizes):
    letters = ("a", "b", "c")
    child = Frame("C", letters[: sizes[0]])
    parents = tuple(
        Frame(f"P{i}", letters[: sz]) for i, sz in enumerate(sizes[1 : n_parents + 1])
    )
    rows = int(np.prod([2 ** len(p) - 1 for p in parents])) if parents else 1
    vals = rng.uniform(-1.0, 1.0, size=(rows, 2 ** len(child) - 1))
    return CondTable(child, parents, vals, "m")


@given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 3)))
@settings(max_examples=60, deadline=None)
def test_roundtrip_on_random_tables(seed, n_parents, sizes):
    t = _random_table(np.random.default_rng(seed), n_parents, sizes)
    vals = _apply_roundtrip(t)
    assert np.abs(vals - t.values).max() <= 1e-12


def _apply_roundtrip(t):
    # commonality may be negative for arbitrary tables, so invert the raw
    # superset sums rather than going through the checked constructors
    dense = superset_sums(bit_ordered(t), range(len(t.parent_frames)))
    superset_sums(dense, range(len(t.parent_frames)), inverse=True)
    frames = t.parent_frames + (t.child_frame,)
    bits = [[s.bits for s in subsets(f)] for f in frames]
    return dense[np.ix_(*bits)].reshape(t.values.shape)


@given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 3), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_superset_sums_match_definition(seed, widths):
    """Zeta: out[A] = sum of a[B] over B containing A on every transformed axis;
    the last axis is left alone.  The inverse undoes it."""
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, [1 << w for w in widths] + [3])
    axes = range(len(widths))
    out = superset_sums(a.copy(), axes)
    for idx in np.ndindex(*a.shape[:-1]):
        want = sum(
            a[sup]
            for sup in np.ndindex(*a.shape[:-1])
            if all(i & j == i for i, j in zip(idx, sup))
        )
        assert np.allclose(out[idx], want, atol=1e-12, rtol=0.0)
    assert np.allclose(superset_sums(out, axes, inverse=True), a, atol=1e-12, rtol=0.0)


def test_convention_tables_give_unit_commonality_rows():
    rng = np.random.default_rng(5)
    child, parent = bframe("C"), bframe("P")
    for _ in range(25):
        vals = rng.uniform(-1.0, 1.0, size=(3, 3))
        vals[2] = rng.dirichlet(np.ones(3))  # full-set row sums to 1
        vals[0] -= vals[0].sum() / 3.0  # other rows sum to 0
        vals[1] -= vals[1].sum() / 3.0
        t = CondTable(child, (parent,), vals, "m")
        k_vals = t.values.copy()
        k_vals[0] += k_vals[2]
        k_vals[1] += k_vals[2]
        assert np.allclose(k_vals.sum(axis=1), 1.0, atol=1e-9)


class TestValidateTable:
    def test_commonality_ok(self, loose_cond):
        assert validate_table(mass_to_commonality(loose_cond)).ok

    def test_mass_convention_satisfied(self, tight_cond):
        report = validate_table(tight_cond)
        assert report.ok and not report.warnings

    def test_six_digit_inputs_stay_warning_free(self):
        rows = dict(TIGHT_ROWS)
        rows[("{a}", "{a}")] = 0.293333
        rows[("{b}", "{a}")] = -0.126667
        rows[("{a,b}", "{a}")] = -0.166667
        report = validate_table(cond_table(bframe("C"), bframe("P"), rows))
        assert not report.warnings

    def test_commonality_row_sum_violation(self):
        child, parent = bframe("C"), bframe("P")
        vals = np.full((3, 3), 0.3)
        k = CondTable(child, (parent,), vals, "k")
        report = validate_table(k)
        assert any("sums to 0.9" in e for e in report.errors)

    def test_commonality_negativity_violation(self):
        child, parent = bframe("C"), bframe("P")
        vals = np.array([[1.1, -0.1, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        report = validate_table(CondTable(child, (parent,), vals, "k"))
        assert any("negative" in e for e in report.errors)

    def test_commonality_report_text(self):
        # row sums first, then negative cells, each in row order
        child, parent = bframe("C"), bframe("P")
        vals = np.array([[1.1, -0.1, 0.0], [0.5, 0.0, 0.0], [0.7, 0.5, -0.2]])
        report = validate_table(CondTable(child, (parent,), vals, "k"))
        assert report.errors == [
            "C: row {b} sums to 0.500000000, expected 1",
            "C: negative value -0.1 at ({a} ; {b})",
            "C: negative value -0.2 at ({a,b} ; {a,b})",
        ]
        assert not report.warnings

    def test_faulty_row_names_its_two_parent_configuration(self):
        child, p, q = bframe("C"), Frame("P", ("a", "b", "c")), bframe("Q")
        vals = np.tile([1.0, 0.0, 0.0], (21, 1))
        vals[13] = [0.5, 0.0, 0.0]  # P = {a,c} (index 4 of 7), Q = {b} (index 1 of 3)
        report = validate_table(CondTable(child, (p, q), vals, "k"))
        assert report.errors == ["C: row {a,c} {b} sums to 0.500000000, expected 1"]

    def test_faulty_row_configuration_parses_back_to_its_row(self):
        child, p, q = bframe("C"), Frame("P", ("a", "b", "c")), bframe("Q")
        vals = np.tile([1.0, 0.0, 0.0], (21, 1))
        vals[13] = [0.5, 0.0, 0.0]
        (error,) = validate_table(CondTable(child, (p, q), vals, "k")).errors
        cfg = re.fullmatch(r"C: row (.*) sums to 0\.500000000, expected 1", error).group(1)
        text = (
            "var P : a b c\nvar Q : a b\nvar C : a b\nedge P -> C\nedge Q -> C\n"
            "table P | kind=k\n  {a,b,c} : 1\nend\ntable Q | kind=k\n  {a,b} : 1\nend\n"
            f"table C | P Q kind=k\n  {{a}} | {cfg} : 0.5\nend\n"
        )
        table = parse_network(text).node("C").table
        assert np.array_equal(np.argwhere(table.values), [[13, 0]])

    def test_mass_convention_report_text(self):
        rows = dict(LOOSE_ROWS)
        rows[("{a}", "{a}")] = 0.9
        rows[("{a,b}", "{a,b}")] = 0.2
        report = validate_table(cond_table(bframe("C"), bframe("P"), rows))
        assert report.warnings == [
            "C: mass row {a} sums to 0.733333333, convention expects 0",
            "C: mass row {a,b} sums to 0.900000000, convention expects 1",
        ]

    def test_mass_convention_violation_is_warning(self):
        rows = dict(LOOSE_ROWS)
        rows[("{a}", "{a}")] = 0.9
        report = validate_table(cond_table(bframe("C"), bframe("P"), rows))
        # the convention is advisory; the commonality form it breaks is not
        assert report.warnings == ["C: mass row {a} sums to 0.733333333, convention expects 0"]
        assert report.errors == ["C: row {a} sums to 1.733333333, expected 1"]


def test_tables_are_immutable(loose_cond):
    with pytest.raises(ValueError):
        loose_cond.values[0, 0] = 1.0


def test_table_kind_is_m_or_k_and_each_transform_takes_the_other():
    k = mass_to_commonality(cond_table(bframe("C"), bframe("P"), LOOSE_ROWS))
    assert k.kind == "k" and commonality_to_mass(k).kind == "m"
    with pytest.raises(ValueError, match="node C: the table is already kind=k"):
        mass_to_commonality(k)
    with pytest.raises(ValueError, match="node C: the table is already kind=m"):
        commonality_to_mass(commonality_to_mass(k))
    with pytest.raises(ValueError, match="table kind must be 'm' or 'k', got 'x'"):
        CondTable(k.child_frame, k.parent_frames, k.values, "x")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Frame("X", ()), "frame 'X' needs at least one value"),
        (lambda: Frame("X", ("a", "a")), "frame 'X' has duplicate value labels"),
        (
            lambda: CondTable(bframe("X"), (), np.zeros((2, 3)), "m"),
            "table shape (2, 3) != expected (1, 3)",
        ),
        (
            lambda: CondTable(bframe("X"), (), np.full((1, 3), np.nan), "m"),
            "table contains non-finite values",
        ),
        (
            lambda: superset_sums(np.zeros((2, 4)).T, [0]),
            "superset sums work in place on a C-contiguous array",
        ),
    ],
    ids=["empty-frame", "duplicate-label", "table-shape", "table-nan", "not-c-contiguous"],
)
def test_input_refusals(build, message):
    with pytest.raises(ValueError) as got:
        build()
    assert str(got.value) == message


def test_cells_formatted_as_by_python():
    rng = np.random.default_rng(9)
    edges = [0.0, -0.0, 1.0, 0.5, 1e-10, 5e-10, 4.9999999999e-10, 0.9999999995,
             0.9999999994999999, 9.9999999995, 9.99999999949, 10.0, 123.456, -1e-12,
             -0.25, 1 / 3, 2 / 3, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)]
    cells = np.concatenate([
        rng.random(100_000),
        rng.random(20_000) * 12 - 1,
        np.arange(1025) / 1024,  # dyadic, with exact ties such as 1/1024
        rng.integers(0, 2**20, 20_000) / 2**20,
        (np.arange(100_000) + 0.5) / 1e9,  # near ties once scaled
        edges,
    ])
    stream = io.StringIO()
    rows = np.arange(len(cells))
    write_cells(stream, ["i", "x"], [rows, ["x"]], cells[:, None], rows)
    got = [line.rsplit(",", 1)[1].encode() for line in stream.getvalue().splitlines()[1:]]
    assert got == [f"{x:.9f}".encode() for x in cells.tolist()]


def test_cells_written_on_awkward_text(monkeypatch):
    # two rows a block, rows read again within and across blocks
    monkeypatch.setattr(tables, "_WRITE_CELLS", 7)
    header = ["P", "Q", "C", "p"]
    axes = [["50%", 'say "hi"'], ["a,b", "é", "%s%%"], ["ß,%d", '"', "x"]]
    values = np.array([
        [-0.0, np.nan, np.inf],
        [-np.inf, 1e20, 1 / 1024],  # 0.0009765625: a tie at nine decimals
        [3 / 1024, 5e-10, 2.5],
    ])
    rows = np.array([2, 0, 2, 1, 1, 0])
    stream = io.StringIO()
    write_cells(stream, header, axes, values, rows)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(header)
    for i, cfg in enumerate(itertools.product(*axes[:-1])):
        for c, item in enumerate(axes[-1]):
            writer.writerow([*cfg, item, f"{values[rows[i], c]:.9f}"])
    assert stream.getvalue() == want.getvalue()
