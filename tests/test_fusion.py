"""The exact joint mass oracle, checked against a pairwise-intersection reference."""

import csv
import io
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import belnet.fusion as fusion_mod
from belnet import (
    Frame,
    SizeGuardError,
    network_joint,
    parse_network,
    subsets_of,
    write_joint_csv,
)
from belnet.tables import csv_cells

from conftest import FIXTURES, LOOSE_ROWS, ROOT_ROWS, joint_cell, load, table_cell

TOL = 1e-12


def _mass_rows(table):
    """(parent configuration, child, mass) of every cell.  A commonality table
    is inverted by brute force: signed sums over every coarser configuration."""
    if table.kind == "m":
        return list(table.items())
    rows = []
    for cfg, child, _ in table.items():
        v = 0.0
        for sup in table.configs():
            if all(a.issubset(b) for a, b in zip(cfg, sup)):
                sign = (-1) ** sum(b.size - a.size for a, b in zip(cfg, sup))
                v += sign * table_cell(table, sup, child)
        rows.append((cfg, child, v))
    return rows


def pairwise_joint(net):
    """Reference combination: each table extended to the full scope with full
    sets elsewhere, folded in pair by pair with coordinatewise intersection."""
    names = list(net.variables)
    full = tuple(net.frame(n).full_bits for n in names)
    entries, empty = {full: 1.0}, 0.0
    for name in names:
        table = net.node(name).table
        pos = [names.index(f.name) for f in table.parent_frames + (table.child_frame,)]
        ext = {}
        for cfg, child, v in _mass_rows(table):
            key = list(full)
            for p, m in zip(pos, cfg + (child,)):
                key[p] = m.bits
            ext[tuple(key)] = ext.get(tuple(key), 0.0) + v
        out, empty = {}, empty * sum(ext.values())
        for a, va in entries.items():
            for b, vb in ext.items():
                inter = tuple(x & y for x, y in zip(a, b))
                if 0 in inter:
                    empty += va * vb
                else:
                    out[inter] = out.get(inter, 0.0) + va * vb
        entries = out
    return entries, empty


def _assert_matches_reference(net):
    joint, report = network_joint(net)
    want, want_empty = pairwise_joint(net)
    assert set(joint.entries) == set(want)
    assert max(abs(joint.entries[k] - v) for k, v in want.items()) <= TOL
    assert abs(joint.empty_mass - want_empty) <= TOL
    assert report.empty_mass == joint.empty_mass
    return joint


def _two_node_net(root_rows, cond_rows):
    lines = ["var X1 : a b", "var X2 : a b", "edge X1 -> X2", "table X1 | kind=m"]
    lines += [f"  {lit} : {v!r}" for lit, v in root_rows.items()]
    lines += ["end", "table X2 | X1 kind=m"]
    lines += [f"  {child} | {cfg} : {v!r}" for (child, cfg), v in cond_rows.items()]
    lines += ["end"]
    return parse_network("\n".join(lines))


class TestCylindricalExtension:
    """A table's extension to the scope, seen through vacuous co-tables."""

    def test_extension_to_own_scope_is_identity(self):
        # the conditional spans (X1, X2); a vacuous root leaves it as it is
        net = _two_node_net({"{a,b}": 1.0}, LOOSE_ROWS)
        joint, _ = network_joint(net)
        # X1's subsets down the rows, X2's across, as in the table itself
        np.testing.assert_allclose(joint.array, net.node("X2").table.values, rtol=0, atol=1e-15)
        assert joint.empty_mass == 0.0

    def test_total_mass_unchanged(self, loose_cond):
        net = parse_network(
            "\n".join(
                ["var X1 : a b", "var X2 : a b", "var X3 : a b", "edge X1 -> X2"]
                + ["table X1 | kind=m", "  {a,b} : 1.0", "end", "table X2 | X1 kind=m"]
                + [f"  {c} | {cfg} : {v!r}" for (c, cfg), v in LOOSE_ROWS.items()]
                + ["end", "table X3 | kind=m", "  {a,b} : 1.0", "end"]
            )
        )
        joint, _ = network_joint(net)
        total = joint.array.sum() + joint.empty_mass
        assert total == pytest.approx(loose_cond.values.sum(), abs=1e-12)


class TestConjunctiveCombine:
    """The combination of the network's tables, one node at a time."""

    def test_vacuous_is_neutral(self):
        text = (FIXTURES / "chain4_negjoint.dsn").read_text(encoding="utf-8")
        base, _ = network_joint(parse_network(text))
        joint, report = network_joint(
            parse_network(text + "\nvar Z : a b\ntable Z | kind=m\n  {a,b} : 1.0\nend\n")
        )
        assert joint.scope == base.scope + ("Z",)
        # all of Z's mass is on {a,b}, the last of its subsets
        assert joint.array.shape == base.array.shape + (3,)
        np.testing.assert_allclose(joint.array[..., -1], base.array, rtol=0, atol=TOL)
        assert not joint.array[..., :-1].any()
        assert abs(joint.empty_mass - base.empty_mass) <= TOL


class TestNetworkJoint:
    def test_chain4_negative_exhibit(self):
        net = load("chain4_negjoint.dsn")
        joint, report = network_joint(net)
        assert joint_cell(joint, "{a}", "{b}", "{a}", "{a}") == pytest.approx(
            9.40444e-05, rel=1e-4
        )
        assert joint_cell(joint, "{a}", "{b}", "{a}", "{b}") == pytest.approx(
            -2.91556e-05, rel=1e-4
        )
        assert joint_cell(joint, "{a}", "{b}", "{a}", "{a,b}") == pytest.approx(
            -3.82222e-05, rel=1e-4
        )
        assert not report.proper
        assert report.total_nonempty == pytest.approx(1.0, abs=1e-6)

    def test_star5_negative_exhibit(self):
        net = load("star5_negjoint.dsn")
        joint, report = network_joint(net)
        assert joint_cell(joint, "{a}", "{b}", "{b}", "{a,b}", "{a}") == pytest.approx(
            0.0022038, rel=1e-4
        )
        assert joint_cell(joint, "{a}", "{b}", "{b}", "{b}", "{a,b}") == pytest.approx(
            -0.000107315, rel=1e-4
        )
        assert joint_cell(joint, "{a}", "{b}", "{b}", "{a,b}", "{b}") == pytest.approx(
            -0.000107315, rel=1e-4
        )
        assert not report.proper

    @pytest.mark.parametrize("fixture", ["chain3_proper.dsn", "star4_proper.dsn"])
    def test_proper_compositions(self, fixture):
        joint, report = network_joint(load(fixture))
        assert report.proper
        assert joint.array.min() >= -1e-12

    @pytest.mark.parametrize("fixture", ["chain4_negjoint.dsn", "star5_negjoint.dsn"])
    def test_report_lists_negative_entries(self, fixture):
        joint, report = network_joint(load(fixture))
        # every cell below tolerance, in the order of its per-variable subset bits
        want = [(bits, v) for bits, v in sorted(joint.entries.items()) if v < -1e-12]
        got = [
            tuple(subsets_of(f)[i] for f, i in zip(joint.frames, cell))
            for cell in report.negatives.tolist()
        ]
        assert want and [tuple(s.bits for s in g) for g in got] == [bits for bits, _ in want]
        assert report.values.tolist() == [v for _, v in want]
        assert str(report).splitlines()[4:] == [
            f"  ({','.join(map(str, g))}) : {v:.9f}" for g, (_, v) in zip(got, want)
        ]

    def test_empty_mass_measured_not_assumed(self):
        for fixture in ("chain4_negjoint.dsn", "star5_negjoint.dsn"):
            _, report = network_joint(load(fixture))
            assert abs(report.empty_mass) < 1e-12

    def test_commonality_tables_are_converted(self):
        joint, report = network_joint(load("chain3_ternary.dsn"))
        assert report.total_nonempty == pytest.approx(1.0, abs=1e-9)

    def test_scope_guard(self):
        # the scope is bounded by the dense array alone: a 10-node binary chain,
        # 2^20 cells, builds
        names = [f"X{i}" for i in range(10)]
        lines = [f"var {v} : a b" for v in names]
        lines += [f"edge {a} -> {b}" for a, b in zip(names, names[1:])]
        lines += ["table X0 | kind=m"] + [f"  {lit} : {v!r}" for lit, v in ROOT_ROWS.items()]
        for a, b in zip(names, names[1:]):
            lines += ["end", f"table {b} | {a} kind=m"]
            lines += [f"  {child} | {cfg} : {v!r}" for (child, cfg), v in LOOSE_ROWS.items()]
        joint, report = network_joint(parse_network("\n".join(lines + ["end"])))
        assert joint.array.shape == (3,) * 10
        assert report.total_nonempty == pytest.approx(1.0, abs=1e-9)

    def test_focal_guard(self, monkeypatch):
        lines = [f"var X{i} : a b c d" for i in range(6)]
        lines += [f"table X{i} | kind=m\n  {{a,b,c,d}} : 1\nend" for i in range(6)]
        # 16^6 cells, one per product of subsets: refused before any array is built
        with pytest.raises(SizeGuardError, match="16777216 cells"):
            network_joint(parse_network("\n".join(lines)))
        net = load("chain4_negjoint.dsn")  # 4^4 = 256 cells, 81 focal elements
        monkeypatch.setattr(fusion_mod, "MAX_CELLS", 256)
        assert network_joint(net)[0].array.size == 81
        monkeypatch.setattr(fusion_mod, "MAX_CELLS", 255)
        with pytest.raises(SizeGuardError, match="256 cells"):
            network_joint(net)

    def test_hand_expanded_entry(self):
        net = _two_node_net(ROOT_ROWS, LOOSE_ROWS)
        joint, _ = network_joint(net)
        # three contributing pairs: 0.4*(-1/12) + 0.2*(-1/12) + 0.4*0.35
        assert joint_cell(joint, "{a}", "{b}") == pytest.approx(0.09, abs=1e-9)

    def test_root_extends_with_full_sets(self):
        vacuous = {("{a,b}", "{a,b}"): 1.0}
        net = _two_node_net(ROOT_ROWS, vacuous)
        joint, _ = network_joint(net)
        for lit, v in ROOT_ROWS.items():
            assert joint_cell(joint, lit, "{a,b}") == pytest.approx(v, abs=1e-15)
            for child in ("{a}", "{b}"):
                assert joint_cell(joint, lit, child) == 0.0

    def test_declaration_order_does_not_matter(self):
        text = (FIXTURES / "star5_negjoint.dsn").read_text(encoding="utf-8")
        var_lines = [l for l in text.splitlines() if l.startswith("var ")]
        others = [l for l in text.splitlines() if not l.startswith("var ")]
        forward = parse_network(text)
        backward = parse_network("\n".join(var_lines[::-1] + others))
        a, _ = network_joint(forward)
        b, _ = network_joint(backward)
        np.testing.assert_allclose(b.array.T, a.array, rtol=0, atol=TOL)

    @pytest.mark.parametrize("fixture", sorted(p.name for p in Path(FIXTURES).glob("*.dsn")))
    def test_matches_pairwise_reference(self, fixture):
        _assert_matches_reference(load(fixture))


def reference_joint_csv(joint, stream):
    """The joint CSV by an ``itertools.product`` walk over the keyed cells,
    one Python-formatted line each: what ``write_joint_csv`` must write, byte
    for byte."""
    csv.writer(stream, lineterminator="\n").writerow(list(joint.scope) + ["mass"])
    axes = [sorted(subsets_of(f), key=str) for f in joint.frames]
    keys = itertools.product(*([s.bits for s in subs] for subs in axes))
    cells = itertools.product(*map(csv_cells, axes))
    for bits, row in zip(keys, cells):
        v = joint.entries.get(bits)
        if v is not None:
            stream.write(",".join(row) + f",{v:.9f}\n")


def _assert_csv_matches_reference(joint):
    got, want = io.StringIO(), io.StringIO()
    write_joint_csv(joint, got)
    reference_joint_csv(joint, want)
    assert got.getvalue() == want.getvalue()


class TestWriteJointCsv:
    @pytest.mark.parametrize("fixture", sorted(p.name for p in Path(FIXTURES).glob("*.dsn")))
    def test_fixtures_match_reference(self, fixture):
        _assert_csv_matches_reference(network_joint(load(fixture))[0])

    @pytest.mark.parametrize("nodes, seed", [(3, 1), (3, 2), (4, 1)])
    def test_random_quaternary_chains_match_reference(self, nodes, seed):
        rng = np.random.default_rng([nodes, seed])
        lines = _random_net_text(rng, "chain", [4] * nodes, "mkmk", False)
        joint, report = network_joint(parse_network("\n".join(lines)))
        assert not report.proper  # so the signed cells are written too
        _assert_csv_matches_reference(joint)


def _random_net_text(rng, shape, sizes, kinds, convention):
    """The lines of a chain, star or collider over len(sizes) nodes of at most
    four values, with random tables.
    Full-parent rows are distributions; with ``convention`` the other rows sum
    to zero, otherwise mass also lands on empty intersections.  A node whose
    kind is "k" gets its table's commonality form instead, as superset sums
    written out here."""
    names = [f"V{i}" for i in range(len(sizes))]
    edges = {
        "chain": list(zip(names, names[1:])),
        "star": [(names[0], v) for v in names[1:]],
        "collider": [(v, names[-1]) for v in names[:-1]],
    }[shape]
    frames = {v: Frame(v, tuple("abcd"[:k])) for v, k in zip(names, sizes)}
    lines = [f"var {v} : {' '.join(f.values)}" for v, f in frames.items()]
    lines += [f"edge {a} -> {b}" for a, b in edges]
    for v, kind in zip(names, kinds):
        parents = [a for a, b in edges if b == v]
        configs = list(itertools.product(*(subsets_of(frames[p]) for p in parents)))
        children = subsets_of(frames[v])
        mass = {}
        for cfg in configs:
            if all(s.bits == s.frame.full_bits for s in cfg):
                row = rng.dirichlet(np.ones(len(children)))
            else:
                row = rng.uniform(-0.5, 0.5, len(children))
                if convention:
                    row -= row.mean()
            mass.update(((cfg, c), float(x)) for c, x in zip(children, row))
        lines.append(f"table {v} | {' '.join(parents)} kind={kind}")
        for cfg in configs:
            for c in children:
                if kind == "m":
                    value = mass[cfg, c]
                else:
                    value = sum(
                        mass[sup, c]
                        for sup in configs
                        if all(a.issubset(b) for a, b in zip(cfg, sup))
                    )
                cfg_text = " ".join(str(s) for s in cfg)
                lines.append(f"  {c} | {cfg_text} : {value!r}" if cfg else f"  {c} : {value!r}")
        lines.append("end")
    return lines


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["chain", "star", "collider"]),
    st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4),
    st.lists(st.sampled_from("mk"), min_size=4, max_size=4),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_matches_pairwise_reference_on_random_networks(seed, shape, sizes, kinds, convention):
    assume(math.prod((1 << k) - 1 for k in sizes) <= 343)
    lines = _random_net_text(np.random.default_rng(seed), shape, sizes, kinds, convention)
    net = parse_network("\n".join(lines))
    joint = _assert_matches_reference(net)
    # total mass (empty included) is the product of the tables' totals
    totals = [sum(v for _, _, v in _mass_rows(net.node(n).table)) for n in net.variables]
    assert joint.array.sum() + joint.empty_mass == pytest.approx(math.prod(totals), abs=TOL)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["chain", "star", "collider"]),
    st.lists(st.sampled_from([2, 3]), min_size=2, max_size=4),
    st.lists(st.sampled_from("mk"), min_size=4, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_algebraic_properties_on_random_tables(seed, shape, sizes, kinds):
    """Combination is commutative and associative: declaring the variables in
    reverse changes the order the tables are folded in, not the joint."""
    assume(math.prod((1 << k) - 1 for k in sizes) <= 343)
    lines = _random_net_text(np.random.default_rng(seed), shape, sizes, kinds, False)
    var_lines = [l for l in lines if l.startswith("var ")]
    others = [l for l in lines if not l.startswith("var ")]
    forward, _ = network_joint(parse_network("\n".join(lines)))
    backward, _ = network_joint(parse_network("\n".join(var_lines[::-1] + others)))
    assert backward.scope == forward.scope[::-1]
    np.testing.assert_allclose(backward.array.T, forward.array, rtol=0, atol=TOL)
    assert abs(backward.empty_mass - forward.empty_mass) <= TOL
