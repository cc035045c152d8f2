"""Extended value and vector domains: enumeration, components, text forms."""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from belnet import (
    ExtValue,
    ExtVector,
    Frame,
    SizeGuardError,
    component,
    ext_values,
    ext_vectors,
    subsets_of,
)
from belnet.extvals import MAX_SUCCESSORS, ext_table, vector_table

from conftest import bframe, by_text, mask


class TestExtValues:
    def test_binary_enumeration_order(self):
        got = [str(v) for v in ext_values(bframe())]
        assert got == [
            "{a}", "{b}", "{a,b}",
            "{a}o{a,b}", "{b}o{a,b}", "{a}@{a,b}", "{b}@{a,b}",
        ]

    def test_single_value_frame(self):
        f = Frame("Z", ("a",))
        assert [str(v) for v in ext_values(f)] == ["{a}"]

    def test_ternary_count_by_independent_closure(self):
        f = Frame("Y", ("a", "b", "c"))
        assert len(ext_values(f)) == len(_closure_bruteforce(f)) == 55

    def test_quaternary_count_by_independent_closure(self):
        f = Frame("Q", ("a", "b", "c", "d"))
        vs = ext_values(f)
        assert len(vs) == len(set(vs)) == len(_closure_bruteforce(f))

    def test_frame_guard(self):
        with pytest.raises(SizeGuardError, match="at most 4"):
            ext_values(Frame("W", ("a", "b", "c", "d", "e")))


def _closure_bruteforce(frame):
    """Fixpoint closure over (own, op, sup) triples, independent of the order
    the library builds them in."""
    seen = {(s.bits, None, None) for s in subsets_of(frame)}
    by_key = {k: ExtValue(SubsetMaskOf(frame, k[0])) for k in seen}
    changed = True
    while changed:
        changed = False
        for key, v in list(by_key.items()):
            for s in subsets_of(frame):
                if s.bits != v.own.bits and s.bits & v.own.bits == s.bits:
                    for op in ("o", "@"):
                        k2 = (s.bits, op, key)
                        if k2 not in by_key:
                            by_key[k2] = ExtValue(s, op, v)
                            changed = True
    return set(by_key.values())


class TestExtTable:
    """Each extended value's CPT row is its derivation."""

    @pytest.mark.parametrize("k, rows", [(1, 1), (2, 5), (3, 25), (4, 149)])
    def test_row_counts(self, k, rows):
        table = ext_table(_frame(k))
        assert len(table.first) == table.row.max() + 1 == rows

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_row_layout(self, k):
        values, table = ext_values(_frame(k)), ext_table(_frame(k))
        assert (np.diff(table.first) > 0).all()
        for i, v in enumerate(values):
            assert table.first[table.row[i]] <= i
            if v.is_plain:
                assert table.row[i] == i
            elif v.op == "o":
                assert table.row[i] == table.row[table.sup[i]]
            else:
                assert table.row[table.sup[i]] < table.row[i]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_rows_are_distinct_coefficient_rows(self, k):
        # a value's slice as integer coefficients over the plain slices:
        # o copies its superset's, @ is 2 * own - superset's
        values = ext_values(_frame(k))
        plain = [v for v in values if v.is_plain]
        coef = {}
        for v in values:
            unit = np.eye(len(plain), dtype=np.int64)[plain.index(ExtValue(v.own))]
            if v.is_plain:
                coef[v] = unit
            elif v.op == "o":
                coef[v] = coef[v.sup]
            else:
                coef[v] = 2 * unit - coef[v.sup]
        rows = ext_table(_frame(k)).row
        by_row = {}
        for v, r in zip(values, rows):
            by_row.setdefault(int(r), set()).add(coef[v].tobytes())
        assert all(len(c) == 1 for c in by_row.values())
        assert len(set.union(*by_row.values())) == len(by_row)


def SubsetMaskOf(frame, bits):
    from belnet import SubsetMask

    return SubsetMask(frame, bits)


class TestExtVectors:
    def test_n1_order(self):
        got = [str(x) for x in ext_vectors(bframe(), 1)]
        assert got == ["[{a}]", "[{b}]", "[{a,b}]", "[{a}@{a,b}]", "[{b}@{a,b}]"]

    @pytest.mark.parametrize("n,count", [(1, 5), (2, 9), (4, 33)])
    def test_binary_counts(self, n, count):
        assert len(ext_vectors(bframe(), n)) == count

    def test_binary_counts_closed_form(self):
        # plains + one family per proper subset of the full set
        for n in range(1, 7):
            assert len(ext_vectors(bframe(), n)) == 3 + 2 * (2**n - 1)

    def test_ternary_n1_count_from_split_pairs(self):
        f = Frame("Y", ("a", "b", "c"))
        pairs = sum(
            1
            for v in ext_values(f)
            for s in subsets_of(f)
            if s.bits != v.own.bits and s.bits & v.own.bits == s.bits
        )
        assert len(ext_vectors(f, 1)) == 7 + pairs

    def test_successor_guard(self):
        with pytest.raises(SizeGuardError):
            ext_vectors(bframe(), 7)


class TestComponent:
    def test_plain_vectors_are_constant(self):
        f = bframe()
        x = ExtVector(mask(f, "{a,b}"), 4)
        assert str(component(x, 3)) == "{a,b}"

    def test_family_single_edge(self):
        f = bframe()
        sup = ExtValue(mask(f, "{a,b}"))
        x = ExtVector(mask(f, "{a}"), 1, sup, 0b1)
        assert str(component(x, 1)) == "{a}@{a,b}"

    def test_family_mixed_pattern(self):
        f = bframe()
        sup = ExtValue(mask(f, "{a,b}"))
        x = ExtVector(mask(f, "{a}"), 2, sup, 0b10)  # edge 1 'o', edge 2 '@'
        assert str(component(x, 1)) == "{a}o{a,b}"
        assert str(component(x, 2)) == "{a}@{a,b}"

    def test_edge_index_bounds(self):
        x = ExtVector(mask(bframe(), "{a,b}"), 2)
        with pytest.raises(ValueError):
            component(x, 3)

    @pytest.mark.parametrize("frame,n", [(bframe(), 1), (bframe(), 3), (Frame("Y", ("a", "b", "c")), 1)])
    def test_components_share_own_and_sup(self, frame, n):
        for x in ext_vectors(frame, n):
            for h in range(1, n + 1):
                c = component(x, h)
                assert c.own == x.own
                if x.is_plain:
                    assert c.sup is None
                else:
                    assert c.sup == x.sup

    def test_every_family_has_an_at_component(self):
        for x in ext_vectors(bframe(), 3):
            if not x.is_plain:
                assert any(component(x, h).op == "@" for h in range(1, 4))


class TestVectorTable:
    """The array table of a node's vectors agrees with the value objects."""

    @pytest.mark.parametrize(
        "k, n", [(k, n) for k in (1, 2, 3, 4) for n in (1, 2, 3)] + [(2, MAX_SUCCESSORS)]
    )
    def test_rows_and_superset_values_of_the_objects(self, k, n):
        frame = _frame(k)
        values, rows = ext_values(frame), ext_table(frame).row
        position = {v: i for i, v in enumerate(values)}  # values.index, by hash
        vectors, table = ext_vectors(frame, n), vector_table(frame, n)
        assert table.row.shape == (n, len(vectors))
        for i, x in enumerate(vectors):
            assert table.sup[i] == (-1 if x.is_plain else position[x.sup])
            for h in range(1, n + 1):
                assert table.row[h - 1, i] == rows[position[component(x, h)]]

    @pytest.mark.parametrize("k, n", [(2, 3), (3, 2), (4, 1)])
    def test_vector_order(self, k, n):
        # plain vectors, then per superset value and proper subset, one family
        frame = _frame(k)
        want = [ExtVector(s, n) for s in subsets_of(frame)]
        for sup in ext_values(frame):
            for s in _proper_subsets(frame, sup.own):
                want += [ExtVector(s, n, sup, pattern) for pattern in range(1, 1 << n)]
        assert list(ext_vectors(frame, n)) == want

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_value_order(self, k):
        # plain values, then level by level, o compounds before @ compounds
        frame = _frame(k)
        level = [ExtValue(s) for s in subsets_of(frame)]
        want = list(level)
        while level:
            level = [
                ExtValue(s, op, v)
                for op in "o@"
                for v in level
                for s in _proper_subsets(frame, v.own)
            ]
            want += level
        assert list(ext_values(frame)) == want


def _proper_subsets(frame, own):
    return [s for s in subsets_of(frame) if s.bits != own.bits and s.bits & own.bits == s.bits]


def _frame(k: int) -> Frame:
    return Frame("Y", tuple("abcd"[:k]))


class TestTextForms:
    """The cpt dump names each value of a domain by its printed form alone."""

    def test_value_roundtrip_binary_and_ternary(self):
        for frame in (bframe(), _frame(3)):
            values = ext_values(frame)
            for v in values:
                assert by_text(values, str(v)) == v

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_values_print_distinctly(self, k):
        values = ext_values(_frame(k))
        assert len({str(v) for v in values}) == len(values)

    @pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1)])
    def test_vectors_print_distinctly(self, k, n):
        vectors = ext_vectors(_frame(k), n)
        assert len({str(x) for x in vectors}) == len(vectors)

    def test_nested_is_right_associative(self):
        f = _frame(3)
        v = ExtValue(mask(f, "{a,b,c}"))
        v = ExtValue(mask(f, "{a}"), "@", ExtValue(mask(f, "{a,b}"), "o", v))
        assert v.op == "@" and v.sup.op == "o"
        assert str(v) == "{a}@{a,b}o{a,b,c}"


@given(st.integers(0, 54))
@settings(max_examples=55, deadline=None)
def test_ternary_roundtrip_property(i):
    values = ext_values(_frame(3))
    assert by_text(values, str(values[i])) == values[i]


def test_compound_requires_proper_subset():
    f = bframe()
    full = ExtValue(mask(f, "{a,b}"))
    with pytest.raises(ValueError):
        ExtValue(mask(f, "{a,b}"), "o", full)
    sing = ExtValue(mask(f, "{a}"))
    with pytest.raises(ValueError):
        ExtValue(mask(f, "{b}"), "@", sing)


def test_family_pattern_excludes_all_dot():
    f = bframe()
    sup = ExtValue(mask(f, "{a,b}"))
    with pytest.raises(ValueError):
        ExtVector(mask(f, "{a}"), 2, sup, 0)


class TestHashes:
    """Values hash by their fields, so an unpickled value equals, and hashes
    like, the same value built in the loading process."""

    VALUES = (
        "frame = Frame('X', ('a', 'b', 'c'))\n"
        "values = [frame, subsets_of(frame)[-1], *ext_values(frame)[::9],"
        " *ext_vectors(frame, 2)[::40]]\n"
    )

    def test_pickle_round_trip_keeps_hash_and_equality(self):
        frame = Frame("X", ("a", "b", "c"))
        values = [frame, *subsets_of(frame), *ext_values(frame), *ext_vectors(frame, 2)[::7]]
        for value in values:
            back = pickle.loads(pickle.dumps(value))
            assert back == value and hash(back) == hash(value)
            assert {value: 1}[back] == 1

    def test_pickled_in_another_process(self, tmp_path):
        # string hashes differ between processes with different hash seeds
        dump = tmp_path / "values.pickle"
        script = (
            "import pickle, sys\n"
            "from belnet import Frame, ext_values, ext_vectors, subsets_of\n" + self.VALUES +
            "pickle.dump((values, [hash(v) for v in values]), open(sys.argv[1], 'wb'))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", script, str(dump)], env=env, check=True)
        with open(dump, "rb") as fh:
            theirs, their_hashes = pickle.load(fh)
        namespace = {"Frame": Frame, "subsets_of": subsets_of, "ext_values": ext_values,
                     "ext_vectors": ext_vectors}
        exec(self.VALUES, namespace)
        ours = namespace["values"]
        assert theirs == ours
        assert [hash(v) for v in theirs] == [hash(v) for v in ours]
        assert {v: i for i, v in enumerate(ours)} == {v: i for i, v in enumerate(theirs)}
