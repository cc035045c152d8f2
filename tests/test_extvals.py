"""Extended value and vector domains: the integer tables and their literals,
against the reference built from the paper's definition."""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from belnet import Frame, SizeGuardError
from belnet.extvals import (
    MAX_SUCCESSORS,
    ext_table,
    value_literals,
    vector_literals,
    vector_table,
)

from conftest import (
    Value, Vector, bframe, by_text, component, mask, proper_subsets, ref_values, ref_vectors,
    subsets,
)


class TestExtValues:
    def test_binary_enumeration_order(self):
        assert value_literals(bframe()) == (
            "{a}", "{b}", "{a,b}",
            "{a}o{a,b}", "{b}o{a,b}", "{a}@{a,b}", "{b}@{a,b}",
        )

    def test_single_value_frame(self):
        f = Frame("Z", ("a",))
        assert value_literals(f) == ("{a}",)

    def test_ternary_count_by_independent_closure(self):
        f = Frame("Y", ("a", "b", "c"))
        assert len(value_literals(f)) == len(_closure_bruteforce(f)) == 55

    def test_quaternary_count_by_independent_closure(self):
        f = Frame("Q", ("a", "b", "c", "d"))
        texts = value_literals(f)
        assert len(texts) == len(set(texts))
        assert set(texts) == {str(v) for v in _closure_bruteforce(f)}

    def test_frame_guard(self):
        frame = Frame("W", ("a", "b", "c", "d", "e"))
        for literals in (value_literals, lambda f: vector_literals(f, 1)):
            with pytest.raises(SizeGuardError, match="at most 4"):
                literals(frame)


def _closure_bruteforce(frame):
    """Fixpoint closure of the plain values under splitting, independent of
    the order the reference or the library lists them in."""
    values = {Value(s) for s in subsets(frame)}
    changed = True
    while changed:
        changed = False
        for v in list(values):
            for s in proper_subsets(frame, v.own):
                for op in ("o", "@"):
                    if Value(s, op, v) not in values:
                        values.add(Value(s, op, v))
                        changed = True
    return values


class TestExtTable:
    """Each extended value's CPT row is its derivation."""

    @pytest.mark.parametrize("k, rows", [(1, 1), (2, 5), (3, 25), (4, 149)])
    def test_row_counts(self, k, rows):
        table = ext_table(_frame(k))
        assert len(table.first) == table.row.max() + 1 == rows

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_row_layout(self, k):
        values, table = ref_values(_frame(k)), ext_table(_frame(k))
        assert (np.diff(table.first) > 0).all()
        for i, v in enumerate(values):
            assert table.first[table.row[i]] <= i
            if v.is_plain:
                assert table.row[i] == i
            elif v.op == "o":
                assert table.row[i] == table.row[table.sup[i]]
            else:
                assert table.row[table.sup[i]] < table.row[i]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_columns_of_the_reference(self, k):
        frame = _frame(k)
        plain, values, table = subsets(frame), ref_values(frame), ext_table(frame)
        position = {v: i for i, v in enumerate(values)}
        assert len(table.own) == len(values)
        for i, v in enumerate(values):
            assert plain[table.own[i]] == v.own
            assert table.sup[i] == (-1 if v.is_plain else position[v.sup])
            assert table.at[i] == (v.op == "@")

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_rows_are_distinct_coefficient_rows(self, k):
        # a value's slice as integer coefficients over the plain slices:
        # o copies its superset's, @ is 2 * own - superset's
        values = ref_values(_frame(k))
        plain = [v for v in values if v.is_plain]
        coef = {}
        for v in values:
            unit = np.eye(len(plain), dtype=np.int64)[plain.index(Value(v.own))]
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


class TestExtVectors:
    def test_n1_order(self):
        assert vector_literals(bframe(), 1) == (
            "[{a}]", "[{b}]", "[{a,b}]", "[{a}@{a,b}]", "[{b}@{a,b}]",
        )

    @pytest.mark.parametrize("n,count", [(1, 5), (2, 9), (4, 33)])
    def test_binary_counts(self, n, count):
        assert len(vector_literals(bframe(), n)) == count

    def test_binary_counts_closed_form(self):
        # plains + one family per proper subset of the full set
        for n in range(1, 7):
            assert len(vector_literals(bframe(), n)) == 3 + 2 * (2**n - 1)

    def test_ternary_n1_count_from_split_pairs(self):
        f = Frame("Y", ("a", "b", "c"))
        pairs = sum(len(proper_subsets(f, v.own)) for v in ref_values(f))
        assert len(vector_literals(f, 1)) == 7 + pairs

    def test_successor_guard(self):
        with pytest.raises(SizeGuardError):
            vector_literals(bframe(), 7)


def _parts(literal: str) -> list[str]:
    """The per-edge texts of a vector literal ``[c1;...;cn]``."""
    return literal[1:-1].split(";")


class TestComponent:
    """Each edge's text of a vector literal is the value the vector feeds that edge."""

    def test_plain_vectors_are_constant(self):
        f = bframe()
        assert vector_literals(f, 4)[2] == "[{a,b};{a,b};{a,b};{a,b}]"
        assert str(component(Vector(mask(f, "{a,b}"), 4), 3)) == "{a,b}"

    def test_family_single_edge(self):
        f = bframe()
        x = Vector(mask(f, "{a}"), 1, Value(mask(f, "{a,b}")), 0b1)
        assert str(component(x, 1)) == "{a}@{a,b}"
        assert vector_literals(f, 1)[ref_vectors(f, 1).index(x)] == "[{a}@{a,b}]"

    def test_family_mixed_pattern(self):
        f = bframe()
        x = Vector(mask(f, "{a}"), 2, Value(mask(f, "{a,b}")), 0b10)  # edge 1 'o', edge 2 '@'
        assert str(component(x, 1)) == "{a}o{a,b}"
        assert str(component(x, 2)) == "{a}@{a,b}"
        i = ref_vectors(f, 2).index(x)
        assert vector_table(f, 2).pattern[i] == 0b10
        assert vector_literals(f, 2)[i] == "[{a}o{a,b};{a}@{a,b}]"

    @pytest.mark.parametrize("frame,n", [(bframe(), 1), (bframe(), 3), (Frame("Y", ("a", "b", "c")), 1)])
    def test_components_share_own_and_sup(self, frame, n):
        plain, values, table = subsets(frame), value_literals(frame), vector_table(frame, n)
        for i, text in enumerate(vector_literals(frame, n)):
            own, sup = str(plain[table.own[i]]), table.sup[i]
            for h, part in enumerate(_parts(text)):
                if sup < 0:
                    assert part == own
                else:
                    op = "@" if table.pattern[i] >> h & 1 else "o"
                    assert part == own + op + values[sup]

    def test_every_family_has_an_at_component(self):
        f = bframe()
        for x, text in zip(ref_vectors(f, 3), vector_literals(f, 3)):
            if not x.is_plain:
                assert any(component(x, h).op == "@" for h in range(1, 4))
                assert any(part[len(str(x.own))] == "@" for part in _parts(text))


class TestVectorTable:
    """The array table of a node's vectors agrees with the reference."""

    @pytest.mark.parametrize(
        "k, n", [(k, n) for k in (1, 2, 3, 4) for n in (1, 2, 3)] + [(2, MAX_SUCCESSORS)]
    )
    def test_rows_and_superset_values_of_the_objects(self, k, n):
        frame = _frame(k)
        plain, values, rows = subsets(frame), ref_values(frame), ext_table(frame).row
        position = {v: i for i, v in enumerate(values)}  # values.index, by hash
        vectors, table = ref_vectors(frame, n), vector_table(frame, n)
        assert table.row.shape == (n, len(vectors))
        for i, x in enumerate(vectors):
            assert plain[table.own[i]] == x.own and table.pattern[i] == x.pattern
            assert table.sup[i] == (-1 if x.is_plain else position[x.sup])
            for h in range(1, n + 1):
                assert table.row[h - 1, i] == rows[position[component(x, h)]]

    @pytest.mark.parametrize("k, n", [(2, 3), (3, 2), (4, 1)])
    def test_vector_order(self, k, n):
        # plain vectors, then per superset value and proper subset, one family
        frame = _frame(k)
        assert vector_literals(frame, n) == tuple(map(str, ref_vectors(frame, n)))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_value_order(self, k):
        # plain values, then level by level, o compounds before @ compounds
        frame = _frame(k)
        assert value_literals(frame) == tuple(map(str, ref_values(frame)))


class TestSharedLayouts:
    """The integer layouts depend on a frame's size alone, so are built once per size."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_frames_of_one_size_share_both_tables(self, k):
        one, other = Frame("P", tuple("abcd"[:k])), Frame("Q", tuple("wxyz"[:k]))
        assert ext_table(one) is ext_table(other)
        for n in (1, 3):
            assert vector_table(one, n) is vector_table(other, n)

    def test_five_values_refused_naming_the_frame(self):
        frame = Frame("Wide", tuple("abcde"))
        for build in (ext_table, lambda f: vector_table(f, 1)):
            with pytest.raises(SizeGuardError, match="frame 'Wide' has 5 values; .* at most 4"):
                build(frame)


def _frame(k: int) -> Frame:
    return Frame("Y", tuple("abcd"[:k]))


class TestTextForms:
    """The cpt dump names each value of a domain by its printed form alone."""

    def test_value_roundtrip_binary_and_ternary(self):
        for frame in (bframe(), _frame(3)):
            values = ref_values(frame)
            for v, text in zip(values, value_literals(frame)):
                assert by_text(values, text) == v

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_values_print_distinctly(self, k):
        texts = value_literals(_frame(k))
        assert len(set(texts)) == len(texts) == len(ext_table(_frame(k)).own)

    @pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1)])
    def test_vectors_print_distinctly(self, k, n):
        texts = vector_literals(_frame(k), n)
        assert len(set(texts)) == len(texts) == len(vector_table(_frame(k), n).own)

    def test_quaternary_vectors_at_six_successors_print_distinctly(self):
        texts = vector_literals(_frame(4), 6)
        assert len(set(texts)) == len(texts) == 16_773

    def test_nested_is_right_associative(self):
        f = _frame(3)
        v = Value(mask(f, "{a}"), "@", Value(mask(f, "{a,b}"), "o", Value(mask(f, "{a,b,c}"))))
        assert str(v) == "{a}@{a,b}o{a,b,c}"
        table, i = ext_table(f), value_literals(f).index("{a}@{a,b}o{a,b,c}")
        assert table.at[i] and not table.at[table.sup[i]]
        assert value_literals(f)[table.sup[i]] == "{a,b}o{a,b,c}"


@given(st.integers(0, 54))
@settings(max_examples=55, deadline=None)
def test_ternary_roundtrip_property(i):
    values = ref_values(_frame(3))
    assert by_text(values, value_literals(_frame(3))[i]) == values[i]


class TestHashes:
    """Frames hash by their fields, so an unpickled one equals, and hashes
    like, the same one built in the loading process."""

    VALUES = "frame = Frame('X', ('a', 'b', 'c'))\nvalues = [frame]\n"

    def test_pickle_round_trip_keeps_hash_and_equality(self):
        frame = Frame("X", ("a", "b", "c"))
        for value in (frame,):
            back = pickle.loads(pickle.dumps(value))
            assert back == value and hash(back) == hash(value)
            assert {value: 1}[back] == 1

    def test_pickled_in_another_process(self, tmp_path):
        # string hashes differ between processes with different hash seeds
        dump = tmp_path / "values.pickle"
        script = (
            "import pickle, sys\n"
            "from belnet import Frame\n" + self.VALUES +
            "pickle.dump((values, [hash(v) for v in values]), open(sys.argv[1], 'wb'))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", script, str(dump)], env=env, check=True)
        with open(dump, "rb") as fh:
            theirs, their_hashes = pickle.load(fh)
        namespace = {"Frame": Frame}
        exec(self.VALUES, namespace)
        ours = namespace["values"]
        assert theirs == ours
        assert [hash(v) for v in theirs] == [hash(v) for v in ours]
        assert {v: i for i, v in enumerate(ours)} == {v: i for i, v in enumerate(theirs)}
