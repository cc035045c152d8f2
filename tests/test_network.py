"""Network file parsing, structural checks, topological order, edge indexing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belnet import (
    Frame,
    NetworkParseError,
    SubsetParseError,
    edge_index,
    parse_network,
    parse_subset_label,
    subsets_of,
    topological_order,
    validate_structure,
)

from conftest import load, mass_table


class TestParse:
    def test_chain_fixture(self):
        net = load("chain4_negjoint.dsn")
        assert net.variables == ("X1", "X2", "X3", "X4")
        assert len(net.edges) == 3
        assert topological_order(net) == ("X1", "X2", "X3", "X4")
        assert net.node("X2").parents == ("X1",)
        assert net.node("X2").successors == ("X3",)

    def test_self_edge_is_cycle_error(self):
        text = "var X1 : a b\nedge X1 -> X1\n"
        with pytest.raises(NetworkParseError, match="cycle"):
            parse_network(text)

    def test_cycle_error(self):
        text = (
            "var X1 : a b\nvar X2 : a b\n"
            "edge X1 -> X2\nedge X2 -> X1\n"
            "table X1 | X2 kind=m\nend\ntable X2 | X1 kind=m\nend\n"
        )
        with pytest.raises(NetworkParseError, match="cycle"):
            parse_network(text)

    def test_duplicate_table_error(self):
        text = (
            "var X1 : a b\nvar X2 : a b\nedge X1 -> X2\n"
            "table X1 | kind=m\n  {a,b} : 1\nend\n"
            "table X2 | X1 kind=m\nend\n"
            "table X2 | X1 kind=m\nend\n"
        )
        with pytest.raises(NetworkParseError, match="duplicate table"):
            parse_network(text)

    def test_duplicate_edge_error(self):
        text = (
            "var X1 : a b\nvar X2 : a b\nedge X1 -> X2\nedge X1 -> X2\n"
            "table X1 | kind=m\n  {a,b} : 1\nend\n"
            "table X2 | X1 kind=m\n  {a,b} | {a,b} : 1\nend\n"
        )
        with pytest.raises(NetworkParseError, match=r"line 4: duplicate edge X1 -> X2"):
            parse_network(text)

    def test_repeated_table_parent_error(self):
        text = (
            "var X1 : a b\nvar X2 : a b\nedge X1 -> X2\n"
            "table X1 | kind=m\n  {a,b} : 1\nend\n"
            "table X2 | X1 X1 kind=m\n  {a,b} | {a,b} {a,b} : 1\nend\n"
        )
        with pytest.raises(NetworkParseError, match=r"line 7: parent 'X1' listed twice"):
            parse_network(text)

    def test_undeclared_variable(self):
        with pytest.raises(NetworkParseError, match="undeclared"):
            parse_network("var X1 : a b\nedge X1 -> X9\n")

    def test_missing_table(self):
        with pytest.raises(NetworkParseError, match="no table"):
            parse_network("var X1 : a b\n")

    def test_table_parent_mismatch(self):
        text = (
            "var X1 : a b\nvar X2 : a b\nedge X1 -> X2\n"
            "table X1 | kind=m\n  {a,b} : 1\nend\n"
            "table X2 | kind=m\n  {a,b} : 1\nend\n"
        )
        with pytest.raises(
            NetworkParseError,
            match=(
                r"^line 7: table for 'X2' conditions on \(nothing\) "
                r"but its incoming edges are \(X1\)$"
            ),
        ):
            parse_network(text)

    def test_table_conditions_on_a_non_parent(self):
        text = (
            "var X1 : a b\nvar X2 : a b\n"
            "table X1 | kind=m\n  {a,b} : 1\nend\n"
            "table X2 | X1 kind=m\n  {a,b} | {a,b} : 1\nend\n"
        )
        with pytest.raises(
            NetworkParseError,
            match=(
                r"^line 6: table for 'X2' conditions on \(X1\) "
                r"but its incoming edges are \(none\)$"
            ),
        ):
            parse_network(text)

    def test_error_carries_line_number(self):
        with pytest.raises(NetworkParseError, match="line 2"):
            parse_network("var X1 : a b\nbogus directive\n")

    def test_bad_value_and_bad_subset(self):
        base = "var X1 : a b\ntable X1 | kind=m\n"
        with pytest.raises(NetworkParseError, match="bad numeric"):
            parse_network(base + "  {a} : zero\nend\n")
        with pytest.raises(NetworkParseError, match="unknown label"):
            parse_network(base + "  {z} : 0.5\nend\n")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, text):
        net = f"var X1 : a b\ntable X1 | kind=m\n  {{a}} : 0.5\n  {{b}} : {text}\nend\n"
        with pytest.raises(NetworkParseError, match=f"line 4: non-finite value '{text}'"):
            parse_network(net)

    def test_one_value_variable_rejected(self):
        with pytest.raises(NetworkParseError, match="at least two"):
            parse_network("var X1 : a\n")

    def test_missing_rows_default_to_zero(self):
        net = load("vacuous3.dsn")
        t = net.node("X2").table
        assert t.values.sum() == 1.0
        assert t.values.max() == 1.0

    def test_commonality_kind(self):
        net = load("chain3_ternary.dsn")
        assert net.node("X2").table.kind == "k"
        assert net.node("X2").table.values.shape == (7, 7)

    def test_comments_and_blanks_ignored(self):
        text = (
            "# header\n\nnet demo\nvar X1 : a b  # trailing\n"
            "table X1 | kind=m\n  {a,b} : 1\nend\n"
        )
        net = parse_network(text)
        assert net.name == "demo" and net.variables == ("X1",)


class TestStructure:
    def test_star_fixture_valid(self):
        assert validate_structure(load("star5_negjoint.dsn")).ok

    def test_chain_fixture_valid(self):
        assert validate_structure(load("chain4_negjoint.dsn")).ok

    def test_connected_parents_flagged(self):
        text = (
            "var X1 : a b\nvar X2 : a b\nvar X3 : a b\n"
            "edge X1 -> X2\nedge X1 -> X3\nedge X2 -> X3\n"
            "table X1 | kind=m\n  {a,b} : 1\nend\n"
            "table X2 | X1 kind=m\n  {a,b} | {a,b} : 1\nend\n"
            "table X3 | X1 X2 kind=m\n  {a,b} | {a,b} {a,b} : 1\nend\n"
        )
        report = validate_structure(parse_network(text))
        assert not report.ok
        assert any("'X1' and 'X2'" in e and "'X3'" in e for e in report.errors)

    def test_collider_is_valid(self):
        assert validate_structure(load("collider3.dsn")).ok


class TestOrdering:
    def test_star_edge_index_by_declaration(self):
        net = load("star5_negjoint.dsn")
        assert edge_index(net, "X1", "X2") == 1
        assert edge_index(net, "X1", "X3") == 2
        assert edge_index(net, "X1", "X5") == 4

    def test_no_such_edge(self):
        with pytest.raises(ValueError, match="no edge"):
            edge_index(load("star5_negjoint.dsn"), "X2", "X3")

    def test_reversed_declaration_still_sorts_parents_first(self):
        text = (
            "var X2 : a b\nvar X1 : a b\nedge X1 -> X2\n"
            "table X1 | kind=m\n  {a,b} : 1\nend\n"
            "table X2 | X1 kind=m\n  {a,b} | {a,b} : 1\nend\n"
        )
        assert topological_order(parse_network(text)) == ("X1", "X2")


@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
@settings(max_examples=40, deadline=None)
def test_topological_order_on_random_dags(seed, n):
    import random

    rnd = random.Random(seed)
    names = [f"V{i}" for i in range(n)]
    declared = names[:]
    rnd.shuffle(declared)
    true_order = names[:]  # edges only from lower to higher rank
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rnd.random() < 0.4:
                edges.append((true_order[i], true_order[j]))
    lines = [f"var {v} : a b" for v in declared]
    lines += [f"edge {a} -> {b}" for a, b in edges]
    parents = {v: [a for a, b in edges if b == v] for v in declared}
    for v in declared:
        ps = parents[v]
        head = f"table {v} | {' '.join(ps)} kind=m" if ps else f"table {v} | kind=m"
        row = "  {a,b}" + ("" if not ps else " | " + " ".join(["{a,b}"] * len(ps))) + " : 1"
        lines += [head, row, "end"]
    net = parse_network("\n".join(lines))
    order = topological_order(net)
    # each step takes the earliest-declared node whose parents are all placed
    placed: list[str] = []
    while len(placed) < n:
        placed.append(
            next(v for v in declared if v not in placed and all(p in placed for p in parents[v]))
        )
    assert order == tuple(placed)
    # vector coordinates are a bijection onto 1..n per parent
    for v in net.variables:
        succ = net.node(v).successors
        got = sorted(edge_index(net, v, c) for c in succ)
        assert got == list(range(1, len(succ) + 1))


LABELS = ["a", "b", "ab", "x1", "é"]


@st.composite
def spelled_tables(draw):
    """Two frames of 2-4 values, a table of ``child | parent`` rows with
    literals spelled canonically, permuted or (the child's) padded, and the
    rows' (parent literal, child literal, value)."""

    def frame(name):
        return Frame(name, tuple(draw(st.permutations(LABELS))[: draw(st.integers(2, 4))]))

    def spell(mask, padded):
        labels = list(mask.labels())
        style = draw(st.sampled_from(["canonical", "permuted", "padded"][: 2 + padded]))
        if style == "permuted":
            labels = draw(st.permutations(labels))
        if style == "padded":
            return "{ " + " , ".join(labels) + " }"
        return "{" + ",".join(labels) + "}"

    child, parent = frame("C"), frame("P")
    cells = draw(
        st.lists(
            st.tuples(st.sampled_from(subsets_of(parent)), st.sampled_from(subsets_of(child))),
            unique=True,
            max_size=20,
        )
    )
    rows = [(spell(p, False), spell(c, True), draw(st.floats(-1, 1))) for p, c in cells]
    text = f"var P : {' '.join(parent.values)}\nvar C : {' '.join(child.values)}\n"
    text += "edge P -> C\ntable P | kind=m\nend\ntable C | P kind=m\n"
    text += "".join(f"  {c} | {p} : {v!r}\n" for p, c, v in rows) + "end\n"
    return text, child, parent, rows


class TestLiteralLookup:
    """Table rows parse by lookup of canonical literals; the result and every
    error are those of ``parse_subset_label`` on each literal."""

    @given(spelled_tables())
    @settings(max_examples=100, deadline=None)
    def test_same_table_as_full_parser(self, case):
        text, child, parent, rows = case
        entries = {
            ((parse_subset_label(p, parent),), parse_subset_label(c, child)): v
            for p, c, v in rows
        }
        want = mass_table(child, (parent,), entries)
        got = parse_network(text).node("C").table
        assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("literal", ["{z}", "{a,a}", "{b,a,b}", "{}", "a", "{a", "a}"])
    @pytest.mark.parametrize("position", ["child", "parent"])
    def test_bad_literal_error_and_line(self, literal, position):
        frame = Frame("X2" if position == "child" else "X1", ("a", "b"))
        with pytest.raises(SubsetParseError) as want:
            parse_subset_label(literal, frame)
        child, cfg = (literal, "{a}") if position == "child" else ("{a}", literal)
        text = (
            "var X1 : a b\nvar X2 : a b\nedge X1 -> X2\n"
            "table X2 | X1 kind=m\n  {a} | {b} : 0.5\n"
            f"  {child} | {cfg} : 0.5\nend\n"
        )
        with pytest.raises(NetworkParseError) as got:
            parse_network(text)
        assert str(got.value) == f"line 6: {want.value}"
        assert got.value.line == 6

    def test_duplicate_cell_in_another_spelling(self):
        text = (
            "var X1 : a b\ntable X1 | kind=m\n  {a,b} : 0.5\n  { b , a } : 0.5\nend\n"
        )
        with pytest.raises(NetworkParseError) as got:
            parse_network(text)
        assert str(got.value) == "line 4: duplicate row for ({ b , a })"
