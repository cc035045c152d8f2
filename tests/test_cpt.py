"""Extended-domain CPT construction and its identities."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belnet import (
    BelnetError,
    CondTable,
    ExtCPT,
    Frame,
    InfeasibleModelError,
    SizeGuardError,
    StructureError,
    build_network_cpts,
    build_node_cpt,
    check_feasibility,
    mass_to_commonality,
    parse_network,
    topological_order,
)
from belnet.cpt import value_rows
from belnet.extvals import ext_table
from belnet.tables import EXACT_TOL, ROWSUM_TOL

from conftest import (
    Value, Vector, bframe, by_text, child_values, cond_table, configs, cpt_row, load, mask,
    ref_values, ref_vectors, root_table, subsets, table_cell, table_row, ternary_collider,
    LOOSE_ROWS,
)

# Expected one-successor CPT of the milder conditional.  Parent rows follow
# the extended-value order, children the extended-vector order.
T = 13 / 60  # commonality of the full child set given a singleton
E = 2 / 15  # 2*T - 0.3
MID_EXPECTED = np.array(
    [
        [0.3, 0.05, T, T, T],
        [0.05, 0.3, T, T, T],
        [0.05, 0.05, 0.3, 0.3, 0.3],
        [0.05, 0.05, 0.3, 0.3, 0.3],
        [0.05, 0.05, 0.3, 0.3, 0.3],
        [0.55, 0.05, E, E, E],
        [0.05, 0.55, E, E, E],
    ]
)
LEAF_AT_ROW = (41 / 60, 11 / 60, E)  # 2*row({a}) - row({a,b}) of the commonality


def _mid_cpt(loose_cond):
    return build_node_cpt("X2", mass_to_commonality(loose_cond), 1)


class CompoundRowError(InfeasibleModelError):
    """The reference failed on a row with a compound parent coordinate."""


def _child_domain(ktable, n_successors):
    frame = ktable.child_frame
    return subsets(frame) if n_successors == 0 else ref_vectors(frame, n_successors)


def _plain_row(krow, ktable, n_successors):
    """A commonality row over the child domain: as it is for a leaf, else
    each subset's commonality split over its extended class."""
    if n_successors == 0:
        return krow.copy()
    frame = ktable.child_frame
    share = 1.0 / ((1 << n_successors) - 1)
    vec_p = {}
    for v in sorted(ref_values(frame), key=lambda v: -v.own.size):
        if v.is_plain:
            coarser = [w for w in ref_values(frame) if v.own.issubset(w.own) and w.own != v.own]
            vec_p[v] = krow[subsets(frame).index(v.own)] - sum(vec_p[w] for w in coarser)
        else:
            vec_p[v] = vec_p[v.sup] * share if v.op == "@" else 0.0
    return np.array(
        [
            vec_p[Value(x.own)] if x.is_plain else vec_p[x.sup] * share
            for x in _child_domain(ktable, n_successors)
        ]
    )


def _negative_row(node, domain, cfg, row) -> str:
    x = domain[int(row.argmin())]
    child = x.own if isinstance(x, Vector) and x.is_plain else x
    text = " ".join(map(str, cfg)) if cfg else "()"
    return f"node {node}: P({child}|{text}) = {row.min():.6g} is negative"


def recursive_probs(node, ktable, n_successors):
    """Reference construction, row by row: each plain row is split on its own,
    and each compound row is resolved on its first compound coordinate from
    memoized rows (own subset's row first, then the superset value's)."""
    domain = _child_domain(ktable, n_successors)

    def checked(cfg, row, error):
        if row.min() < -EXACT_TOL:
            raise error(_negative_row(node, domain, cfg, row))
        return np.clip(row, 0.0, None)

    resolved = {}
    for cfg in configs(ktable):
        row = _plain_row(table_row(ktable, cfg), ktable, n_successors)
        key = tuple(map(Value, cfg))
        resolved[key] = checked(key, row, InfeasibleModelError)

    def resolve(cfg):
        if cfg in resolved:
            return resolved[cfg]
        i = next(i for i, v in enumerate(cfg) if not v.is_plain)
        v = cfg[i]
        if v.op == "o":
            row = resolve(cfg[:i] + (v.sup,) + cfg[i + 1 :])
        else:
            own = resolve(cfg[:i] + (Value(v.own),) + cfg[i + 1 :])
            sup = resolve(cfg[:i] + (v.sup,) + cfg[i + 1 :])
            row = checked(cfg, 2.0 * own - sup, CompoundRowError)
        resolved[cfg] = row
        return row

    value_cfgs = itertools.product(*map(ref_values, ktable.parent_frames))
    return np.array([resolve(cfg) for cfg in value_cfgs])


def per_slice_probs(node, ktable, n_successors):
    """Reference construction, slice by slice: the plain rows, then per parent
    axis, last first, the slice of each compound value in domain order,
    derived from whole slices and checked row by row."""
    domain = _child_domain(ktable, n_successors)
    domains = [ref_values(f) for f in ktable.parent_frames]
    plain_dims = tuple(len(subsets(f)) for f in ktable.parent_frames)
    probs = np.full([len(d) for d in domains] + [len(domain)], np.nan)

    def checked(rows, where):
        for idx in np.ndindex(rows.shape[:-1]):
            if rows[idx].min() < -EXACT_TOL:
                cfg = [d[i] for d, i in zip(domains, where(idx))]
                raise InfeasibleModelError(_negative_row(node, domain, cfg, rows[idx]))
        return np.clip(rows, 0.0, None)

    plain = [_plain_row(krow, ktable, n_successors) for krow in ktable.values]
    plain = np.array(plain).reshape(plain_dims + (-1,))
    probs[tuple(map(slice, plain_dims))] = checked(plain, lambda idx: idx)
    for axis in reversed(range(len(domains))):
        head = tuple(map(slice, plain_dims[:axis]))
        for j in range(plain_dims[axis], len(domains[axis])):
            v = domains[axis][j]
            sup = probs[head + (domains[axis].index(v.sup),)]
            if v.op == "o":
                probs[head + (j,)] = sup
            else:
                own = probs[head + (domains[axis].index(Value(v.own)),)]
                rows = 2.0 * own - sup
                probs[head + (j,)] = checked(rows, lambda idx: idx[:axis] + (j,) + idx[axis:])
    return probs.reshape(-1, len(domain))


def per_slice_check(cpt):
    """Reference for the slice identity of ``check_feasibility``: per parent
    axis, each derived row's slice in row order against the slices it is
    defined by, reporting rows in row order, each named by its first value."""
    errors, domains = [], [ref_values(f) for f in cpt.source.parent_frames]
    tables = [ext_table(f) for f in cpt.source.parent_frames]
    tensor = cpt.probs.reshape(tuple(len(t.first) for t in tables) + (-1,))
    for axis, (domain, table) in enumerate(zip(domains, tables)):
        for r, j in enumerate(table.first):
            v = domain[j]
            if v.is_plain:
                continue
            i = (r, table.row[domain.index(v.sup)], table.row[domain.index(Value(v.own))])
            mine, theirs, base = (np.take(tensor, k, axis=axis) for k in i)
            bad = np.abs((mine + theirs) / 2.0 - base) > ROWSUM_TOL
            for idx in np.ndindex(bad.shape[:-1]):
                if bad[idx].any():
                    cfgs = [
                        " ".join(str(d[t.first[c]]) for d, t, c in zip(domains, tables, cfg))
                        for cfg in (idx[:axis] + (k,) + idx[axis:] for k in i)
                    ]
                    errors.append(
                        f"node {cpt.node}: substitution average of {cfgs[0]} and {cfgs[1]} "
                        f"does not reproduce {cfgs[2]}"
                    )
    return errors


def _random_net(rng, shape, sizes, spread):
    """A 3-node chain, star or collider with commonality tables: per node, a
    base row decaying with subset size, every row a relative perturbation of
    it by up to ``spread``, renormalized."""
    names = ["V0", "V1", "V2"]
    edges = {
        "chain": [("V0", "V1"), ("V1", "V2")],
        "star": [("V0", "V1"), ("V0", "V2")],
        "collider": [("V0", "V2"), ("V1", "V2")],
    }[shape]
    frames = {v: Frame(v, tuple("abcd"[:k])) for v, k in zip(names, sizes)}
    lines = [f"var {v} : {' '.join(f.values)}" for v, f in frames.items()]
    lines += [f"edge {a} -> {b}" for a, b in edges]
    for v in names:
        parents = [a for a, b in edges if b == v]
        children = subsets(frames[v])
        decay = rng.uniform(0.05, 0.5) ** np.array([c.size - 1 for c in children])
        base = rng.uniform(0.5, 1.5, len(children)) * decay
        lines.append(f"table {v} | {' '.join(parents)} kind=k")
        for cfg in itertools.product(*(subsets(frames[p]) for p in parents)):
            row = base * (1 + spread * rng.uniform(-1, 1, len(children)))
            row /= row.sum()
            for c, x in zip(children, row):
                left = f"{c} | {' '.join(map(str, cfg))}" if cfg else str(c)
                lines.append(f"  {left} : {float(x)!r}")
        lines.append("end")
    return parse_network("\n".join(lines))


class TestSplitRows:
    def test_one_successor_full_table(self, loose_cond):
        cpt = _mid_cpt(loose_cond)
        # one row per derivation: {a}o{a,b} and {b}o{a,b} share the row of {a,b}
        assert cpt.probs.shape == (5, 5)
        assert np.array_equal(cpt.probs[value_rows(cpt)][[2, 3, 4]], cpt.probs[[2, 2, 2]])
        assert np.abs(cpt.probs[value_rows(cpt)] - MID_EXPECTED).max() <= 1e-9

    def test_leaf_rows_equal_commonality(self, loose_cond):
        k = mass_to_commonality(loose_cond)
        cpt = build_node_cpt("X2", k, 0)
        for cfg in configs(k):
            assert np.array_equal(cpt_row(cpt, cfg), table_row(k, cfg))

    def test_leaf_extension_row(self, loose_cond):
        cpt = build_node_cpt("X2", mass_to_commonality(loose_cond), 0)
        assert cpt_row(cpt, ("{a}@{a,b}",)) == pytest.approx(LEAF_AT_ROW, abs=1e-9)

    def test_star_root_division(self):
        net = load("star5_negjoint.dsn")
        cpts = build_network_cpts(net)
        root = cpts["X1"]
        row = cpt_row(root)
        frame = net.frame("X1")
        full = root.child_domain.index("[{a,b};{a,b};{a,b};{a,b}]")
        assert row[full] == pytest.approx(0.2, abs=1e-12)
        fam_a = [
            i
            for i, x in enumerate(child_values(root))
            if not x.is_plain and str(x.own) == "{a}"
        ]
        assert len(fam_a) == 15
        assert row[fam_a] == pytest.approx([0.2 / 15] * 15, abs=1e-12)
        plain_a = child_values(root).index(Vector(mask(frame, "{a}"), 4))
        assert row[plain_a] == pytest.approx(0.2, abs=1e-12)

    def test_class_sums_equal_commonality(self, loose_cond):
        k = mass_to_commonality(loose_cond)
        cpt = build_node_cpt("X2", k, 3)
        for cfg in configs(k):
            row = cpt_row(cpt, cfg)
            for s in subsets(k.child_frame):
                cols = [
                    i for i, x in enumerate(child_values(cpt)) if x.own == s
                ]
                assert row[cols].sum() == pytest.approx(table_cell(k, cfg, s), abs=1e-9)


class TestExtensionRows:
    def test_at_rows_by_inclusion_exclusion(self, loose_cond):
        cpt = _mid_cpt(loose_cond)
        at, own, sup = ("{a}@{a,b}",), ("{a}",), ("{a,b}",)
        want = 2 * cpt_row(cpt, own) - cpt_row(cpt, sup)
        assert cpt_row(cpt, at) == pytest.approx(want, abs=1e-12)
        assert cpt_row(cpt, at)[0] == pytest.approx(0.55, abs=1e-9)

    def test_dot_rows_are_bit_identical(self, loose_cond):
        cpt = _mid_cpt(loose_cond)
        assert np.array_equal(cpt_row(cpt, ("{b}o{a,b}",)), cpt_row(cpt, ("{a,b}",)))

    def test_at_equals_both_when_rows_agree(self):
        # commonality with identical rows: 2x - x = x
        child, parent = bframe("C"), bframe("P")
        vals = np.tile(np.array([0.5, 0.3, 0.2]), (3, 1))
        cpt = build_node_cpt("C", CondTable(child, (parent,), vals, "k"), 0)
        rows = dict(zip(cpt.parent_domains[0], cpt.probs[value_rows(cpt)]))
        assert np.array_equal(rows["{a}@{a,b}"], rows["{a}"])

    def test_rounding_negatives_clip_to_zero(self):
        # 2 * 0.1 - 0.2000000000000001 is about -3e-17, inside EXACT_TOL
        child, parent = bframe("C"), bframe("P")
        vals = np.array([[0.1, 0.6, 0.3], [0.1, 0.6, 0.3], [0.2000000000000001, 0.5, 0.3]])
        cpt = build_node_cpt("C", CondTable(child, (parent,), vals, "k"), 0)
        assert 2 * 0.1 - 0.2000000000000001 < 0.0
        assert cpt_row(cpt, ("{a}@{a,b}",))[cpt.child_domain.index("{a}")] == 0.0
        assert cpt.probs.min() == 0.0

    def test_two_at_coordinates_resolve_per_coordinate(self):
        net = load("collider3.dsn")
        cpt = build_network_cpts(net)["X3"]
        xa, yb = "{a}@{a,b}", "{b}@{a,b}"
        a, ab1 = "{a}", "{a,b}"
        b, ab2 = "{b}", "{a,b}"

        def row(*cfg):
            return cpt_row(cpt, cfg)

        want = 4 * row(a, b) - 2 * row(a, ab2) - 2 * row(ab1, b) + row(ab1, ab2)
        assert row(xa, yb) == pytest.approx(want, abs=1e-12)
        mean = (row(xa, yb) + row(xa, ab2) + row(ab1, yb) + row(ab1, ab2)) / 4
        assert mean == pytest.approx(row(a, b), abs=1e-9)


class TestFeasibility:
    def test_tight_chain_fails_with_named_row(self):
        net = load("chain4_negjoint.dsn")
        with pytest.raises(InfeasibleModelError, match=r"P\(\{b\}\|\{a\}\) = -0\.06"):
            build_network_cpts(net)

    def test_tight_conditional_value(self, tight_cond):
        k = mass_to_commonality(tight_cond)
        with pytest.raises(InfeasibleModelError) as err:
            build_node_cpt("X2", k, 1)
        assert "-0.06" in str(err.value)

    def test_vacuous_with_successors_is_infeasible(self):
        # the family share of the full set exceeds the singleton classes' budget
        net = load("vacuous3.dsn")
        with pytest.raises(InfeasibleModelError):
            build_network_cpts(net)

    def test_short_commonality_row_rejected(self):
        text = "var X1 : a b\ntable X1 | kind=k\n  {a} : 0.25\n  {b} : 0.25\nend\n"
        with pytest.raises(
            InfeasibleModelError, match=r"node X1: commonality row \(\) sums to 0\.500000000"
        ):
            build_network_cpts(parse_network(text))

    def test_negative_commonality_named_before_short_rows(self):
        # row {a} holds a negative cell, row {b} sums to 0.9; the cell is reported
        text = (
            "var X1 : a b\nvar X2 : a b\nedge X1 -> X2\n"
            "table X1 | kind=k\n  {a} : 0.5\n  {b} : 0.3\n  {a,b} : 0.2\nend\n"
            "table X2 | X1 kind=k\n  {a} | {a} : 0.6\n  {b} | {a} : -0.1\n"
            "  {a,b} | {a} : 0.5\n  {a} | {b} : 0.5\n  {b} | {b} : 0.4\n"
            "  {a} | {a,b} : 0.6\n  {b} | {a,b} : 0.4\nend\n"
        )
        with pytest.raises(InfeasibleModelError) as err:
            build_network_cpts(parse_network(text))
        assert str(err.value) == "node X2: negative commonality -0.1 at ({a} ; {b})"

    def test_connected_parents_raise_structure_error(self):
        text = (
            "var X1 : a b\nvar X2 : a b\nvar X3 : a b\n"
            "edge X1 -> X2\nedge X1 -> X3\nedge X2 -> X3\n"
            "table X1 | kind=m\n  {a,b} : 1\nend\n"
            "table X2 | X1 kind=m\n  {a,b} | {a,b} : 1\nend\n"
            "table X3 | X1 X2 kind=m\n  {a,b} | {a,b} {a,b} : 1\nend\n"
        )
        with pytest.raises(StructureError) as err:
            build_network_cpts(parse_network(text))
        assert isinstance(err.value, ValueError) and isinstance(err.value, BelnetError)
        assert str(err.value) == "error: parents 'X1' and 'X2' of 'X3' are directly connected"

    def test_derived_commonality_row_sum_checked(self):
        # mass rows {a}: 0.3 and {a,b}: 1 cumulate to a commonality row of 1.3
        text = (
            "var X1 : a b\nvar X2 : a b\nedge X1 -> X2\n"
            "table X1 | kind=m\n  {a} : 0.4\n  {b} : 0.4\n  {a,b} : 0.2\nend\n"
            "table X2 | X1 kind=m\n  {a} | {a} : 0.3\n"
            "  {a} | {a,b} : 0.5\n  {b} | {a,b} : 0.5\nend\n"
        )
        with pytest.raises(
            InfeasibleModelError, match=r"node X2: commonality row \{a\} sums to 1\.300000000"
        ):
            build_network_cpts(parse_network(text))

    def test_vacuous_leaf_is_feasible(self):
        child, parent = bframe("C"), bframe("P")
        vals = np.tile(np.array([0.0, 0.0, 1.0]), (3, 1))
        cpt = build_node_cpt("C", CondTable(child, (parent,), vals, "k"), 0)
        assert check_feasibility(cpt).ok

    def test_degenerate_cpt_passes_checks(self):
        # all mass on the plain full vector satisfies every checked identity
        child, parent = bframe("C"), bframe("P")
        vals = np.tile(np.array([0.0, 0.0, 1.0]), (3, 1))
        k = CondTable(child, (parent,), vals, "k")
        domain = ref_vectors(child, 2)
        probs = np.zeros((len(ext_table(parent).first), len(domain)))
        probs[:, domain.index(Vector(mask(child, "{a,b}"), 2))] = 1.0
        cpt = ExtCPT(node="C", parent_names=("P",), probs=probs, source=k, n_successors=2)
        assert check_feasibility(cpt).ok

    @pytest.mark.parametrize(
        "fixture",
        [
            "chain4_sampling.dsn",
            "star5_negjoint.dsn",
            "star4_proper.dsn",
            "collider3.dsn",
            "chain3_ternary.dsn",
        ],
    )
    def test_identity_suite_on_feasible_fixtures(self, fixture):
        net = load(fixture)
        for name, cpt in build_network_cpts(net).items():
            report = check_feasibility(cpt)
            assert report.ok, f"{fixture}:{name}: {report}"

    def test_check_reports_bad_rows(self, loose_cond):
        cpt = _mid_cpt(loose_cond)

        def errors(row, moves):
            probs = cpt.probs.copy()
            for c, delta in moves:
                probs[row, c] += delta
            return check_feasibility(dataclasses.replace(cpt, probs=probs)).errors

        plain = errors(0, [(0, 0.5)])
        assert any("sums to" in e for e in plain)
        assert any("class" in e for e in plain)
        # mass moved within a derived row keeps its row sum and every class sum
        assert errors(3, [(0, -0.1), (1, 0.1)]) == [
            "node X2: substitution average of {a}@{a,b} and {a,b} does not reproduce {a}"
        ]
        assert "node X2: negative P({a}|{b}@{a,b}) = -0.05" in errors(4, [(0, -0.1), (1, 0.1)])

    def test_check_names_a_negative_child_vector(self):
        # a root with two successors; mass moved within one class keeps every sum
        cpt = build_node_cpt("R", mass_to_commonality(root_table(bframe("R"))), 2)

        def errors(moves):
            probs = cpt.probs.copy()
            for c, delta in moves:
                probs[0, c] += delta
            return check_feasibility(dataclasses.replace(cpt, probs=probs)).errors

        # a family member prints as its vector, a plain vector as its subset
        assert errors([(3, -0.1), (4, 0.1)]) == [
            "node R: negative P([{a}@{a,b};{a}o{a,b}]|()) = -0.0333333"
        ]
        assert errors([(0, -0.5), (5, 0.5)]) == ["node R: negative P({a}|()) = -0.3"]

    def test_check_report_on_two_parents(self):
        cpt = build_network_cpts(load("collider3.dsn"))["X3"]
        probs = cpt.probs.copy()
        # mass moved within rows {a,b} {a}@{a,b}; {b}@{a,b} {a,b}; {a} {b} of 5 x 5,
        # so every row sum holds
        for r, c, delta in [(13, 0, 1e-3), (13, 1, -1e-3), (22, 2, 0.01), (22, 0, -0.01),
                            (1, 0, 1e-3), (1, 1, -1e-3)]:
            probs[r, c] += delta
        bad = dataclasses.replace(cpt, probs=probs)
        assert check_feasibility(bad).errors == [
            "node X3: class {a} of row {a} {b} sums to 0.501000000000, table says 0.500000000000",
            "node X3: class {b} of row {a} {b} sums to 0.399000000000, table says 0.400000000000",
            "node X3: substitution average of {a}@{a,b} {b} and {a,b} {b} does not reproduce "
            "{a} {b}",
            "node X3: substitution average of {a}@{a,b} {a}@{a,b} and {a,b} {a}@{a,b} does not "
            "reproduce {a} {a}@{a,b}",
            "node X3: substitution average of {b}@{a,b} {a,b} and {a,b} {a,b} does not "
            "reproduce {b} {a,b}",
            "node X3: substitution average of {b}@{a,b} {a}@{a,b} and {a,b} {a}@{a,b} does not "
            "reproduce {b} {a}@{a,b}",
            "node X3: substitution average of {a,b} {a}@{a,b} and {a,b} {a,b} does not "
            "reproduce {a,b} {a}",
            "node X3: substitution average of {b}@{a,b} {a}@{a,b} and {b}@{a,b} {a,b} does not "
            "reproduce {b}@{a,b} {a}",
            "node X3: substitution average of {a} {b}@{a,b} and {a} {a,b} does not reproduce "
            "{a} {b}",
            "node X3: substitution average of {b}@{a,b} {b}@{a,b} and {b}@{a,b} {a,b} does not "
            "reproduce {b}@{a,b} {b}",
        ]


class TestAgainstSlices:
    """The build and the per-axis check against their slice-by-slice forms:
    equal bits, equal first failure, equal report lines."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["chain", "star", "collider"]),
        # a quaternary parent derives rows on three split levels
        st.lists(st.sampled_from([2, 3, 4]), min_size=3, max_size=3).filter(
            lambda sizes: sizes.count(4) <= 1
        ),
        st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_build_equals_per_slice(self, seed, shape, sizes, spread):
        net = _random_net(np.random.default_rng(seed), shape, sizes, spread)
        for name in topological_order(net):
            args = (name, net.node(name).table, len(net.node(name).successors))
            try:
                want = per_slice_probs(*args)
            except InfeasibleModelError as err:
                with pytest.raises(InfeasibleModelError) as got:
                    build_node_cpt(*args)
                assert str(got.value) == str(err)
            else:
                cpt = build_node_cpt(*args)
                assert cpt.probs[value_rows(cpt)].tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("parents, spread", [(2, 0.1), (3, 0.03)])
    def test_refusal_names_the_per_value_row(self, parents, spread):
        # each refused row is derived along every parent axis
        args = ("C", parse_network(ternary_collider(parents, spread)).node("C").table, 0)
        with pytest.raises(InfeasibleModelError) as want:
            per_slice_probs(*args)
        with pytest.raises(InfeasibleModelError) as got:
            build_node_cpt(*args)
        assert str(got.value) == str(want.value)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_check_equals_per_slice(self, seed, cells):
        rng = np.random.default_rng(seed)
        cpts = build_network_cpts(load(["collider3.dsn", "star4_proper.dsn"][seed % 2]))
        cpt = list(cpts.values())[-1]
        probs = cpt.probs.copy()
        at = rng.integers(0, probs.size, cells)
        probs.ravel()[at] += rng.choice([1e-12, 1e-3, -1e-3, 0.5], cells)
        bad = dataclasses.replace(cpt, probs=probs)
        slices = [e for e in check_feasibility(bad).errors if "average" in e]
        assert slices == per_slice_check(bad)


class TestAgainstRecursion:
    @pytest.mark.parametrize(
        "fixture",
        [
            "chain3_ternary.dsn",
            "chain4_sampling.dsn",
            "collider3.dsn",
            "star4_proper.dsn",
            "star5_negjoint.dsn",
            "vacuous1.dsn",
        ],
    )
    def test_bitwise_equal_on_feasible_fixtures(self, fixture):
        net = load(fixture)
        for name, cpt in build_network_cpts(net).items():
            want = recursive_probs(name, cpt.source, len(net.node(name).successors))
            assert cpt.probs[value_rows(cpt)].tobytes() == want.tobytes(), name

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["chain", "star", "collider"]),
        st.lists(st.sampled_from([2, 3]), min_size=3, max_size=3),
        st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_networks_agree(self, seed, shape, sizes, spread):
        net = _random_net(np.random.default_rng(seed), shape, sizes, spread)
        try:
            cpts = build_network_cpts(net)
        except InfeasibleModelError as err:
            got = str(err)
        else:
            got = None
        want, failure = {}, None
        for name in topological_order(net):
            try:
                want[name] = recursive_probs(
                    name, net.node(name).table, len(net.node(name).successors)
                )
            except InfeasibleModelError as err:
                failure = err
                break
        if isinstance(failure, CompoundRowError):
            # another failing row may be named, but of the same node
            node = str(failure).split(":")[0]
            assert got is not None and got.startswith(f"{node}: P(")
        elif failure is not None:
            assert got == str(failure)
        else:
            assert got is None, got
            for name, probs in want.items():
                cpt = cpts[name]
                assert cpt.probs[value_rows(cpt)].tobytes() == probs.tobytes(), name
                report = check_feasibility(cpt)
                assert report.ok, report


class TestNestedFrames:
    def test_families_over_deferral_compounds_carry_no_mass(self):
        net = load("chain3_ternary.dsn")
        cpt = build_network_cpts(net)["X2"]
        frame = net.frame("X2")
        zero_cols = [
            i
            for i, x in enumerate(child_values(cpt))
            if not x.is_plain and x.sup.op == "o"
        ]
        assert zero_cols
        assert np.abs(cpt.probs[:, zero_cols]).max() == 0.0

    def test_nested_at_budget_matches_coarsest_plain(self):
        net = load("chain3_ternary.dsn")
        cpt = build_network_cpts(net)["X2"]
        frame = net.frame("X2")
        full_plain = Vector(mask(frame, "{a,b,c}"), 1)
        two_at = by_text(ref_values(frame), "{a,b}@{a,b,c}")
        nested = [
            i
            for i, x in enumerate(child_values(cpt))
            if not x.is_plain and x.sup == two_at
        ]
        col_full = child_values(cpt).index(full_plain)
        for cfg in configs(cpt.source):
            row = cpt_row(cpt, cfg)
            # n=1 families hold exactly their superset vector's probability
            assert row[nested].sum() == pytest.approx(
                2 * row[col_full], abs=1e-12
            )  # the two singleton splits of {a,b} each carry P(full vector)


def test_build_takes_only_a_commonality_table():
    # a mass cell read as a probability would be refused as "P({b}|{a}) = -0.0833333"
    m = cond_table(bframe("C"), bframe("P"), LOOSE_ROWS)
    with pytest.raises(ValueError, match="node C: a CPT is built from a kind=k table, not kind=m"):
        build_node_cpt("C", m, 0)
    assert check_feasibility(build_node_cpt("C", mass_to_commonality(m), 0)).ok


def test_cpt_size_guard():
    # one row per derivation: 149^3 * 281 cells, where two parents would fit in 149^2 * 281
    frame = Frame("Q", ("a", "b", "c", "d"))
    parents = tuple(Frame(f"P{i}", ("a", "b", "c", "d")) for i in (1, 2, 3))
    vals = np.zeros((15**3, 15))
    vals[:, 14] = 1.0
    k = CondTable(frame, parents, vals, "k")
    with pytest.raises(SizeGuardError, match="would hold 929533669 cells"):
        build_node_cpt("Q", k, 1)
