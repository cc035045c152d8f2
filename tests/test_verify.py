"""Exact oracle distributions, against enumeration references, and empirical comparison."""

import importlib.util
import itertools
import math
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import belnet.errors as errors_mod
from belnet import (
    Frame,
    InfeasibleModelError,
    JointMass,
    SizeGuardError,
    build_network_cpts,
    check_feasibility,
    compare_empirical,
    edge_index,
    exact_collapsed_joint,
    generate,
    network_joint,
    parse_network,
    topological_order,
)
from belnet.cpt import row_offsets
from belnet.tables import subset_index

from conftest import child_values, component, cpt_row, load, marginal, subsets, support

# the benchmark's seeded network generator, clibench/gen.py
_GEN_PATH = Path(__file__).parents[1] / "clibench" / "gen.py"
_spec = importlib.util.spec_from_file_location("clibench_gen", _GEN_PATH)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

CHAIN2 = """
net chain2
var X1 : a b
var X2 : a b
edge X1 -> X2
table X1 | kind=m
  {a} : 0.4
  {b} : 0.4
  {a,b} : 0.2
end
table X2 | X1 kind=m
  {a} | {a} : 0.16666666666666666
  {b} | {a} : -0.08333333333333333
  {a,b} | {a} : -0.08333333333333333
  {a} | {b} : -0.08333333333333333
  {b} | {b} : 0.16666666666666666
  {a,b} | {b} : -0.08333333333333333
  {a} | {a,b} : 0.35
  {b} | {a,b} : 0.35
  {a,b} | {a,b} : 0.3
end
"""


FEASIBLE = [
    "chain3_ternary.dsn",
    "chain4_sampling.dsn",
    "collider3.dsn",
    "star4_proper.dsn",
    "star5_negjoint.dsn",
    "vacuous1.dsn",
]


def recursive_extended_joint(net, cpts):
    """Reference enumeration: depth first over every positive CPT cell in
    topological order, multiplying the chain-rule factors along the way."""
    topo = topological_order(net)
    out = {}

    def rec(values, acc):
        if len(values) == len(topo):
            out[tuple(values[name] for name in net.variables)] = acc
            return
        name = topo[len(values)]
        cpt = cpts[name]
        cfg = tuple(component(values[p], edge_index(net, p, name)) for p in cpt.parent_names)
        row = cpt_row(cpt, cfg)
        for c in np.nonzero(row)[0]:
            rec({**values, name: child_values(cpt)[c]}, acc * float(row[c]))

    rec({}, 1.0)
    return out


def enumerated_extended_joint(net, cpts) -> np.ndarray:
    """Reference enumeration: the chain-rule product over all extended states,
    as a dense array with one axis per variable in declaration order.

    Each node's CPT is broadcast onto its parents' axes and its own, and the
    factors are multiplied in topological order.
    """
    axis = {name: j for j, name in enumerate(net.variables)}
    sizes = [len(cpts[name].child_domain) for name in net.variables]
    joint = np.ones(sizes)
    for name in topological_order(net):
        j = axis[name]
        # flat CPT cell of every (parent values, own value) combination
        cell = _along(np.arange(sizes[j]), j, len(sizes))
        for parent, offsets in row_offsets(net, cpts, name):
            cell = cell + _along(offsets * sizes[j], axis[parent], len(sizes))
        joint *= cpts[name].probs.ravel()[cell]
    return joint


# a joint over extended states: axis j runs over ``labels[j]``, the values of ``scope[j]``
ExtendedJoint = namedtuple("ExtendedJoint", "scope labels array")


def extended_joint(net, cpts=None) -> ExtendedJoint:
    """The enumerated extended joint: axis j runs over the child domain of
    ``net.variables[j]``."""
    if cpts is None:
        cpts = build_network_cpts(net)
    labels = tuple(child_values(cpts[name]) for name in net.variables)
    return ExtendedJoint(net.variables, labels, enumerated_extended_joint(net, cpts))


def own_positions(frame, domain) -> np.ndarray:
    """Per value of ``domain``, the position of its own subset in
    ``subsets(frame)``, found from the reference values (a plain subset is
    its own), so independent of the integer collapse map the library reads."""
    plain = subsets(frame)
    return np.array([plain.index(getattr(v, "own", v)) for v in domain])


def enumerated_collapsed_joint(net, cpts) -> np.ndarray:
    """Reference push-forward: the enumerated extended joint bincounted by the
    collapsed class of every state, in mixed radix over own subsets."""
    joint = enumerated_extended_joint(net, cpts)
    sizes = [len(subsets(net.frame(name))) for name in net.variables]
    owns = [
        _along(own_positions(net.frame(name), child_values(cpts[name])), j, joint.ndim)
        for j, name in enumerate(net.variables)
    ]
    classes = np.ravel_multi_index(owns, sizes)
    probs = np.bincount(classes.ravel(), weights=joint.ravel(), minlength=math.prod(sizes))
    return probs.reshape(sizes)


def _along(values: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """``values`` laid along one axis of an ``ndim``-dimensional array."""
    return values.reshape([-1 if a == axis else 1 for a in range(ndim)])


def _assert_contraction_matches_enumeration(net, cpts):
    # every factor is nonnegative, so the supports agree exactly
    got, want = exact_collapsed_joint(net, cpts).array, enumerated_collapsed_joint(net, cpts)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(got > 0.0, want > 0.0)


class TestContraction:
    """The oracle is one contraction; enumeration is its reference."""

    @pytest.mark.parametrize("fixture", FEASIBLE)
    def test_fixtures(self, fixture):
        net = load(fixture)
        _assert_contraction_matches_enumeration(net, build_network_cpts(net))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("shape", ["ternary_chain3", "ternary_chain4", "ternary_chain5",
                                       "wide_collider"])
    def test_benchmark_networks(self, shape, seed):
        if shape == "wide_collider":
            net = parse_network(gen.wide_collider(seed))
        else:
            net = parse_network(gen.ternary_chain(int(shape[-1]), seed))
        _assert_contraction_matches_enumeration(net, build_network_cpts(net))

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["chain2", "chain3", "chain4", "fork3", "fork4",
                         "collider3", "collider4"]),
        st.lists(st.sampled_from([2, 3]), min_size=4, max_size=4),
        st.sampled_from([0.02, 0.2, 0.5]),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_networks(self, seed, shape, sizes, spread):
        net = random_net(np.random.default_rng(seed), shape, sizes, spread)
        try:
            cpts = build_network_cpts(net)
        except InfeasibleModelError:
            return
        _assert_contraction_matches_enumeration(net, cpts)

    @pytest.mark.parametrize("k", [6, 7])
    def test_chains_beyond_enumeration(self, k):
        # 2.0e8 and 6.2e9 extended states; a chain's collapsed joint is its
        # combination joint, which is computed without them
        net = parse_network(gen.ternary_chain(k, 1))
        joint, report = network_joint(net)
        assert report.proper
        _assert_collapsed_equals_joint(exact_collapsed_joint(net), joint)

    def test_guard_bounds_every_operand(self, monkeypatch):
        # each net's CPTs are built before the budget is lowered: it bounds X3's 75-cell CPT too
        # collider3's 27-cell answer needs X3's 5 x 5 x 3 factor
        net = load("collider3.dsn")
        cpts = build_network_cpts(net)
        monkeypatch.setattr(errors_mod, "MAX_CELLS", 75)
        assert exact_collapsed_joint(net, cpts).array.size == 27
        monkeypatch.setattr(errors_mod, "MAX_CELLS", 74)
        with pytest.raises(SizeGuardError, match="operand of 75 cells at X3 "):
            exact_collapsed_joint(net, cpts)
        # CHAIN2's 9-cell answer needs X1's collapse matrix: 5 extended values by 3 subsets
        net = parse_network(CHAIN2)
        cpts = build_network_cpts(net)
        monkeypatch.setattr(errors_mod, "MAX_CELLS", 15)
        assert exact_collapsed_joint(net, cpts).array.size == 9
        monkeypatch.setattr(errors_mod, "MAX_CELLS", 14)
        with pytest.raises(SizeGuardError, match="operand of 15 cells at X1 "):
            exact_collapsed_joint(net, cpts)


class TestExactExtended:
    """The enumerated extended joint, the reference the collapsed oracle is
    checked against, and the collapsed oracle's state-space guard."""

    @pytest.mark.parametrize("fixture", FEASIBLE)
    def test_matches_recursive_enumeration(self, fixture):
        net = load(fixture)
        cpts = build_network_cpts(net)
        want = recursive_extended_joint(net, cpts)
        ext = support(extended_joint(net, cpts))
        assert set(ext) == set(want)
        for key, p in want.items():
            assert ext[key] == pytest.approx(p, abs=1e-15)
        collapsed = {tuple(getattr(v, "own", v) for v in key) for key in want}
        assert set(support(exact_collapsed_joint(net, cpts))) == collapsed

    def test_degenerate_network_unit_mass(self):
        ext = support(extended_joint(load("vacuous1.dsn")))
        assert len(ext) == 1
        ((key, p),) = ext.items()
        assert p == 1.0 and str(key[0]) == "{a,b}"

    def test_root_with_one_successor_has_five_states(self):
        marg = marginal(extended_joint(parse_network(CHAIN2)), "X1")
        assert len(marg) == 5
        for p in marg.values():
            assert p == pytest.approx(0.2, abs=1e-12)

    def test_chain_total_is_one(self, sampling_net):
        ext = extended_joint(sampling_net)
        assert len(support(ext)) <= 5 * 5 * 5 * 3
        assert ext.array.sum() == pytest.approx(1.0, abs=1e-9)

    def test_star_total_is_one(self):
        ext = extended_joint(load("star5_negjoint.dsn"))
        assert ext.array.sum() == pytest.approx(1.0, abs=1e-9)

    def test_state_space_guard(self, sampling_net, monkeypatch):
        # 3^4 collapsed states; the sampler owns the collapsed-array guard
        monkeypatch.setattr(errors_mod, "MAX_CELLS", 80)
        with pytest.raises(SizeGuardError, match="collapsed state space holds 81 states"):
            exact_collapsed_joint(sampling_net)

    def test_root_class_sums_equal_mass(self, sampling_net):
        marg = {}
        for key, p in support(extended_joint(sampling_net)).items():
            own = str(key[0].own)
            marg[own] = marg.get(own, 0.0) + p
        assert marg["{a}"] == pytest.approx(0.4, abs=1e-9)
        assert marg["{b}"] == pytest.approx(0.4, abs=1e-9)
        assert marg["{a,b}"] == pytest.approx(0.2, abs=1e-9)


class TestExactCollapsed:
    def test_pushforward_conserves_mass(self, sampling_net):
        ext = extended_joint(sampling_net)
        col = exact_collapsed_joint(sampling_net)
        assert col.array.sum() == pytest.approx(ext.array.sum(), abs=1e-12)
        assert col.array.min() >= 0.0

    def test_matches_direct_summation(self, sampling_net):
        cpts = build_network_cpts(sampling_net)
        direct = {}
        for key, p in support(extended_joint(sampling_net, cpts)).items():
            ckey = tuple(getattr(v, "own", v) for v in key)
            direct[ckey] = direct.get(ckey, 0.0) + p
        col = support(exact_collapsed_joint(sampling_net, cpts))
        assert set(direct) == set(col)
        for k, v in direct.items():
            assert col[k] == pytest.approx(v, abs=1e-15)

    def test_star_root_marginal(self):
        col = exact_collapsed_joint(load("star4_proper.dsn"))
        marg = {str(k): v for k, v in marginal(col, "X1").items()}
        assert marg["{a}"] == pytest.approx(0.4, abs=1e-9)
        assert marg["{a,b}"] == pytest.approx(0.2, abs=1e-9)


class TestAgainstCombinationJoint:
    """For chains (every node has at most one successor) the collapsed
    sampling distribution is exactly the unnormalized combination joint."""

    @pytest.mark.parametrize("fixture", ["chain4_sampling.dsn", "chain3_ternary.dsn"])
    def test_chain_collapsed_equals_combination(self, fixture):
        net = load(fixture)
        col = exact_collapsed_joint(net)
        joint, report = network_joint(net)
        assert report.proper
        _assert_collapsed_equals_joint(col, joint)

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["chain2", "chain3", "chain4", "collider3"]),
        st.lists(st.sampled_from([2, 3]), min_size=4, max_size=4),
        st.sampled_from([0.02, 0.2, 0.5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_one_successor_networks(self, seed, shape, sizes, spread):
        net = random_net(np.random.default_rng(seed), shape, sizes, spread)
        _assert_exact_if_proper(net)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.02, 0.2, 0.5]))
    @settings(max_examples=30, deadline=None)
    def test_eight_node_binary_chains(self, seed, spread):
        net = random_net(np.random.default_rng(seed), "chain8", [2] * 8, spread)
        _assert_exact_if_proper(net)

    def test_one_successor_networks_are_mostly_feasible(self):
        # the property above must see both outcomes, and mostly proper joints
        outcomes = []
        for seed in range(40):
            shape = ["chain2", "chain3", "chain4", "collider3"][seed % 4]
            net = random_net(np.random.default_rng(seed), shape, [3, 2, 3, 2], 0.2)
            try:
                build_network_cpts(net)
            except InfeasibleModelError:
                outcomes.append("infeasible")
            else:
                outcomes.append("proper" if network_joint(net)[1].proper else "improper")
        assert "infeasible" in outcomes and outcomes.count("proper") > len(outcomes) / 2

    def test_star_deviates_but_keeps_marginals(self):
        # multi-successor splitting trades joint faithfulness for feasibility:
        # the root marginal holds, a leaf marginal does not
        net = load("star4_proper.dsn")
        col = exact_collapsed_joint(net)
        joint, _ = network_joint(net)
        assert np.abs(col.array - joint.array).max() > 1e-3
        for variable, literal, want in (("X1", "{a,b}", 0.2), ("X1", "{a}", 0.4)):
            assert _joint_marginal(joint, variable, literal) == pytest.approx(want, abs=1e-9)
            got = {str(k): p for k, p in marginal(col, variable).items()}[literal]
            assert got == pytest.approx(want, abs=1e-9)
        assert _joint_marginal(joint, "X2", "{a,b}") == pytest.approx(0.2, abs=1e-9)
        leaf = {str(k): p for k, p in marginal(col, "X2").items()}
        assert leaf["{a,b}"] == pytest.approx(0.2286, abs=1e-4)


def random_net(rng, shape, sizes, spread):
    """A K-node network (K < 10) with commonality tables and a frame of
    ``sizes[j]`` values on node j: ``chainK``, ``forkK`` (one root feeding K - 1
    leaves) or ``colliderK`` (K - 1 roots feeding one leaf).

    Per node, a base row shrinks by a factor per extra subset member, 0.1 on a
    node with a successor and 0.5 on a leaf; every row is the base perturbed
    by up to ``spread`` (relative, per cell) and renormalized.
    """
    names = [f"X{i}" for i in range(1, int(shape[-1]) + 1)]
    edges = {
        "chain": list(zip(names, names[1:])),
        "fork": [(names[0], v) for v in names[1:]],
        "collider": [(v, names[-1]) for v in names[:-1]],
    }[shape[:-1]]
    frames = {v: Frame(v, tuple("abc"[:k])) for v, k in zip(names, sizes)}
    lines = [f"var {v} : {' '.join(f.values)}" for v, f in frames.items()]
    lines += [f"edge {a} -> {b}" for a, b in edges]
    for v in names:
        parents = [a for a, b in edges if b == v]
        children = subsets(frames[v])
        decay = 0.1 if any(a == v for a, _ in edges) else 0.5
        base = decay ** np.array([c.size - 1.0 for c in children])
        lines.append(f"table {v} | {' '.join(parents)} kind=k")
        for cfg in itertools.product(*(subsets(frames[p]) for p in parents)):
            row = base * (1 + spread * rng.uniform(-1, 1, len(children)))
            row /= row.sum()
            for c, x in zip(children, row):
                left = f"{c} | {' '.join(map(str, cfg))}" if cfg else str(c)
                lines.append(f"  {left} : {float(x)!r}")
        lines.append("end")
    return parse_network("\n".join(lines))


def _assert_exact_if_proper(net):
    """A one-successor network either fails its build naming a node, or builds
    feasible CPTs whose collapsed joint is the combination joint when that is
    proper."""
    try:
        cpts = build_network_cpts(net)
    except InfeasibleModelError as err:
        assert str(err).startswith(tuple(f"node {v}: " for v in net.variables)), err
        return
    for cpt in cpts.values():
        assert check_feasibility(cpt).ok
    joint, report = network_joint(net)
    if report.proper:
        _assert_collapsed_equals_joint(exact_collapsed_joint(net, cpts), joint)


def _assert_collapsed_equals_joint(col, joint):
    # both oracles lay a variable's nonempty subsets along its axis in canonical order
    assert col.frames == joint.frames
    np.testing.assert_allclose(col.array, joint.array, rtol=0, atol=1e-12)


def _joint_marginal(joint, variable, literal) -> float:
    j = joint.scope.index(variable)
    axes = tuple(a for a in range(joint.array.ndim) if a != j)
    return float(joint.array.sum(axis=axes)[subset_index(literal, joint.frames[j])])


class TestCompareEmpirical:
    def test_exact_against_itself(self, sampling_net):
        # a distribution made from the counts themselves: every cell agrees exactly
        counts = generate(sampling_net, 5000, seed=3).collapsed_counts()
        col = exact_collapsed_joint(sampling_net)
        exact = JointMass(col.frames, counts / counts.sum())
        report = compare_empirical(counts, exact, linf_threshold=1e-12)
        assert report.linf == 0.0 and report.passed

    def test_single_modal_record(self, sampling_net):
        exact = exact_collapsed_joint(sampling_net)
        counts = np.zeros(exact.array.shape, dtype=np.int64)
        modal = np.unravel_index(exact.array.argmax(), counts.shape)
        counts[modal] = 1
        report = compare_empirical(counts, exact)
        assert report.linf == pytest.approx(1.0 - exact.array[modal], abs=1e-12)

    @pytest.mark.parametrize(
        "given, shape",
        [
            pytest.param(lambda s: s.collapsed_counts(), r"\(7, 7, 7\)", id="counts"),
            # a Sample is no counts array: it reads as one of shape ()
            pytest.param(lambda s: s, r"\(\)", id="sample"),
        ],
    )
    def test_shape_mismatch_rejected(self, sampling_net, given, shape):
        exact = exact_collapsed_joint(sampling_net)
        counts = given(generate(load("chain3_ternary.dsn"), 5, seed=0))
        shapes = rf"^counts of shape {shape} do not match exact shape \(3, 3, 3, 3\)$"
        with pytest.raises(ValueError, match=shapes):
            compare_empirical(counts, exact)

    def test_empty_counts_rejected(self, sampling_net):
        exact = exact_collapsed_joint(sampling_net)
        with pytest.raises(ValueError, match="^empirical sample is empty$"):
            compare_empirical(np.zeros(exact.array.shape, dtype=np.int64), exact)

    def test_impossible_cell_flagged(self, sampling_net):
        exact = exact_collapsed_joint(sampling_net)
        cells = support(exact)
        modal = max(cells, key=cells.get)
        index = tuple(subsets(f).index(m) for f, m in zip(exact.frames, modal))
        trimmed = JointMass(exact.frames, exact.array.copy())
        trimmed.array[index] = 0.0
        counts = np.zeros(exact.array.shape, dtype=np.int64)
        counts[index] = 5
        report = compare_empirical(counts, trimmed)
        assert report.impossible == [tuple(map(str, modal))] and not report.passed
        assert f"impossible cell observed: ({','.join(map(str, modal))})" in str(report)

    def test_chi_square_degrees_of_freedom(self, sampling_net):
        exact = exact_collapsed_joint(sampling_net)
        counts = generate(sampling_net, 5000, seed=21).collapsed_counts()
        report = compare_empirical(counts, exact)
        assert report.dof == len(support(exact)) - 1
        assert report.chi2 > 0.0

    def test_convergence_schedule(self, sampling_net):
        cpts = build_network_cpts(sampling_net)
        exact = exact_collapsed_joint(sampling_net, cpts)
        for n, bound in ((10**3, 0.05), (10**4, 0.02), (10**5, 0.008)):
            sample = generate(sampling_net, n, seed=T_SEED, cpts=cpts)
            report = compare_empirical(sample.collapsed_counts(), exact, linf_threshold=bound)
            assert report.passed, f"N={n}: linf={report.linf}"


T_SEED = 1234

COND_BLOCK = """table {child} | {parent} kind=m
  {{a}} | {{a}} : 0.16666666666666666
  {{b}} | {{a}} : -0.08333333333333333
  {{a,b}} | {{a}} : -0.08333333333333333
  {{a}} | {{b}} : -0.08333333333333333
  {{b}} | {{b}} : 0.16666666666666666
  {{a,b}} | {{b}} : -0.08333333333333333
  {{a}} | {{a,b}} : 0.35
  {{b}} | {{a,b}} : 0.35
  {{a,b}} | {{a,b}} : 0.3
end
"""


@pytest.mark.parametrize("seed", range(6))
def test_random_tree_pipeline(seed):
    """Sampler agrees with the exhaustive oracle on random tree shapes."""
    import random

    rnd = random.Random(seed)
    n = rnd.randint(3, 5)
    names = [f"V{i}" for i in range(n)]
    lines = [f"var {v} : a b" for v in names]
    parents = {names[i]: names[rnd.randint(0, i - 1)] for i in range(1, n)}
    lines += [f"edge {p} -> {c}" for c, p in parents.items()]
    lines += [
        "table V0 | kind=m", "  {a} : 0.4", "  {b} : 0.4", "  {a,b} : 0.2", "end",
    ]
    lines += [COND_BLOCK.format(child=c, parent=p) for c, p in parents.items()]
    net = parse_network("\n".join(lines))
    cpts = build_network_cpts(net)
    exact = exact_collapsed_joint(net, cpts)
    assert exact.array.sum() == pytest.approx(1.0, abs=1e-9)
    sample = generate(net, 20000, seed=seed)
    report = compare_empirical(sample.collapsed_counts(), exact, linf_threshold=0.02)
    assert report.passed, f"tree seed {seed}: linf={report.linf}"
