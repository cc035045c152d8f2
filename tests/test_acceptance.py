"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from belnet import (
    InfeasibleModelError,
    build_network_cpts,
    check_feasibility,
    commonality_to_mass,
    compare_empirical,
    exact_collapsed_joint,
    generate,
    mass_to_commonality,
    network_joint,
)
from belnet.cli import main as cli_main

from conftest import child_values, cpt_row, fixture_path, joint_cell, load, mask, table_cell


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL - {desc}")
        raise
    print(f"\nACCEPTANCE {num:02d} PASS - {desc}")


@contextmanager
def budget(seconds: float):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"runtime {elapsed:.2f}s exceeds {seconds}s budget"


def test_c01_commonality_golden(loose_cond):
    printed = {
        ("{a}", "{a}"): 0.516667, ("{a}", "{b}"): 0.266667, ("{a}", "{a,b}"): 0.216667,
        ("{b}", "{a}"): 0.266667, ("{b}", "{b}"): 0.516667, ("{b}", "{a,b}"): 0.216667,
        ("{a,b}", "{a}"): 0.35, ("{a,b}", "{b}"): 0.35, ("{a,b}", "{a,b}"): 0.3,
    }
    with criterion(1, "mass-to-commonality reproduces all 9 printed entries (abs 1e-6)"):
        with budget(1.0):
            k = mass_to_commonality(loose_cond)
            parent, child = loose_cond.parent_frames[0], loose_cond.child_frame
            for (cfg_lit, ch_lit), want in printed.items():
                got = table_cell(k, (mask(parent, cfg_lit),), mask(child, ch_lit))
                assert got == pytest.approx(want, abs=1e-6), (cfg_lit, ch_lit)


def test_c02_cpt_golden(loose_cond):
    # every readable printed cell of the one-successor table
    printed = {
        ("{a}", "{a}"): 0.3, ("{a}", "{a}@"): 0.216667, ("{a}", "{b}"): 0.05,
        ("{a}", "{b}@"): 0.216667, ("{a}", "{a,b}"): 0.216667,
        ("{b}", "{a}"): 0.05, ("{b}", "{a}@"): 0.216667, ("{b}", "{b}"): 0.3,
        ("{b}", "{b}@"): 0.216667, ("{b}", "{a,b}"): 0.216667,
        ("{a,b}", "{a}"): 0.05, ("{a,b}", "{a}@"): 0.3, ("{a,b}", "{b}"): 0.05,
        ("{a,b}", "{b}@"): 0.3, ("{a,b}", "{a,b}"): 0.3,
        ("{a}o{a,b}", "{a}"): 0.05,
        ("{b}o{a,b}", "{a}"): 0.05, ("{b}o{a,b}", "{a,b}"): 0.3,
        ("{a}@{a,b}", "{a}"): 0.55, ("{a}@{a,b}", "{a}@"): 0.133333,
        ("{a}@{a,b}", "{b}"): 0.05, ("{a}@{a,b}", "{b}@"): 0.133333,
        ("{a}@{a,b}", "{a,b}"): 0.133333,
        ("{b}@{a,b}", "{a}"): 0.05, ("{b}@{a,b}", "{a}@"): 0.133333,
        ("{b}@{a,b}", "{b}"): 0.55, ("{b}@{a,b}", "{b}@"): 0.133333,
        ("{b}@{a,b}", "{a,b}"): 0.133333,
    }
    with criterion(2, "one-successor CPT reproduces all printed cells (abs 1e-6)"):
        with budget(1.0):
            from belnet import build_node_cpt

            cpt = build_node_cpt("X2", mass_to_commonality(loose_cond), 1)
            child = loose_cond.child_frame

            def cell(cfg_lit, ch_lit):
                if ch_lit.endswith("@"):
                    own = mask(child, ch_lit[:-1])
                    col = next(
                        i for i, x in enumerate(child_values(cpt))
                        if not x.is_plain and x.own == own
                    )
                else:
                    own = mask(child, ch_lit)
                    col = next(
                        i for i, x in enumerate(child_values(cpt))
                        if x.is_plain and x.own == own
                    )
                return float(cpt_row(cpt, (cfg_lit,))[col])

            assert len(printed) >= 25
            for (cfg_lit, ch_lit), want in printed.items():
                assert cell(cfg_lit, ch_lit) == pytest.approx(want, abs=1e-6), (cfg_lit, ch_lit)


def test_c03_chain_negative_joint():
    with criterion(3, "4-chain joint reproduces the printed negative-mass entries (rel 1e-4)"):
        with budget(1.0):
            net = load("chain4_negjoint.dsn")
            joint, _ = network_joint(net)
            for lits, want in (
                (("{a}", "{b}", "{a}", "{a}"), 9.40444e-05),
                (("{a}", "{b}", "{a}", "{b}"), -2.91556e-05),
                (("{a}", "{b}", "{a}", "{a,b}"), -3.82222e-05),
            ):
                assert joint_cell(joint, *lits) == pytest.approx(want, rel=1e-4)


def test_c04_star_negative_joint():
    with criterion(4, "5-star joint reproduces the printed negative-mass entries (rel 1e-4)"):
        with budget(5.0):
            net = load("star5_negjoint.dsn")
            joint, _ = network_joint(net)
            assert joint_cell(joint, "{a}", "{b}", "{b}", "{a,b}", "{a}") == pytest.approx(
                0.0022038, rel=1e-4
            )
            assert joint_cell(joint, "{a}", "{b}", "{b}", "{b}", "{a,b}") == pytest.approx(
                -0.000107315, rel=1e-4
            )
            assert joint_cell(joint, "{a}", "{b}", "{b}", "{a,b}", "{b}") == pytest.approx(
                -0.000107315, rel=1e-4
            )


def test_c05_proper_compositions():
    with criterion(5, "3-chain and 4-star joints are proper (every entry >= -1e-12)"):
        for fixture in ("chain3_proper.dsn", "star4_proper.dsn"):
            joint, report = network_joint(load(fixture))
            assert joint.array.min() >= -1e-12
            assert report.proper


def test_c06_feasibility_pair():
    with criterion(6, "5-star CPTs succeed; 4-chain fails naming the -0.06 row"):
        star = build_network_cpts(load("star5_negjoint.dsn"))
        assert all(cpt.probs.min() >= 0.0 for cpt in star.values())
        fam = [
            i for i, x in enumerate(child_values(star["X1"]))
            if not x.is_plain and str(x.own) == "{a}"
        ]
        assert cpt_row(star["X1"])[fam] == pytest.approx([0.2 / 15] * 15, abs=1e-12)
        with pytest.raises(InfeasibleModelError, match=r"P\(\{b\}\|\{a\}\) = -0\.06"):
            build_network_cpts(load("chain4_negjoint.dsn"))


def test_c07_roundtrip_property():
    with criterion(7, "mass<->commonality roundtrip <= 1e-12 on 120 random tables"):
        from belnet import CondTable, Frame

        rng = np.random.default_rng(2024)
        checked = 0
        letters = ("a", "b", "c")
        for _ in range(120):
            n_parents = int(rng.integers(1, 3))
            sizes = rng.integers(2, 4, size=n_parents + 1)
            child = Frame("C", letters[: sizes[0]])
            parents = tuple(Frame(f"P{i}", letters[: s]) for i, s in enumerate(sizes[1:]))
            rows = int(np.prod([2 ** len(p) - 1 for p in parents]))
            k_vals = rng.uniform(0.0, 1.0, size=(rows, 2 ** len(child) - 1))
            k = CondTable(child, parents, k_vals, "k")
            t = commonality_to_mass(k)  # a valid mass table by construction
            back = commonality_to_mass(mass_to_commonality(t))
            assert np.abs(back.values - t.values).max() <= 1e-12
            checked += 1
        assert checked >= 100


def test_c08_sampling_correctness(sampling_net):
    with criterion(8, "200k-record chain sample matches the exact distribution (L-inf <= 0.005)"):
        cpts = build_network_cpts(sampling_net)
        with budget(10.0):
            n = 200_000
            sample = generate(sampling_net, n, seed=7, cpts=cpts)
            exact = exact_collapsed_joint(sampling_net, cpts)
            report = compare_empirical(sample, exact, linf_threshold=0.005)
            assert report.passed, f"linf={report.linf}"
            counts = sample.collapsed_counts()
            # X1's marginal over {a}, {b}, {a,b}
            freqs = counts.sum(axis=tuple(range(1, counts.ndim))) / n
            assert freqs == pytest.approx([0.4, 0.4, 0.2], abs=0.005)


def test_c09_rule_identity_suite():
    with criterion(9, "identity suite holds on every constructed CPT"):
        for fixture in (
            "chain4_sampling.dsn",
            "star5_negjoint.dsn",
            "star4_proper.dsn",
            "collider3.dsn",
            "chain3_ternary.dsn",
            "vacuous1.dsn",
        ):
            net = load(fixture)
            for name, cpt in build_network_cpts(net).items():
                report = check_feasibility(cpt)
                assert report.ok, f"{fixture}:{name}: {report}"
                assert np.allclose(cpt.probs.sum(axis=1), 1.0, atol=1e-9)


def test_c10_cli_determinism(tmp_path, capsys):
    with criterion(10, "identical sample invocations are byte-identical"):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for dest in (a, b):
            code = cli_main(
                ["sample", fixture_path("chain4_sampling.dsn"),
                 "-n", "50000", "--seed", "99", "-o", str(dest)]
            )
            assert code == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
