"""Command-line driver: subcommands, exit codes, output formats."""

import csv
import hashlib
import io

import numpy as np
import pytest

from belnet import (
    Frame,
    ValidationReport,
    build_network_cpts,
    check_feasibility,
    load_network,
    mass_to_commonality,
    validate_structure,
)
import belnet.cli as cli_mod
import belnet.cpt as cpt_mod
import belnet.extvals as extvals_mod
from belnet.cli import main
from belnet.cpt import guard_value_rows

from conftest import FIXTURES, fixture_path, subsets, ternary_collider


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# X3's parents X1 and X2 are joined by an edge
CONNECTED_PARENTS = (
    "var X1 : a b\nvar X2 : a b\nvar X3 : a b\n"
    "edge X1 -> X2\nedge X1 -> X3\nedge X2 -> X3\n"
    "table X1 | kind=m\n  {a,b} : 1\nend\n"
    "table X2 | X1 kind=m\n  {a,b} | {a,b} : 1\nend\n"
    "table X3 | X1 X2 kind=m\n  {a,b} | {a,b} {a,b} : 1\nend\n"
)


class TestValidate:
    def test_valid_network(self, capsys):
        code, out, _ = run(capsys, "validate", fixture_path("chain4_sampling.dsn"))
        assert code == 0 and "ok" in out

    @pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.dsn")))
    def test_fails_exactly_when_cpt_does(self, capsys, fixture):
        # validate runs the construction stage: same exit code, same first stderr line
        cpt_code, _, cpt_err = run(capsys, "cpt", fixture_path(fixture))
        code, out, err = run(capsys, "validate", fixture_path(fixture))
        assert (code == 0) == (cpt_code == 0)
        if cpt_code:
            assert code == cpt_code and err.splitlines()[0] == cpt_err.splitlines()[0]
        else:
            assert out == "ok\n"

    @pytest.mark.parametrize("label", ["a,b", "{a}", "a}", "a|b", "a;b", "[a", "a]", "a:b", ":"])
    def test_label_of_literal_syntax_exits_1(self, capsys, tmp_path, label):
        # "var X : a b a,b" would give two subsets that both print as {a,b}
        bad = tmp_path / "bad.dsn"
        bad.write_text(f"net n\nvar X : a b {label}\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1 and err.startswith(f"error: line 2: value label {label!r} ")

    @pytest.mark.parametrize("name", ["A|B", "A B", "A->B"])
    def test_unreferable_variable_name_exits_1_at_its_var_line(self, capsys, tmp_path, name):
        # a table header or an edge line could not name it; accepted, "var A|B" would
        # fail only at "table A|B | kind=m", as "line 3: undeclared variable 'A'"
        bad = tmp_path / "bad.dsn"
        bad.write_text(f"net n\nvar {name} : a b\ntable {name} | kind=m\n  {{a,b}} : 1\nend\n")
        code, _, err = run(capsys, "validate", str(bad))
        want = f"error: line 2: variable name {name!r} holds whitespace, '|' or '->'\n"
        assert code == 1 and err == want

    def test_table_is_a_whole_word(self, capsys, tmp_path):
        bad = tmp_path / "bad.dsn"
        bad.write_text("var X : a b\ntableX | kind=m\n  {a,b} : 1\nend\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1 and err == "error: line 2: unrecognized directive 'tableX'\n"

    @pytest.mark.parametrize(
        "text, lines, infeasible",
        [
            (
                "var X1 : a b\ntable X1 | kind=m\n  {a} : 1.2\n  {b} : -0.2\nend\n",
                ["error: X1: negative value -0.2 at (() ; {b})"],
                "node X1: negative commonality -0.2 at (() ; {b})",
            ),
            (
                # mass rows {a}: 0.3 and {a,b}: 1 cumulate to a commonality row of 1.3
                "var X1 : a b\nvar X2 : a b\nedge X1 -> X2\n"
                "table X1 | kind=m\n  {a} : 0.4\n  {b} : 0.4\n  {a,b} : 0.2\nend\n"
                "table X2 | X1 kind=m\n  {a} | {a} : 0.3\n"
                "  {a} | {a,b} : 0.5\n  {b} | {a,b} : 0.5\nend\n",
                [
                    "error: X2: row {a} sums to 1.300000000, expected 1",
                    "warning: X2: mass row {a} sums to 0.300000000, convention expects 0",
                ],
                "node X2: commonality row {a} sums to 1.300000000, expected 1",
            ),
        ],
        ids=["negative", "row_sum"],
    )
    def test_mass_table_checked_in_commonality_form(
        self, capsys, tmp_path, text, lines, infeasible
    ):
        # validate names the node, row and cell the build rejects
        bad = tmp_path / "bad.dsn"
        bad.write_text(text)
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 3 and out == "\n".join(lines) + "\n"
        code, _, err = run(capsys, "cpt", str(bad))
        assert code == 2 and err == f"infeasible: {infeasible}\n"

    def test_structure_violation_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.dsn"
        bad.write_text(CONNECTED_PARENTS)
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 3 and "directly connected" in out

    def test_parse_error_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "broken.dsn"
        bad.write_text("var X1 : a b\nedge X1 -> X9\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1 and "line 2" in err

    def test_non_finite_value_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "nan.dsn"
        bad.write_text("var X1 : a b\ntable X1 | kind=m\n  {a} : nan\n  {b} : 1\nend\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1 and "line 3: non-finite value 'nan'" in err

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent/net.dsn")
        assert code == 1


@pytest.mark.parametrize(
    "argv", [["validate"], ["joint"], ["cpt"], ["sample", "-n", "10"], ["verify", "-n", "10"]],
    ids=lambda a: a[0],
)
def test_network_without_variables_exits_1(capsys, tmp_path, argv):
    empty = tmp_path / "e.dsn"
    empty.write_text("net e\n")
    code, out, err = run(capsys, argv[0], str(empty), *argv[1:])
    assert (code, out, err) == (1, "", "error: no variables\n")


# a ternary root under a binary child whose mass table leaves the joint improper
NEGATIVE_TERNARY = (
    "var X1 : a b c\nvar X2 : a b\nedge X1 -> X2\n"
    "table X1 | kind=m\n  {a} : 0.3\n  {b} : 0.2\n  {c} : 0.2\n  {a,b} : 0.1\n"
    "  {a,c} : 0.1\n  {b,c} : 0.05\n  {a,b,c} : 0.05\nend\n"
    "table X2 | X1 kind=m\n"
    "  {a} | {a} : 0.1\n  {b} | {a} : -0.3\n  {a,b} | {a} : 0.2\n"
    "  {b} | {b} : -0.3\n  {a,b} | {b} : 0.3\n"
    "  {a} | {c} : 0.2\n  {b} | {c} : -0.2\n"
    "  {a} | {a,b} : -0.3\n  {a,b} | {a,b} : 0.3\n"
    "  {a} | {a,b,c} : 0.3\n  {b} | {a,b,c} : 0.3\n  {a,b} | {a,b,c} : 0.4\nend\n"
)


class TestJoint:
    def test_csv_and_report(self, capsys):
        code, out, err = run(capsys, "joint", fixture_path("chain4_negjoint.dsn"))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["X1", "X2", "X3", "X4", "mass"]
        assert len(rows) == 1 + 81
        literals = [tuple(r[:4]) for r in rows[1:]]
        assert literals == sorted(literals)
        assert "below" in err and "empty-intersection mass" in err

    def test_negative_entry_printed(self, capsys):
        code, out, err = run(capsys, "joint", fixture_path("chain4_negjoint.dsn"))
        assert "-0.000029156" in out

    def test_zero_figures_print_unsigned(self, capsys):
        # the empty-intersection mass is a rounding residue of -2.2e-16 here
        code, _, err = run(capsys, "joint", fixture_path("chain4_sampling.dsn"))
        assert code == 0
        assert err.splitlines() == [
            "focal elements below -1e-12: 0",
            "minimum entry: 0.002113889",
            "total nonempty mass: 1.000000000",
            "empty-intersection mass: 0.000000000",
        ]

    def test_negative_cells_listed_in_subset_bit_order(self, capsys, tmp_path):
        # X1 = {a,b} (bits 3) is listed before X1 = {c} (bits 4), though {c} comes
        # first in the joint's axis order
        net = tmp_path / "neg.dsn"
        net.write_text(NEGATIVE_TERNARY)
        code, _, err = run(capsys, "joint", str(net), "-o", str(tmp_path / "joint.csv"))
        assert code == 0
        assert err.splitlines() == [
            "focal elements below -1e-12: 5",
            "minimum entry: -0.075000000",
            "total nonempty mass: 1.000000000",
            "empty-intersection mass: 0.000000000",
            "  ({a},{b}) : -0.075000000",
            "  ({b},{a}) : -0.015000000",
            "  ({b},{b}) : -0.060000000",
            "  ({a,b},{a}) : -0.015000000",
            "  ({c},{b}) : -0.020000000",
        ]

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "joint.csv"
        code, _, _ = run(capsys, "joint", fixture_path("star5_negjoint.dsn"), "-o", str(dest))
        assert code == 0 and dest.read_text().startswith("X1,X2,X3,X4,X5,mass\n")


class TestTransform:
    def test_roundtrip_through_file(self, capsys, tmp_path):
        dest = tmp_path / "as_k.dsn"
        code, _, _ = run(
            capsys, "transform", fixture_path("chain4_sampling.dsn"), "--to", "k", "-o", str(dest)
        )
        assert code == 0
        converted = load_network(str(dest))
        original = load_network(fixture_path("chain4_sampling.dsn"))
        for name in original.variables:
            want = original.node(name).table
            if want.kind == "m":
                want = mass_to_commonality(want)
            got = converted.node(name).table
            assert got.kind == "k"
            assert np.array_equal(got.values, want.values)

    def test_to_mass_is_identity_on_mass_input(self, capsys, tmp_path):
        dest = tmp_path / "as_m.dsn"
        code, _, _ = run(
            capsys, "transform", fixture_path("chain4_sampling.dsn"), "--to", "m", "-o", str(dest)
        )
        assert code == 0
        converted = load_network(str(dest))
        original = load_network(fixture_path("chain4_sampling.dsn"))
        for name in original.variables:
            assert np.array_equal(
                converted.node(name).table.values, original.node(name).table.values
            )

    @pytest.mark.parametrize("kind", ["k", "m"])
    @pytest.mark.parametrize(
        "fixture", ["chain4_sampling.dsn", "star4_proper.dsn", "star5_negjoint.dsn"]
    )
    def test_output_builds_cpts(self, capsys, tmp_path, fixture, kind):
        # written values parse back exactly, so commonality rows still sum to one
        dest = tmp_path / f"as_{kind}.dsn"
        code, _, _ = run(capsys, "transform", fixture_path(fixture), "--to", kind, "-o", str(dest))
        assert code == 0
        code, _, err = run(capsys, "cpt", str(dest))
        assert code == 0 and err == ""


class TestCpt:
    def test_infeasible_exits_2_with_named_row(self, capsys):
        code, _, err = run(capsys, "cpt", fixture_path("chain4_negjoint.dsn"))
        assert code == 2
        assert "P({b}|{a}) = -0.06" in err

    def test_dump_contains_all_nodes(self, capsys):
        code, out, _ = run(capsys, "cpt", fixture_path("chain4_sampling.dsn"))
        assert code == 0
        for name in ("X1", "X2", "X3", "X4"):
            assert f"# node {name}" in out
        assert "{a}@{a,b}" in out
        # 9 decimal digits
        assert "0.216666667" in out

    def test_dump_of_rows_read_across_blocks(self, capsys, tmp_path):
        # 625 CPT rows of C behind 3,025 value rows: 21,175 cells, more than one block
        net, dest = tmp_path / "net.dsn", tmp_path / "dump.csv"
        net.write_text(ternary_collider(2, 0.01))
        assert run(capsys, "cpt", str(net), "-o", str(dest)) == (0, "", "")
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == (
            "c1a4e6101478fea8d50490c94be239790b21798486d9055305fdd462af624c2b"
        )

    def test_structure_violation_blocks_cpt(self, capsys, tmp_path):
        bad = tmp_path / "bad.dsn"
        bad.write_text(CONNECTED_PARENTS)
        code, _, err = run(capsys, "cpt", str(bad))
        assert code == 3


# a root row of three 0.3333333 cells sums to 1 - 1e-7: within 1e-6 of one, not 1e-9
SHORT_ROOT_ROW = (
    "var X1 : a b\ntable X1 | kind=k\n"
    "  {a} : 0.3333333\n  {b} : 0.3333333\n  {a,b} : 0.3333333\nend\n"
)


@pytest.mark.parametrize(
    "argv", [["validate"], ["cpt"], ["sample", "-n", "10"], ["verify", "-n", "100000"]],
    ids=lambda a: a[0],
)
def test_short_row_refused_by_every_command(capsys, tmp_path, argv):
    # a given table's rows are held to the tolerance of the built CPT's rows
    bad = tmp_path / "short.dsn"
    bad.write_text(SHORT_ROOT_ROW)
    code, out, err = run(capsys, argv[0], str(bad), *argv[1:])
    if argv[0] == "validate":
        assert (code, out, err) == (3, "error: X1: row () sums to 0.999999900, expected 1\n", "")
    else:
        row = "node X1: commonality row () sums to 0.999999900, expected 1"
        assert (code, out, err) == (2, "", f"infeasible: {row}\n")


@pytest.mark.parametrize(
    "argv", [["cpt"], ["sample", "-n", "10"], ["verify", "-n", "10", "--linf", "1"]],
    ids=lambda a: a[0],
)
class TestBuildCommands:
    """Every command that builds CPTs checks the model contracts in the build."""

    def test_connected_parents_exit_3(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.dsn"
        bad.write_text(CONNECTED_PARENTS)
        code, out, err = run(capsys, argv[0], str(bad), *argv[1:])
        assert code == 3 and out == ""
        assert err == "error: parents 'X1' and 'X2' of 'X3' are directly connected\n"

    def test_structure_checked_once(self, capsys, monkeypatch, argv):
        calls = []

        def counted(net):
            calls.append(net.name)
            return validate_structure(net)

        for module in (cli_mod, cpt_mod):
            monkeypatch.setattr(module, "validate_structure", counted, raising=False)
        code, _, _ = run(capsys, argv[0], fixture_path("chain4_sampling.dsn"), *argv[1:])
        assert code == 0 and calls == ["chain4_sampling"]

    def test_negative_commonality_exits_2_naming_the_cell(self, capsys, tmp_path, argv):
        bad = tmp_path / "negative.dsn"
        bad.write_text(
            "var X1 : a b\nvar X2 : a b\nedge X1 -> X2\n"
            "table X1 | kind=k\n  {a} : 0.5\n  {b} : 0.3\n  {a,b} : 0.2\nend\n"
            "table X2 | X1 kind=k\n  {a} | {a} : 0.6\n  {b} | {a} : -0.1\n"
            "  {a,b} | {a} : 0.5\n  {a} | {b} : 0.6\n  {b} | {b} : 0.4\n"
            "  {a} | {a,b} : 0.6\n  {b} | {a,b} : 0.4\nend\n"
        )
        code, out, err = run(capsys, argv[0], str(bad), *argv[1:])
        assert code == 2 and out == ""
        assert err == "infeasible: node X2: negative commonality -0.1 at ({a} ; {b})\n"

    def test_mass_table_negative_commonality_names_node_and_cell(self, capsys, tmp_path, argv):
        bad = tmp_path / "negative.dsn"
        bad.write_text("var X1 : a b\ntable X1 | kind=m\n  {a} : 1.2\n  {b} : -0.2\nend\n")
        code, out, err = run(capsys, argv[0], str(bad), *argv[1:])
        assert code == 2 and out == ""
        assert err == "infeasible: node X1: negative commonality -0.2 at (() ; {b})\n"


class TestSample:
    def test_csv_line_count(self, capsys, tmp_path):
        dest = tmp_path / "s.csv"
        code, _, _ = run(
            capsys, "sample", fixture_path("star5_negjoint.dsn"),
            "-n", "10", "--seed", "1", "-o", str(dest),
        )
        assert code == 0
        lines = dest.read_text().split("\n")
        assert len(lines) == 12 and lines[0] == "X1,X2,X3,X4,X5" and lines[11] == ""

    def test_identical_invocations_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for dest in (a, b):
            code, _, _ = run(
                capsys, "sample", fixture_path("chain4_sampling.dsn"),
                "-n", "2000", "--seed", "42", "-o", str(dest),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_model_exits_2(self, capsys):
        code, _, err = run(
            capsys, "sample", fixture_path("chain4_negjoint.dsn"), "-n", "5"
        )
        assert code == 2 and "infeasible" in err

    def test_short_commonality_row_exits_2(self, capsys, tmp_path):
        half = tmp_path / "half.dsn"
        half.write_text("var X1 : a b\ntable X1 | kind=k\n  {a} : 0.25\n  {b} : 0.25\nend\n")
        code, out, err = run(capsys, "sample", str(half), "-n", "10")
        assert code == 2 and out == ""
        assert "node X1: commonality row () sums to 0.5" in err

    def test_bad_count_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["sample", fixture_path("chain4_sampling.dsn"), "-n", "-5"])
        assert exit_.value.code == 1 and "count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "exc, line",
        [
            (
                MemoryError("Unable to allocate 8.00 EiB"),
                "error: out of memory: Unable to allocate 8.00 EiB\n",
            ),
            (MemoryError(), "error: out of memory\n"),
        ],
    )
    def test_memory_error_exits_1(self, capsys, monkeypatch, exc, line):
        def generate(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli_mod, "generate", generate)
        code, out, err = run(capsys, "sample", fixture_path("chain4_sampling.dsn"), "-n", "10")
        assert code == 1 and out == "" and err == line

    def test_stdout_output(self, capsys):
        code, out, _ = run(
            capsys, "sample", fixture_path("vacuous1.dsn"), "-n", "3", "--seed", "0"
        )
        assert code == 0
        assert out == 'X1\n"{a,b}"\n"{a,b}"\n"{a,b}"\n'


class TestVerify:
    def test_pass_exits_0(self, capsys):
        code, out, _ = run(
            capsys, "verify", fixture_path("chain4_sampling.dsn"),
            "-n", "20000", "--seed", "2", "--linf", "0.02",
        )
        assert code == 0
        assert "result: PASS" in out
        assert "chi-square" in out

    def test_fail_exits_3(self, capsys):
        code, out, _ = run(
            capsys, "verify", fixture_path("chain4_sampling.dsn"),
            "-n", "100", "--seed", "2", "--linf", "1e-9",
        )
        assert code == 3 and "result: FAIL" in out

    def test_infeasible_exits_2(self, capsys):
        code, _, _ = run(
            capsys, "verify", fixture_path("vacuous3.dsn"), "-n", "10"
        )
        assert code == 2

    def test_six_node_chain_verifies(self, capsys, tmp_path):
        # 200,404,057 extended states, for a collapsed joint of 7^6 cells
        code, out, _ = run(capsys, "verify", _ternary_chain(tmp_path, 6), "-n", "20000")
        assert code == 0 and out.endswith("result: PASS\n")

    def test_oversized_model_refused_before_drawing(self, capsys, monkeypatch, tmp_path):
        def generate(*args, **kwargs):
            raise AssertionError("drew a sample for a model it cannot verify")

        monkeypatch.setattr(cli_mod, "generate", generate)
        code, out, err = run(capsys, "verify", _ternary_chain(tmp_path, 9), "-n", "2000000")
        assert code == 1 and out == ""
        assert err == "error: collapsed state space holds 40353607 states (limit 10000000)\n"

    @pytest.mark.parametrize(
        "fixture, lines",
        [
            (
                "chain3_ternary.dsn",
                [
                    "records: 20000",
                    "cells (exact support): 343",
                    "L-infinity distance: 0.002330000 (threshold 0.010000000)",
                    "chi-square: 348.600031 on 342 degrees of freedom",
                    "result: PASS",
                ],
            ),
            (
                "star4_proper.dsn",
                [
                    "records: 20000",
                    "cells (exact support): 81",
                    "L-infinity distance: 0.002034127 (threshold 0.010000000)",
                    "chi-square: 76.874746 on 80 degrees of freedom",
                    "result: PASS",
                ],
            ),
        ],
    )
    def test_report_text(self, capsys, fixture, lines):
        code, out, err = run(
            capsys, "verify", fixture_path(fixture), "-n", "20000", "--seed", "1"
        )
        assert code == 0 and err == ""
        assert out == "\n".join(lines) + "\n"


# X2's mass row given {a,b} has a negative commonality, found after X1 converts
NEGATIVE_SECOND_TABLE = (
    "var X1 : a b\nvar X2 : a b\nedge X1 -> X2\n"
    "table X1 | kind=m\n  {a} : 0.5\n  {b} : 0.5\nend\n"
    "table X2 | X1 kind=m\n  {a} | {a,b} : 1.2\n  {b} | {a,b} : -0.2\nend\n"
)
# six 4-value variables: a combination joint of 16^6 cells, beyond MAX_CELLS = 2^23
SIX_QUATERNARY = "".join(f"var X{i} : a b c d\n" for i in range(1, 7)) + "".join(
    f"table X{i} | kind=m\n  {{a,b,c,d}} : 1\nend\n" for i in range(1, 7)
)


def _one_failed_check(cpt):
    return ValidationReport(errors=[f"node {cpt.node}: a failed check"])


@pytest.mark.parametrize(
    "argv, text, code, check",
    [
        (["sample", "-n", "10"], (FIXTURES / "vacuous3.dsn").read_text(), 2, None),
        (["cpt"], (FIXTURES / "vacuous3.dsn").read_text(), 2, None),
        (["cpt"], (FIXTURES / "chain4_sampling.dsn").read_text(), 3, _one_failed_check),
        (["transform", "--to", "k"], NEGATIVE_SECOND_TABLE, 2, None),
        (["joint"], SIX_QUATERNARY, 1, None),
    ],
    ids=["sample", "cpt", "cpt-check", "transform", "joint"],
)
def test_refusal_creates_no_output(capsys, monkeypatch, tmp_path, argv, text, code, check):
    # every -o command builds and checks all it writes before it opens the output file
    if check is not None:
        monkeypatch.setattr(cli_mod, "check_feasibility", check)
    net, dest = tmp_path / "net.dsn", tmp_path / "out"
    net.write_text(text)
    got, out, err = run(capsys, argv[0], str(net), *argv[1:], "-o", str(dest))
    assert (got, out) == (code, "") and err and not dest.exists()


class TestWideLeaf:
    """A ternary leaf under four ternary roots: 25^4 * 7 cells, one row per
    combination of parent derivations, against 55^4 * 7 per parent value."""

    def test_builds_samples_and_verifies(self, capsys, tmp_path):
        net = tmp_path / "net.dsn"
        net.write_text(ternary_collider(4, 0.001))
        assert run(capsys, "validate", str(net)) == (0, "ok\n", "")
        code, out, _ = run(capsys, "sample", str(net), "-n", "1000")
        assert code == 0 and len(out.splitlines()) == 1001
        code, out, _ = run(capsys, "verify", str(net), "-n", "100000")
        assert code == 0 and out.endswith("result: PASS\n")

    def test_dump_refused_by_the_per_value_guard(self, capsys, tmp_path):
        net, dest = tmp_path / "net.dsn", tmp_path / "out"
        net.write_text(ternary_collider(4, 0.001))
        code, out, err = run(capsys, "cpt", str(net), "-o", str(dest))
        assert (code, out) == (1, "") and not dest.exists()
        assert err == "error: node C: extended CPT would hold 64054375 cells (limit 10000000)\n"

    @pytest.mark.parametrize(
        "argv", [["validate"], ["cpt"], ["sample", "-n", "10"], ["verify", "-n", "10"]]
    )
    def test_infeasible_row_named(self, capsys, tmp_path, argv):
        # per_slice_probs (tests/test_cpt.py) names this row too; at 55^4 * 7 cells it is
        # too large to run in the suite
        net = tmp_path / "net.dsn"
        net.write_text(ternary_collider(4, 0.01))
        code, out, err = run(capsys, argv[0], str(net), *argv[1:])
        assert (code, out) == (2, "")
        assert err == (
            "infeasible: node C: P({a,b,c}|{a}@{a,b} {a}@{a,b}@{a,b,c} {c}@{a,c}@{a,b,c} "
            "{a}@{a,b}@{a,b,c}) = -0.00248283 is negative\n"
        )


def quaternary_star() -> str:
    """``.dsn`` text of a quaternary root R (``kind=k``, a cell shrinking by
    0.05 per extra member) feeding six binary leaves, every leaf row
    0.45/0.45/0.1: R has 16,773 extended vectors."""
    literals = [str(s) for s in subsets(Frame("R", tuple("abcd")))]
    weights = [0.05 ** s.count(",") for s in literals]
    leaf = [f"L{j}" for j in range(1, 7)]
    lines = ["net qstar", "var R : a b c d", *(f"var {v} : a b" for v in leaf)]
    lines += [f"edge R -> {v}" for v in leaf] + ["table R | kind=k"]
    lines += [f"  {s} : {w / sum(weights)!r}" for s, w in zip(literals, weights)] + ["end"]
    for v in leaf:
        lines.append(f"table {v} | R kind=k")
        for s in literals:
            lines += [f"  {{a}} | {s} : 0.45", f"  {{b}} | {s} : 0.45", f"  {{a,b}} | {s} : 0.1"]
        lines.append("end")
    return "\n".join(lines) + "\n"


@pytest.fixture
def literal_calls():
    """Empties the caches of the two literal functions; returns a function
    giving the calls into each since, by name, from whichever module."""
    caches = {"value_literals": extvals_mod._value_literals,
              "vector_literals": extvals_mod._vector_literals}
    for cache in caches.values():
        cache.cache_clear()
    return lambda: {name: sum(cache.cache_info()[:2]) for name, cache in caches.items()}


class TestValueObjects:
    """The domains' values are printed as literals, built only for text that is printed."""

    # sha256 of `belnet cpt -o FILE`, pinned while every CPT still stored its value objects
    DUMP_DIGESTS = {
        "chain4_sampling": "873d8d58dff3bc7685c7c3b2e4a357ad4c1f2ecbac830a366f551c8356443881",
        "star4_proper": "4d7f976eb3685f491a216c31f01d0ec9802eaefc2a0d854c445e6360e6523627",
        "quaternary_star": "debe91ef0ee94072de42f6b2728faf974065888330327b4b29077f5d22b8ec1f",
    }

    @pytest.mark.parametrize("name", sorted(DUMP_DIGESTS))
    def test_only_printed_text_builds_value_objects(self, name, literal_calls, capsys, tmp_path):
        path = tmp_path / f"{name}.dsn"
        if name == "quaternary_star":
            path.write_text(quaternary_star())
        else:
            path = fixture_path(f"{name}.dsn")
        # at 2000 records, a sampling error of 0.01 is common: the gate is not what is tested
        verify = ["verify", "-n", "2000", "--linf", "0.05"]
        for argv in (["validate"], ["sample", "-n", "2000"], verify):
            assert main([argv[0], str(path), *argv[1:]]) == 0
        capsys.readouterr()
        for cpt in build_network_cpts(load_network(str(path))).values():  # `cpt`'s check
            assert check_feasibility(cpt).ok
            guard_value_rows(cpt)
        assert literal_calls() == {"value_literals": 0, "vector_literals": 0}
        # the dump prints the values, and its text is what it was
        dest = tmp_path / "dump.csv"
        assert main(["cpt", str(path), "-o", str(dest)]) == 0
        assert all(calls > 0 for calls in literal_calls().values())
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == self.DUMP_DIGESTS[name]


def _ternary_chain(tmp_path, k: int) -> str:
    """chain3_ternary grown to ``k`` nodes, every link its X1 -> X2 table."""
    lines = open(fixture_path("chain3_ternary.dsn")).read().splitlines()
    root = lines[lines.index("table X1 | kind=k") : lines.index("table X2 | X1 kind=k")]
    link = lines[lines.index("table X2 | X1 kind=k") + 1 : lines.index("table X3 | X2 kind=k")]
    text = [f"var X{i} : a b c" for i in range(1, k + 1)]
    text += [f"edge X{i} -> X{i + 1}" for i in range(1, k)] + root
    for i in range(2, k + 1):
        text += [f"table X{i} | X{i - 1} kind=k"] + link
    path = tmp_path / f"chain{k}.dsn"
    path.write_text("\n".join(text) + "\n")
    return str(path)


class TestUsageErrors:
    """A usage error exits 1 with the usage line and a message naming the
    argument: exit 2 means an infeasible model."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sample"], "the following arguments are required: -n/--count"),
            (["verify", "-n", "1", "--linf", "-1"],
             "argument --linf: must be nonnegative, got '-1'"),
            (["verify", "-n", "1", "--linf", "nan"],
             "argument --linf: must be nonnegative, got 'nan'"),
            (["verify", "-n", "1", "--linf", "inf"],
             "argument --linf: must be finite, got 'inf'"),
            (["sample", "-n", "1", "--seed", "-1"],
             "argument --seed: must be nonnegative, got '-1'"),
            (["verify", "-n", "1", "--seed", "-1"],
             "argument --seed: must be nonnegative, got '-1'"),
            (["sample", "-n", "1", "--seed", "x"],
             "argument --seed: invalid int value: 'x'"),
            (["sample", "-n", "0"], "argument -n/--count: must be >= 1, got '0'"),
            (["verify", "-n", "-3"], "argument -n/--count: must be >= 1, got '-3'"),
        ],
        ids=[
            "no-count", "linf-negative", "linf-nan", "linf-inf",
            "sample-seed", "verify-seed", "seed-text", "sample-count", "verify-count",
        ],
    )
    def test_exits_1_with_usage(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_:
            main([argv[0], fixture_path("chain4_sampling.dsn"), *argv[1:]])
        out, err = capsys.readouterr()
        assert exit_.value.code == 1 and out == ""
        usage, error = err.splitlines()
        assert usage.startswith(f"usage: belnet {argv[0]} ")
        assert error == f"belnet {argv[0]}: error: {message}"

    def test_zero_bounds_are_usable(self, capsys):
        code, out, _ = run(
            capsys, "verify", fixture_path("chain4_sampling.dsn"),
            "-n", "100", "--seed", "0", "--linf", "0",
        )
        assert code == 3 and "(threshold 0.000000000)" in out
