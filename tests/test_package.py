"""The package namespace: every exported name, submodules loaded on first use."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import belnet
import belnet.errors as errors_mod
from belnet.cpt import guard_value_rows

ROOT = Path(__file__).parents[1]

SUBMODULES = ("cpt", "errors", "extvals", "fusion", "network", "sampler", "tables", "verify")
# every export, sorted: adding or removing one shows in this list
EXPORTS = [
    "BelnetError", "ComparisonReport", "CondTable", "ExtCPT", "Frame", "InfeasibleModelError",
    "JointMass", "NegativityReport", "Network", "NetworkParseError", "Node", "Sample",
    "SizeGuardError", "StructureError", "SubsetParseError", "ValidationReport",
    "build_network_cpts", "build_node_cpt", "check_feasibility", "commonality_to_mass",
    "compare_empirical", "cpt", "edge_index", "errors", "exact_collapsed_joint", "extvals",
    "fusion", "generate", "load_network", "mass_to_commonality", "network", "network_joint",
    "parse_network", "sampler", "subset_index", "subset_literals", "tables",
    "topological_order", "validate_structure", "validate_table", "verify", "write_csv",
    "write_joint_csv",
]


def test_export_list_is_pinned():
    assert belnet.__all__ == EXPORTS


def test_every_exported_name_resolves():
    for name in belnet.__all__:
        value = getattr(belnet, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"belnet.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name)
    assert set(SUBMODULES) <= set(belnet.__all__) <= set(dir(belnet))


def test_unknown_name_raises_attribute_error():
    assert not hasattr(belnet, "no_such_name")


def _fresh_interpreter(script: str) -> list[str]:
    """The lines ``script`` prints in a fresh interpreter, on this test's path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()


def test_import_loads_submodules_on_first_use():
    script = (
        "import sys, belnet\n"
        "print(sorted(m for m in sys.modules if m.startswith('belnet')))\n"
        "belnet.build_network_cpts\n"
        "print(sorted(m for m in sys.modules if m.startswith('belnet')))\n"
    )
    assert _fresh_interpreter(script) == [
        "['belnet']",
        "['belnet', 'belnet.cpt', 'belnet.errors', 'belnet.extvals', 'belnet.network', "
        "'belnet.tables']",
    ]


def test_verify_loads_without_the_sampler():
    # the oracle and the comparison take CPTs and counts; no part of them draws
    script = "import sys, belnet.verify\nprint('belnet.sampler' in sys.modules)\n"
    assert _fresh_interpreter(script) == ["False"]


def test_every_imported_name_is_read():
    # a name an import binds and no expression reads is dead weight
    unread = []
    for path in sorted([*ROOT.glob("src/belnet/*.py"), *ROOT.glob("tests/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [n for n in ast.walk(tree) if isinstance(n, ast.Name)]
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert not unread


def test_readme_library_names_only_exports():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    names = set(re.findall(r"\bbn\.(\w+)", block))
    assert names and sorted(names - set(belnet.__all__)) == []


def _package_imports():
    """Per name a module under src/belnet imports from a belnet module: the
    importing file, the module and the name."""
    for path in sorted(ROOT.glob("src/belnet/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or str(node.module).split(".")[0] == "belnet"
            ):
                module = str(node.module).removeprefix("belnet.")
                yield from ((path.name, module, a.name) for a in node.names)


def test_no_module_borrows_a_private_name():
    # tables._subset_bits is shared on purpose: it owns the canonical subset order
    borrowed = [
        f"{path}: {module}.{name}"
        for path, module, name in _package_imports()
        if name.startswith("_") and f"{module}.{name}" != "tables._subset_bits"
    ]
    assert not borrowed


def test_no_module_copies_another_modules_limit():
    # a limit imported by name is a copy, which patching the owner's binding misses
    copied = [f"{path}: {name}" for path, _, name in _package_imports() if name.startswith("MAX_")]
    assert not copied


def test_only_the_budget_owner_refuses_a_size():
    # every cell guard goes through errors.guard_cells; extvals bounds its layout
    # tables by a frame size and a successor count, not by cells
    raising = {
        path.name
        for path in ROOT.glob("src/belnet/*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "SizeGuardError"
    }
    assert raising == {"errors.py", "extvals.py"}


def test_refusal_prints_a_braced_name_verbatim(monkeypatch):
    # the parser accepts braces in a name, so a message is never a format template
    net = belnet.parse_network("var C{1} : a b\ntable C{1} | kind=m\n  {a,b} : 1\nend\n")
    cpt = belnet.build_network_cpts(net)["C{1}"]
    monkeypatch.setattr(errors_mod, "MAX_CELLS", 2)
    with pytest.raises(belnet.SizeGuardError) as refused:
        guard_value_rows(cpt)
    assert str(refused.value) == "node C{1}: extended CPT would hold 3 cells (limit 2)"
