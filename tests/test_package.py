"""The package namespace: every exported name, submodules loaded on first use."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import belnet

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


def test_import_loads_submodules_on_first_use():
    script = (
        "import sys, belnet\n"
        "print(sorted(m for m in sys.modules if m.startswith('belnet')))\n"
        "belnet.build_network_cpts\n"
        "print(sorted(m for m in sys.modules if m.startswith('belnet')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == [
        "['belnet']",
        "['belnet', 'belnet.cpt', 'belnet.errors', 'belnet.extvals', 'belnet.network', "
        "'belnet.tables']",
    ]


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
