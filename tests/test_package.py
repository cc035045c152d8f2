"""The package namespace: every exported name, submodules loaded on first use."""

import os
import subprocess
import sys

import belnet

SUBMODULES = ("cpt", "errors", "extvals", "fusion", "network", "sampler", "tables", "verify")
# every export, sorted: adding or removing one shows in this list
EXPORTS = [
    "BelnetError", "ComparisonReport", "CondCommonalityTable", "CondMassTable",
    "ExactDistribution", "ExtCPT", "ExtValue", "ExtVector", "Frame", "InfeasibleModelError",
    "JointMass", "NegativityReport", "Network", "NetworkParseError", "Node", "Sample",
    "SizeGuardError", "StructureError", "SubsetMask", "SubsetParseError", "ValidationReport",
    "build_network_cpts", "build_node_cpt", "check_feasibility", "commonality_to_mass",
    "compare_empirical", "component", "cpt", "edge_index", "errors", "exact_collapsed_joint",
    "ext_values", "ext_vectors", "extvals", "fusion", "generate", "load_network",
    "mass_to_commonality", "network", "network_joint", "parse_network", "parse_subset_label",
    "sampler", "subsets_of", "tables", "topological_order", "validate_structure",
    "validate_table", "verify", "write_csv", "write_joint_csv",
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
