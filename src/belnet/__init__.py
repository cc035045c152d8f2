"""belnet: sampling from belief-function networks.

Conditional mass tables are reparameterized as commonality tables, variable
domains are extended with split values, proper conditional probability tables
are built over the extended domains, and records are drawn by forward
sampling and collapsed back to subsets.  An exact conjunctive-combination
joint and an exact verification oracle, by tensor contraction, are included.

Submodules are imported on first use of a name they export (PEP 562), so
``import belnet`` alone loads none of them.
"""

from importlib import import_module

_EXPORTS = {
    "cpt": ("ExtCPT", "build_network_cpts", "build_node_cpt", "check_feasibility"),
    "errors": (
        "BelnetError",
        "InfeasibleModelError",
        "NetworkParseError",
        "SizeGuardError",
        "StructureError",
        "SubsetParseError",
    ),
    "extvals": ("ExtValue", "ExtVector", "component", "ext_values", "ext_vectors"),
    "fusion": ("JointMass", "NegativityReport", "network_joint", "write_joint_csv"),
    "network": (
        "Network",
        "Node",
        "edge_index",
        "load_network",
        "parse_network",
        "topological_order",
        "validate_structure",
    ),
    "sampler": ("Sample", "generate", "write_csv"),
    "tables": (
        "CondCommonalityTable",
        "CondMassTable",
        "Frame",
        "SubsetMask",
        "ValidationReport",
        "commonality_to_mass",
        "mass_to_commonality",
        "parse_subset_label",
        "subsets_of",
        "validate_table",
    ),
    "verify": (
        "ComparisonReport",
        "ExactDistribution",
        "compare_empirical",
        "exact_collapsed_joint",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    own = {"import_module", "_EXPORTS", "_MODULE_OF", "__getattr__", "__dir__"}
    return sorted({*globals(), *__all__} - own)
