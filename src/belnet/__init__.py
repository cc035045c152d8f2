"""belnet: sampling from belief-function networks.

Conditional mass tables are reparameterized as commonality tables, variable
domains are extended with split values, proper conditional probability tables
are built over the extended domains, and records are drawn by forward
sampling and collapsed back to subsets.  An exact conjunctive-combination
joint and an exhaustive verification oracle are included.
"""

from .cpt import ExtCPT, build_network_cpts, build_node_cpt, check_feasibility
from .errors import (
    BelnetError,
    InfeasibleModelError,
    NetworkParseError,
    SizeGuardError,
    StructureError,
    SubsetParseError,
)
from .extvals import (
    ExtValue,
    ExtVector,
    component,
    ext_values,
    ext_vectors,
    parse_ext_value,
    parse_ext_vector,
)
from .fusion import (
    JointMass,
    NegativityReport,
    network_joint,
    write_joint_csv,
)
from .network import (
    Network,
    Node,
    edge_index,
    load_network,
    parse_network,
    topological_order,
    validate_structure,
)
from .sampler import Sample, SampleRecord, generate, write_csv
from .tables import (
    CondCommonalityTable,
    CondMassTable,
    Frame,
    ProductFocal,
    SubsetMask,
    ValidationReport,
    commonality_to_mass,
    full_set,
    mass_to_commonality,
    parse_subset_label,
    subsets_of,
    validate_table,
)
from .verify import (
    ComparisonReport,
    ExactDistribution,
    compare_empirical,
    exact_collapsed_joint,
    exact_extended_joint,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
