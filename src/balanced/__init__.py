"""Exact construction, verification and analysis of balanced spherical point
configurations: shell-sum equilibrium, spherical design strength,
Gram-preserving symmetry groups, group-balancedness, and lattice kissing
configurations."""

from .balance import (
    BalanceReport,
    Violation,
    check_balanced,
    check_balanced_euclidean,
)
from .constructors import SrgParams, srg_params
from .designs import (
    DesignVerdict,
    TheoremOneVerdict,
    design_strength,
    theorem1_check,
)
from .exact import (
    Configuration,
    GramMatrix,
    InvariantError,
    StructuralError,
    gram_rank,
    inner_product_spectrum,
    ldl_decompose,
    rational,
)
from .lattice import (
    LatticeGram,
    ShortVectorSet,
    bundled_lattice,
    kissing_configuration,
    minimal_norm,
    short_vectors,
)
from .numerics import (
    CoordinateSet,
    check_balanced_float,
    coordinates_from_gram,
    cube_facet_rotation,
    energy,
    tangential_force,
)
from .report import AnalysisReport, build_report, build_report_float
from .symmetry import (
    ColoredGraph,
    PermutationGroup,
    automorphism_group,
    check_group_balanced,
    colored_graph_from_adjacency,
    colored_graph_from_config,
    fixed_subspace_dim,
)

__all__ = [
    "AnalysisReport",
    "BalanceReport",
    "ColoredGraph",
    "Configuration",
    "CoordinateSet",
    "DesignVerdict",
    "GramMatrix",
    "InvariantError",
    "LatticeGram",
    "PermutationGroup",
    "ShortVectorSet",
    "SrgParams",
    "StructuralError",
    "TheoremOneVerdict",
    "Violation",
    "automorphism_group",
    "build_report",
    "build_report_float",
    "bundled_lattice",
    "check_balanced",
    "check_balanced_euclidean",
    "check_balanced_float",
    "check_group_balanced",
    "colored_graph_from_adjacency",
    "colored_graph_from_config",
    "coordinates_from_gram",
    "cube_facet_rotation",
    "design_strength",
    "energy",
    "fixed_subspace_dim",
    "gram_rank",
    "inner_product_spectrum",
    "kissing_configuration",
    "ldl_decompose",
    "minimal_norm",
    "rational",
    "short_vectors",
    "srg_params",
    "tangential_force",
    "theorem1_check",
]

__version__ = "0.1.0"
