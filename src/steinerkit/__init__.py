"""steinerkit: exact-arithmetic tools for Steiner t-designs.

Designs, parameter admissibility, permutation-group actions with
stabilizer chains, a catalog of the classical 3-homogeneous families, the
block-transitivity arithmetic screen, and Kramer-Mesner prescribed-group
design search.
"""

from .admissibility import (
    AdmissibilityReport,
    Condition,
    Status,
    check,
    scan,
)
from .blocktrans import (
    EliminationVerdict,
    eliminate,
    sweep,
)
from .catalog import (
    CatalogEntry,
    alternating_group,
    candidates_for_degree,
    catalog_entry_by_name,
    mathieu,
    mathieu_m11_degree12,
    projective_group,
)
from .designs import (
    Design,
    DesignParameters,
    VerificationReport,
    complete_design,
    construct_boolean,
    derived,
    design_from_json,
    design_to_json,
    fano_plane,
    lambda_s,
    verify,
)
from .errors import CapacityError, DataIntegrityError, MembershipError, NotAutomorphismError
from .gf import GF, field
from .kramer_mesner import (
    OrbitMatrix,
    build_orbit_matrix,
    search_design,
    solve,
    subset_orbits,
)
from .perms import (
    ActionReport,
    BlockActionReport,
    Permutation,
    PermutationGroup,
    homogeneity,
    induced_block_action,
    parse_cycles,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "ActionReport",
    "BlockActionReport",
    "CapacityError",
    "CatalogEntry",
    "Condition",
    "DataIntegrityError",
    "Design",
    "DesignParameters",
    "EliminationVerdict",
    "GF",
    "MembershipError",
    "NotAutomorphismError",
    "OrbitMatrix",
    "Permutation",
    "PermutationGroup",
    "Status",
    "VerificationReport",
    "alternating_group",
    "build_orbit_matrix",
    "candidates_for_degree",
    "catalog_entry_by_name",
    "check",
    "complete_design",
    "construct_boolean",
    "derived",
    "design_from_json",
    "design_to_json",
    "eliminate",
    "fano_plane",
    "field",
    "homogeneity",
    "induced_block_action",
    "lambda_s",
    "mathieu",
    "mathieu_m11_degree12",
    "parse_cycles",
    "projective_group",
    "scan",
    "search_design",
    "solve",
    "subset_orbits",
    "sweep",
    "verify",
]
