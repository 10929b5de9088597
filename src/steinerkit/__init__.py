"""steinerkit: exact-arithmetic tools for Steiner t-designs.

Designs, parameter admissibility, permutation-group actions with
stabilizer chains, a catalog of the classical 3-homogeneous families, the
block-transitivity arithmetic screen, and Kramer-Mesner prescribed-group
design search.

Importing the package loads no layer: each exported name is imported from
its module on first use (PEP 562) and then kept in the package namespace.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "admissibility": ("AdmissibilityReport", "Condition", "Status", "check", "scan"),
    "blocktrans": ("EliminationVerdict", "eliminate", "sweep"),
    "catalog": ("CatalogEntry", "alternating_group", "candidates_for_degree",
                "catalog_entry_by_name", "mathieu", "mathieu_m11_degree12", "projective_group"),
    "designs": ("Design", "DesignParameters", "VerificationReport", "complete_design",
                "construct_boolean", "derived", "design_from_json", "design_to_json",
                "fano_plane", "lambda_s", "verify"),
    "errors": ("CapacityError", "DataIntegrityError", "MembershipError", "NotAutomorphismError"),
    "gf": ("GF", "field"),
    "kramer_mesner": ("OrbitMatrix", "build_orbit_matrix", "search_design", "solve",
                      "subset_orbits"),
    "perms": ("ActionReport", "BlockActionReport", "Permutation", "PermutationGroup",
              "homogeneity", "induced_block_action", "parse_cycles"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _MODULE_OF[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
