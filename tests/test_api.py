"""The package's public surface, pinned like the CLI option inventory: an
export or a parameter added or dropped is a reviewed change to this file."""
import inspect
from enum import Enum

import steinerkit


def parameters(obj):
    """Parameter names of an exported callable.  Enums and exceptions that
    keep the built-in constructor have no parameters of their own."""
    if isinstance(obj, type) and issubclass(obj, Enum):
        return "enum"
    if isinstance(obj, type) and issubclass(obj, BaseException) and "__init__" not in vars(obj):
        return "exception"
    return list(inspect.signature(obj).parameters)


def test_public_api_inventory():
    inventory = {name: parameters(getattr(steinerkit, name)) for name in steinerkit.__all__}
    assert len(inventory) == len(steinerkit.__all__)
    assert inventory == {
        "AdmissibilityReport": ["params", "outcomes", "admissible"],
        "ActionReport": ["orbit_count_points", "orbit_lengths", "transitivity_degree",
                         "homogeneity_degree", "tested_t_max"],
        "BlockActionReport": ["block_orbit_count", "flag_orbit_count", "point_orbit_count",
                              "is_block_transitive", "is_flag_transitive",
                              "is_point_transitive"],
        "CapacityError": "exception",
        "CatalogEntry": ["name", "family", "degree", "order", "char", "three_homogeneous",
                         "k_homogeneous_all", "notes", "_builder", "_group"],
        "Condition": "enum",
        "DataIntegrityError": "exception",
        "Design": ["params", "blocks"],
        "DesignParameters": ["t", "v", "k", "lam"],
        "EliminationVerdict": ["entry_name", "family", "degree", "char", "group_order", "t",
                               "lam", "feasible_k", "k_outcomes", "group_reasons"],
        "GF": ["q"],
        "MembershipError": "exception",
        "NotAutomorphismError": ["message", "generator", "block"],
        "OrbitMatrix": ["degree", "t", "k", "row_reps", "col_reps", "col_sizes", "entries"],
        "Permutation": ["images"],
        "PermutationGroup": ["generators", "degree", "base_prefix", "_order"],
        "Status": "enum",
        "VerificationReport": ["covered_lambda", "failing_witness"],
        "alternating_group": ["v"],
        "build_orbit_matrix": ["group", "t", "k", "cap"],
        "candidates_for_degree": ["v"],
        "catalog_entry_by_name": ["name"],
        "check": ["params"],
        "complete_design": ["v", "k", "t"],
        "construct_boolean": ["n", "cap"],
        "derived": ["design", "x"],
        "design_from_json": ["text"],
        "design_to_json": ["design"],
        "eliminate": ["entry", "t", "lam"],
        "fano_plane": [],
        "field": ["q"],
        "homogeneity": ["group", "t_max"],
        "induced_block_action": ["group", "design"],
        "lambda_s": ["params", "s"],
        "mathieu": ["v"],
        "mathieu_m11_degree12": [],
        "parse_cycles": ["text", "degree"],
        "projective_group": ["kind", "q"],
        "scan": ["t", "lam", "v_max", "k_range"],
        "search_design": ["group", "t", "k", "lam", "limit", "cap", "matrix"],
        "solve": ["matrix", "lam", "limit"],
        "subset_orbits": ["group", "m", "cap"],
        "sweep": ["t", "lam", "v_max"],
        "verify": ["design", "cap"],
    }
    # solve returns plain tuples of column indices, and a matrix or search
    # carries no group name: the CLI adds the name where it prints one
    assert "Selection" not in inventory
    assert not any("group_name" in params for params in inventory.values())
