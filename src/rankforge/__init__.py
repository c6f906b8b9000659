"""Exact-rank toolkit for reduced triangle-free and bipartite graphs.

The names below are loaded from their submodule on first use (PEP 562), so
importing one submodule, or running one CLI command, compiles and keeps only
the modules it needs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "canonical": (
        "CanonicalForm",
        "are_isomorphic",
        "canonical_form",
        "canonical_graph",
        "from_graph6",
        "to_graph6",
    ),
    "codes": (
        "BinaryCode",
        "all_ones_in_rowspace",
        "min_distance",
        "plotkin_bound_check",
        "rowspace_distance2_bound",
        "rowspace_distance2_max",
        "singleton_verify",
    ),
    "constructions": (
        "BoundsTable",
        "LabeledConstruction",
        "b_bound",
        "bipartite_remark_graph",
        "bounds",
        "c_bound",
        "extremal_triangle_free",
        "extremal_triangle_free_recursive",
        "incidence_graph",
        "odd_subset_incidence_graph",
        "subset_incidence_graph",
    ),
    "enumeration": (
        "Core",
        "EnumerationReport",
        "ExtensionCandidate",
        "GraphClass",
        "all_extensions",
        "candidates",
        "compatible",
        "complete",
        "enumerate_all",
        "enumerate_extremal",
        "gen_cores",
        "max_extension",
        "verify_theorem",
    ),
    "graphs": (
        "CapacityError",
        "CapExceededError",
        "Graph",
        "InternalError",
        "bipartition",
        "bits",
        "duplication_classes",
        "independence_number",
        "induced_subgraph",
        "is_reduced",
        "is_triangle_free",
        "mask_of",
        "maximum_independent_sets",
        "reduce_graph",
        "symmetric_difference",
    ),
    "linalg": (
        "adjacency_matrix",
        "adjugate_solve",
        "det_exact",
        "nonsingular_principal_core",
        "rank_exact",
    ),
    "structure": (
        "StructureReport",
        "max_subgraph_below_rank",
        "obstruction_free",
        "rank_drop_neighborhood",
        "rank_drop_symdiff",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())
