"""Degree power sums of C5-free graphs: exact constructions, symbolic
asymptotics, exhaustive small-order search, and proof-step verification.

Importing the package loads none of the engine modules.  Each public name
is listed once, under its home module, in _EXPORTS; the module-level
__getattr__ (PEP 562) imports that module the first time the name is read
and caches the name here, so later reads are plain lookups.  The `degpow`
command imports this package before it parses anything, so `--help` and a
cold `epow` pay only for the modules they run.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "graphs": (
        "MAX_ORDER", "CapacityError", "SmallGraph", "canonical_form",
        "canonical_relabel", "contains_cycle", "contains_path_order",
        "degree_power_sum", "degree_sequence", "from_edges", "from_graph6",
        "induced_subgraph", "is_complete_bipartite", "to_graph6",
    ),
    "constructions": (
        "CompleteBipartite", "DegreeProfile", "GPrime", "GStar", "HubAttachment",
        "JoinCliqueEmpty", "Turan", "bipartite_completion", "build", "degree_profile",
        "ep_turan2_closed_form", "hub_with_components", "parse_spec", "spec_order",
    ),
    "asymptotics": (
        "FamilyComparison", "FPositivityReport", "NPolynomial", "ParametricFamily",
        "best_biclique_split", "compare_families", "expand_ep", "f_value",
        "family_of", "leading_coefficient", "optimize_c", "split_objective",
        "verify_f_positive",
    ),
    "search": (
        "DecompositionReport", "MaximizerRecord", "ObservationReport", "SearchResult",
        "SearchStats", "SweepResult", "classification_report", "classify_maximizers",
        "collect_c5_free", "enumerate_c5_free", "ex_p", "max_degree_ratio",
        "neighborhood_decomposition", "search_extremal", "sweep_bipartite_completion",
        "sweep_neighborhood_validity", "sweep_observations", "validate_observations",
    ),
    "claims": ("run_all", "run_claim"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
