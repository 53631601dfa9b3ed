"""rewirelab: spectral graph analysis, exact rewiring decisions, bisection reductions.

The package surface loads on first use.  `import rewirelab` (and so each
`python -m rewirelab.cli` process) imports no submodule; the first access to
any name below, or to one of the submodules, imports every module at once, so
later calls never pay an import.
"""

__version__ = "0.1.0"

# home module -> the names the package re-exports from it
_EXPORTS = {
    "cuts": (
        "BisectionResult",
        "Cut",
        "balance_cut",
        "cheeger_consistent",
        "cheeger_interval",
        "conductance_exact",
        "conductance_of",
        "conductance_sweep",
        "min_bisection_exact",
    ),
    "errors": ("DEFAULT_SEED", "RewireLabError"),
    "graph": (
        "EditSet",
        "Graph",
        "apply_edits",
        "barbell_graph",
        "build_graph",
        "complete_graph",
        "cycle_graph",
        "edit_set_between",
        "generate",
        "gnp_graph",
        "make_edit_set",
        "matrix_of",
        "parse_graph",
        "random_regular_graph",
        "serialize_graph",
    ),
    "reductions": (
        "BisectionInstance",
        "CertifiedExpander",
        "ExpanderEmbedding",
        "ReductionCertificate",
        "ReductionConstants",
        "build_certified_expander",
        "certificate_json_text",
        "certificate_to_json",
        "embed_instance",
        "measure_constants",
        "rebuild_certificate",
        "reduce_to_groc",
        "reduce_to_gros",
        "scale_instance_between",
        "scale_instance_large",
        "verify_reduction",
    ),
    "rewiring": (
        "Decision",
        "GrocInstance",
        "GrosInstance",
        "decide_groc",
        "decide_gros",
        "decision_to_json",
        "edit_set_to_json",
        "effective_resistance",
        "forman_curvature",
        "greedy_rewire",
        "ppr_matrix",
        "ppr_rewire",
        "resistance_matrix",
        "sdrf_like_rewire",
    ),
    "spectral": (
        "SpectralSummary",
        "decay_report",
        "decay_report_csv",
        "dirichlet_energy",
        "propagate",
        "spectral_summary",
    ),
    "sturm": ("exact_mu2_leq",),
}

__all__ = sorted([*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)])


def _load_all() -> None:
    """Import every module and bind the exported names, as one eager import would."""
    from importlib import import_module

    namespace = globals()
    for module_name, names in _EXPORTS.items():
        module = import_module(f"{__name__}.{module_name}")
        for name in names:
            namespace[name] = getattr(module, name)


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_all()
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
