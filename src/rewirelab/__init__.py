"""rewirelab: spectral graph analysis, exact rewiring decisions, bisection reductions."""

__version__ = "0.1.0"

from .cuts import (
    BisectionResult,
    Cut,
    balance_cut,
    cheeger_consistent,
    cheeger_interval,
    conductance_exact,
    conductance_of,
    conductance_sweep,
    min_bisection_exact,
)
from .errors import RewireLabError
from .graph import (
    EditSet,
    Graph,
    apply_edits,
    barbell_graph,
    build_graph,
    complete_graph,
    cycle_graph,
    edit_set_between,
    generate,
    gnp_graph,
    make_edit_set,
    matrix_of,
    parse_graph,
    random_regular_graph,
    serialize_graph,
)
from .reductions import (
    DEFAULT_SEED,
    BisectionInstance,
    CertifiedExpander,
    ExpanderEmbedding,
    ReductionCertificate,
    ReductionConstants,
    build_certified_expander,
    certificate_json_text,
    certificate_to_json,
    embed_instance,
    measure_constants,
    rebuild_certificate,
    reduce_to_groc,
    reduce_to_gros,
    scale_instance_between,
    scale_instance_large,
    verify_reduction,
)
from .rewiring import (
    Decision,
    GrocInstance,
    GrosInstance,
    decide_groc,
    decide_gros,
    decision_to_json,
    edit_set_to_json,
    effective_resistance,
    forman_curvature,
    greedy_rewire,
    ppr_matrix,
    ppr_rewire,
    resistance_matrix,
    sdrf_like_rewire,
)
from .spectral import (
    SpectralSummary,
    decay_report,
    decay_report_csv,
    dirichlet_energy,
    propagate,
    spectral_summary,
)
from .sturm import exact_mu2_leq
