"""Spans around the calls into each rewirelab layer, installed from outside.

`install` wraps every listed public entry point and rebinds each name that a
rewirelab module imported it under, so calls between modules are seen too.
Two calls are not module functions: the `Graph.connected_components` method
is rebound on the class, and the `numpy.linalg.eigvalsh` call that
`decide_gros` makes goes through a numpy proxy placed in `rewiring` only.

A span is [name, start_ns, end_ns, parent index, operation id].  Spans stay in
memory; run.py writes them out when the run ends.  Calls made while no
operation is active pass straight through.

The scan counts (`cuts.conductance_exact.cuts_scanned`,
`cuts.min_bisection_exact.partitions_scanned`,
`reductions.measure_constants.cuts_scanned`) are nominal: the size of the
search space of each call, 2^(n-1) - 1 cuts or C(n-1, n/2-1) partitions, since
the scans run inside one function and nothing outside it sees each cut.  A
change that prunes the scan leaves them as they are, so `cuts.ns_per_cut`
(self time over nominal cuts) then falls without any cut getting cheaper.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict

LAYER_MODULES = ("graph", "spectral", "sturm", "cuts", "rewiring", "reductions", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: defaultdict = defaultdict(float)
        self.op: str | None = None

    def wrap(self, name: str, fn, on_result=None, rename=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter_ns(), 0, tracer.stack[-1] if tracer.stack else -1, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                tracer.stack.pop()
            if rename is not None:
                rec[0] = rename(result)
            if on_result is not None:
                on_result(tracer.counters, args, kwargs, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced


# -- counters taken at the layer boundaries -------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _on_conductance_exact(c, args, kwargs, cut):
    g = _arg(args, kwargs, 0, "g")
    if cut.phi == 0:  # only a disconnected graph has a zero-conductance cut
        c["cuts.conductance_exact.disconnected_calls"] += 1
    else:
        c["cuts.conductance_exact.cuts_scanned"] += (1 << (g.n - 1)) - 1


def _on_min_bisection(c, args, kwargs, res):
    h = _arg(args, kwargs, 0, "h")
    if res.exhaustive:
        c["cuts.min_bisection_exact.partitions_scanned"] += math.comb(h.n - 1, h.n // 2 - 1)


def _on_exact_mu2(c, args, kwargs, res):
    c["sturm.exact_mu2_leq.order_sum"] += _arg(args, kwargs, 0, "g").n


def _on_measure_constants(c, args, kwargs, res):
    emb = _arg(args, kwargs, 0, "emb")
    c["reductions.measure_constants.cuts_scanned"] += (1 << (emb.g.n - 1)) - 1


def _on_spectral(c, args, kwargs, summary):
    c["spectral.max_residual"] = max(c["spectral.max_residual"], summary.residual_bound)


def _spectral_name(summary):
    return "spectral.iterative" if summary.method == "iterative" else "spectral.dense"


# (module, attribute, span name, counter hook, rename)
ENTRY_POINTS = [
    ("cuts", "conductance_exact", "cuts.conductance_exact", _on_conductance_exact, None),
    ("cuts", "min_bisection_exact", "cuts.min_bisection_exact", _on_min_bisection, None),
    ("cuts", "conductance_of", "cuts.conductance_of", None, None),
    ("cuts", "balance_cut", "cuts.balance_cut", None, None),
    ("cuts", "conductance_sweep", "cuts.conductance_sweep", None, None),
    ("sturm", "exact_mu2_leq", "sturm.exact_mu2_leq", _on_exact_mu2, None),
    ("sturm", "propagation_charpoly", "sturm.propagation_charpoly", None, None),
    ("sturm", "count_roots_above", "sturm.count_roots", None, None),
    ("sturm", "count_roots_below", "sturm.count_roots", None, None),
    ("rewiring", "decide_groc", "rewiring.decide_groc", None, None),
    ("rewiring", "decide_gros", "rewiring.decide_gros", None, None),
    ("rewiring", "greedy_rewire", "rewiring.greedy_rewire", None, None),
    ("rewiring", "sdrf_like_rewire", "rewiring.sdrf_like_rewire", None, None),
    ("rewiring", "ppr_rewire", "rewiring.ppr_rewire", None, None),
    ("rewiring", "ppr_matrix", "rewiring.ppr_matrix", None, None),
    ("rewiring", "resistance_matrix", "rewiring.resistance_matrix", None, None),
    ("graph", "parse_graph", "graph.parse_graph", None, None),
    ("graph", "serialize_graph", "graph.serialize_graph", None, None),
    ("graph", "matrix_of", "graph.matrix_of", None, None),
    ("spectral", "spectral_summary", "spectral.summary", _on_spectral, _spectral_name),
    ("spectral", "decay_report", "spectral.decay_report", None, None),
    ("reductions", "embed_instance", "reductions.embed_instance", None, None),
    ("reductions", "measure_constants", "reductions.measure_constants", _on_measure_constants, None),
    ("reductions", "verify_reduction", "reductions.verify_reduction", None, None),
    ("reductions", "scale_instance_between", "reductions.scale_instance", None, None),
    ("reductions", "scale_instance_large", "reductions.scale_instance", None, None),
    ("reductions", "rebuild_certificate", "reductions.rebuild_certificate", None, None),
    ("cli", "main", "cli.main", None, None),
]


class _Forward:
    """Attribute proxy: forwards everything except the names it overrides."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(tracer: Tracer) -> None:
    """Wrap every entry point and rebind it wherever rewirelab imported it."""
    pkg = importlib.import_module("rewirelab")
    modules = [pkg] + [importlib.import_module(f"rewirelab.{m}") for m in LAYER_MODULES]
    for mod_name, attr, span, hook, rename in ENTRY_POINTS:
        home = importlib.import_module(f"rewirelab.{mod_name}")
        original = getattr(home, attr)
        if getattr(original, "__wrapped_by_perfbench__", False):
            continue
        wrapped = tracer.wrap(span, original, hook, rename)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)

    graph_cls = importlib.import_module("rewirelab.graph").Graph
    graph_cls.connected_components = tracer.wrap("graph.connected_components", graph_cls.connected_components)

    rewiring = importlib.import_module("rewirelab.rewiring")
    np_mod = rewiring.np
    linalg = _Forward(np_mod.linalg, eigvalsh=tracer.wrap("rewiring.eigvalsh", np_mod.linalg.eigvalsh))
    rewiring.np = _Forward(np_mod, linalg=linalg)


# -- aggregation ------------------------------------------------------------------------


def aggregate(spans: list[list]) -> dict:
    """Per span name: calls, total_ms and self_ms (duration minus child spans)."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_ms"] += (end - start) / 1e6
        row["self_ms"] += (end - start - child_ns[i]) / 1e6
    return dict(out)


#: The evaluation each decision solver makes once per candidate.
EVALUATION = {"rewiring.decide_groc": "cuts.conductance_exact", "rewiring.decide_gros": "rewiring.eigvalsh"}


def op_metrics(spans: list[list], outcomes: dict) -> dict:
    """Per-operation properties counted from the spans.

    Candidates and their use come from the spans under each decide span.

    `outcomes` maps an operation id to (problem, answer, index of the first
    witness in the solvers' (size, lex) order, or None), read from the
    program's output.  A candidate is one evaluation span under a decide span;
    an evaluation is useful up to and including the first witness, since the
    solvers enumerate in that order and the rest cannot change the answer.
    """
    solves: dict = {}  # decide span index -> [name, evaluations, exact_mu2_leq calls]
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name in EVALUATION:
            solves[i] = [name, 0, 0]
        elif name in ("cuts.conductance_exact", "rewiring.eigvalsh", "sturm.exact_mu2_leq"):
            while parent >= 0 and parent not in solves:
                parent = spans[parent][3]
            if parent < 0:
                continue
            row = solves[parent]
            if name == EVALUATION[row[0]]:
                row[1] += 1
            elif name == "sturm.exact_mu2_leq":
                row[2] += 1
    evals = sum(row[1] for row in solves.values())
    gros = [row for row in solves.values() if row[0] == "rewiring.decide_gros"]
    useful = 0
    for i, (_, n_eval, _) in solves.items():
        # a failed operation has no outcome; it already fails the run
        _, answer, first = outcomes.get(spans[i][4], (None, "no", None))
        useful += min(n_eval, first + 1) if answer == "yes" else n_eval
    m = {
        "rewiring.candidates": evals,
        "rewiring.useful_eval_share": useful / evals if evals else 0.0,
        "workload.candidates_per_solve": evals / len(solves) if solves else 0.0,
        "workload.gros_exact_share": sum(r[2] for r in gros) / max(1, sum(r[1] for r in gros)),
    }
    for problem in ("groc", "gros"):
        answers = [a for p, a, _ in outcomes.values() if p == problem]
        m[f"workload.{problem}_yes_share"] = answers.count("yes") / len(answers) if answers else 0.0
    # operations that computed a spectral summary, and those where one took the Lanczos path
    spectral = {op for name, _, _, _, op in spans if name in ("spectral.dense", "spectral.iterative")}
    lanczos = {op for name, _, _, _, op in spans if name == "spectral.iterative"}
    m["workload.lanczos_op_share"] = len(lanczos) / len(spectral) if spectral else 0.0
    return m


def layer_metrics(by_name: dict, counters: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json from aggregated spans."""

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def self_ms(name):
        return by_name.get(name, {}).get("self_ms", 0.0)

    m = {}
    for name in ("cuts.conductance_exact", "cuts.min_bisection_exact", "cuts.conductance_of",
                 "cuts.balance_cut", "cuts.conductance_sweep", "sturm.exact_mu2_leq",
                 "rewiring.decide_groc", "rewiring.decide_gros", "graph.parse_graph",
                 "graph.serialize_graph", "graph.matrix_of", "graph.connected_components",
                 "spectral.dense", "spectral.iterative"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_ms"] = self_ms(name)
    scanned = counters.get("cuts.conductance_exact.cuts_scanned", 0)
    m["cuts.conductance_exact.cuts_scanned"] = scanned
    m["cuts.conductance_exact.disconnected_calls"] = counters.get("cuts.conductance_exact.disconnected_calls", 0)
    m["cuts.ns_per_cut"] = 1e6 * self_ms("cuts.conductance_exact") / scanned if scanned else 0.0
    m["cuts.min_bisection_exact.partitions_scanned"] = counters.get("cuts.min_bisection_exact.partitions_scanned", 0)
    n_exact = calls("sturm.exact_mu2_leq")
    m["sturm.exact_mu2_leq.mean_order"] = counters.get("sturm.exact_mu2_leq.order_sum", 0) / n_exact if n_exact else 0.0
    m["sturm.propagation_charpoly.self_ms"] = self_ms("sturm.propagation_charpoly")
    m["sturm.count_roots.self_ms"] = self_ms("sturm.count_roots")
    m["rewiring.eigvalsh.self_ms"] = self_ms("rewiring.eigvalsh")
    for name in ("greedy_rewire", "sdrf_like_rewire", "ppr_rewire", "ppr_matrix", "resistance_matrix"):
        m[f"rewiring.{name}.self_ms"] = self_ms(f"rewiring.{name}")
    m["spectral.max_residual"] = counters.get("spectral.max_residual", 0.0)
    m["spectral.decay_report.self_ms"] = self_ms("spectral.decay_report")
    for name in ("embed_instance", "measure_constants", "verify_reduction", "scale_instance", "rebuild_certificate"):
        m[f"reductions.{name}.self_ms"] = self_ms(f"reductions.{name}")
    m["reductions.measure_constants.cuts_scanned"] = counters.get("reductions.measure_constants.cuts_scanned", 0)
    m["cli.main.self_ms"] = self_ms("cli.main")
    return m
