"""spectral-heuristics: the floating-point paths on graphs above the exact limits.

Nothing here reaches `sturm` or the exact cut scans, so an optimisation of
those kernels must read "no change" on this workload; Lanczos, `matrix_of`
and PPR work shows up here instead.  The "groc" latencies are the operations
on the conductance side (sweep cuts, resistance/curvature and PPR rewiring),
the "gros" latencies those on the spectral side (summaries, energy decay,
greedy spectral-gap ascent).

Float summaries are checked by their residual bound, by the regular-graph
identity mu2 = (d (1 - lambda2) + 1) / (d + 1), and by dense references; never
by bytes, because the Lanczos path is not reproducible bit for bit.  Discrete
outputs (edit sets, sweep cuts) are pinned by digest for the default seed.
"""

from __future__ import annotations

import importlib
import json

import numpy as np

from common import (
    Op,
    components,
    cut_counts,
    normalized_laplacian_dense,
    propagation_dense,
    regular_edges,
    rng_for,
    sparse_connected_edges,
)
from workloads.base import InProcess

NAME = "spectral-heuristics"
RESIDUAL_MAX = 1e-6
AGREE = 1e-8

# (kind, family, n, count): families are "reg" (3-regular) and "gnp" (G(n, 8/n), connected).
# Each latency group gets at least 40 operations in the one round a run
# holds, so its tail (the 11th-largest latency) is at or above p75.
# Dense-path sweeps at n = 512 give the conductance side enough operations at
# about 50 ms each; the issue's shapes there take 0.2 s or more.  The counts
# put the groc median in the n = 512 sweep block, the groc and overall tails
# in the n = 500 PPR block, the gros median among the n = 512 and 3000
# summaries, the gros tail in the gnp n = 5000 block and the overall median
# among the n = 512 summaries, each near the middle of its block: the three
# worker processes each run at their own speed, so a block's ends are the
# fastest and the slowest process's operations.  PPR at n = 500 runs on
# 3-regular graphs because on G(n, 8/n) graphs its cost varied twofold from
# graph to graph, which moved the tail with the seed.  Ops run in this order,
# grouped by shape: interleaving small dense and Lanczos calls with the large
# BLAS calls made their latencies depend on what ran just before.
SHAPES = [
    ("summary", "reg", 200, 3), ("summary", "gnp", 200, 3),
    ("summary", "reg", 512, 4), ("summary", "gnp", 512, 4),
    ("summary", "reg", 1000, 4), ("summary", "gnp", 1000, 4),
    ("summary", "reg", 3000, 4), ("summary", "gnp", 3000, 4),
    ("summary", "reg", 5000, 6), ("summary", "gnp", 5000, 6),
    ("decay", "gnp", 2000, 2),
    ("greedy", "gnp", 40, 1),
    ("sweep", "gnp", 512, 13), ("sweep", "reg", 512, 13),
    ("ppr", "reg", 500, 10), ("ppr", "gnp", 1500, 1),
    ("sdrf", "gnp", 200, 1),
    ("sweep", "gnp", 1500, 2), ("sweep", "reg", 1500, 1),
]
GROC_SIDE = {"ppr", "sdrf", "sweep"}


def _edges(family, n, rng):
    if family == "reg":
        return regular_edges(rng, n, 3)
    return sparse_connected_edges(rng.randrange(1 << 30), n, 8.0)


def _dense_spectra(n, edges):
    lam = np.linalg.eigvalsh(normalized_laplacian_dense(n, edges))
    mu = np.linalg.eigvalsh(propagation_dense(n, edges))
    return float(lam[1]), float(mu[-2]), float(mu[0])


def _check_summary(s, n, edges, family, dense_ref):
    problems = []
    if not s.residual_bound <= RESIDUAL_MAX:
        problems.append(f"residual {s.residual_bound} > {RESIDUAL_MAX}")
    if not s.connected:
        problems.append("connected graph reported disconnected")
    if family == "reg" and abs(s.mu2 - (3 * (1 - s.lambda2) + 1) / 4) > AGREE:
        problems.append(f"regular identity broken: mu2 {s.mu2}, lambda2 {s.lambda2}")
    if dense_ref is not None:
        got = (s.lambda2, s.mu2, s.mu_min)
        if max(abs(a - b) for a, b in zip(got, dense_ref)) > AGREE:
            problems.append(f"summary {got} != dense reference {dense_ref}")
    if not (0 < s.lambda2 <= 2 and -1 <= s.mu_min <= s.mu2 < 1):
        problems.append(f"summary out of range: {s}")
    return problems


def _edits_text(rl, edits):
    return json.dumps(rl.edit_set_to_json(edits), sort_keys=True)


def _lambda2(n, edges):
    return float(np.linalg.eigvalsh(normalized_laplacian_dense(n, edges))[1])


def round_ops(rl, seed, r):
    ops = []
    for kind, family, n, count in SHAPES:
        for j in range(count):
            op_id = f"r{r}.{kind}.{family}{n}.{j}"
            rng = rng_for(seed, op_id)
            edges = frozenset(_edges(family, n, rng))
            group = "groc" if kind in GROC_SIDE else "gros"
            ops.append(_OPS[kind](rl, op_id, group, family, n, edges, rng))
    return ops


def make_call(rl, kind, data):
    """The program side of an op, built in the worker."""
    n, edges, *extra = data
    g = rl.Graph(n=n, edges=edges)
    if kind == "summary":
        return lambda: rl.spectral_summary(g)
    if kind == "decay":
        return lambda: rl.decay_report(g, extra[0], 32)
    if kind == "greedy":
        return lambda: rl.greedy_rewire(g, 2)
    if kind == "ppr":
        return lambda: rl.ppr_rewire(g, 0.15, 1e-4, 4)
    if kind == "sdrf":
        return lambda: rl.sdrf_like_rewire(g, 8, 0.25)
    return lambda: rl.conductance_sweep(g)


def _summary_op(rl, op_id, group, family, n, edges, rng):
    dense_ref = _dense_spectra(n, edges) if n <= 512 else None
    iterative = n > 512

    def check(s):
        problems = _check_summary(s, n, edges, family, dense_ref)
        if (s.method == "iterative") != iterative:
            problems.append(f"method {s.method} at n = {n}")
        return problems

    return Op(op_id, f"summary.{family}{n}", group, ("summary", (n, edges)), check, repeat=iterative)


def _decay_op(rl, op_id, group, family, n, edges, rng):
    x = np.random.default_rng(rng.randrange(1 << 30)).standard_normal((n, 16))
    p = propagation_dense(n, edges) if n <= 2048 else None
    e0 = float(np.sum(x * (x - p @ x)))

    def check(rows):
        problems = []
        if len(rows) != 33:
            problems.append(f"{len(rows)} rows for 32 layers")
        if abs(rows[0][1] - e0) > 1e-8 * max(1.0, abs(e0)):
            problems.append(f"E0 {rows[0][1]} != {e0}")
        for layer, energy, s_bound, _ in rows:
            if energy < -1e-9 or energy > s_bound * (1 + 1e-9) + 1e-9:
                problems.append(f"layer {layer}: energy {energy} outside [0, {s_bound}]")
                break
        return problems

    return Op(op_id, f"decay.{family}{n}", group, ("decay", (n, edges, x)), check)


def _greedy_op(rl, op_id, group, family, n, edges, rng):
    lam0 = _lambda2(n, edges)

    def check(out):
        edits, trace = out
        final = (frozenset(edges) | edits.additions) - edits.removals
        problems = []
        if any(b <= a for a, b in zip(trace, trace[1:])):
            problems.append(f"trace not strictly increasing: {trace}")
        if len(trace) - 1 != edits.size or edits.size > 2:
            problems.append(f"{edits.size} edits for a trace of {len(trace)}")
        if abs(trace[0] - lam0) > AGREE or abs(trace[-1] - _lambda2(n, final)) > AGREE:
            problems.append("trace does not match lambda2 of the input and output graphs")
        return problems

    return Op(op_id, f"greedy.{family}{n}", group, ("greedy", (n, edges)), check,
              exact=lambda out: _edits_text(rl, out[0]))


def _ppr_op(rl, op_id, group, family, n, edges, rng):
    def check(out):
        edits, trace = out
        problems = []
        if edits.removals or any(p in edges or p[0] >= p[1] for p in edits.additions):
            problems.append("PPR rewiring must add canonical non-edges only")
        if any(score <= 1e-4 for _, _, score in trace):
            problems.append("kept a score at or below epsilon")
        if len(trace) > 4 * n:
            problems.append("more than cap entries kept per node")
        return problems

    return Op(op_id, f"ppr.{family}{n}", group, ("ppr", (n, edges)), check,
              exact=lambda out: _edits_text(rl, out[0]))


def _sdrf_op(rl, op_id, group, family, n, edges, rng):
    def check(out):
        edits, trace = out
        final = (frozenset(edges) | edits.additions) - edits.removals
        problems = []
        if len(trace) != 8 or edits.size > 8:
            problems.append(f"{edits.size} edits, {len(trace)} steps for a budget of 8")
        if len(components(n, final)) > len(components(n, edges)):
            problems.append("a removal disconnected the graph")
        return problems

    return Op(op_id, f"sdrf.{family}{n}", group, ("sdrf", (n, edges)), check,
              exact=lambda out: _edits_text(rl, out[0]))


def _sweep_op(rl, op_id, group, family, n, edges, rng):
    def check(cut):
        boundary, vol = cut_counts(edges, set(cut.subset))
        if (boundary, vol, 2 * len(edges) - vol) != (cut.boundary_size, cut.vol_s, cut.vol_complement):
            return [f"cut counts {cut.boundary_size, cut.vol_s, cut.vol_complement} != {boundary, vol}"]
        if cut.phi * min(vol, 2 * len(edges) - vol) != boundary:
            return [f"phi {cut.phi} is not boundary over the smaller volume"]
        return []

    def exact(cut):
        return json.dumps([list(cut.subset), f"{cut.phi.numerator}/{cut.phi.denominator}"])

    return Op(op_id, f"sweep.{family}{n}", group, ("sweep", (n, edges)), check, exact=exact)


_OPS = {
    "summary": _summary_op, "decay": _decay_op, "greedy": _greedy_op,
    "ppr": _ppr_op, "sdrf": _sdrf_op, "sweep": _sweep_op,
}


def warm_up(rl) -> None:
    """First calls pay for BLAS start-up and lazy imports; pay them here."""
    np.linalg.eigh(np.eye(300) + 0.01)
    rl.spectral_summary(rl.random_regular_graph(600, 3, 1))
    rl.spectral_summary(rl.cycle_graph(20))


class Workload(InProcess):
    NAME = NAME
    MODULE = "workloads.spectral_heuristics"
    NOMINAL_ROUND_S = 14.0

    def __init__(self):
        self.rl = importlib.import_module("rewirelab")

    def round_ops(self, seed, r):
        return round_ops(self.rl, seed, r)

    def setup_checks(self, seed):
        """The Lanczos path against dense eigh on graphs just above DENSE_LIMIT."""
        problems = []
        n = self.rl.graph.DENSE_LIMIT + 8
        for family in ("reg", "gnp"):
            edges = _edges(family, n, rng_for(seed, "setup", family))
            s = self.rl.spectral_summary(self.rl.Graph(n=n, edges=frozenset(edges)))
            problems += [f"n = {n} {family}: {p}" for p in _check_summary(s, n, edges, family, _dense_spectra(n, edges))]
        return problems

    def trace_extras(self, rows, out):
        """Each iterative summary was repeated once; count results that differ in any bit."""
        differ = 0
        for op, _, a, problems in rows:
            if op.repeat and not problems:
                b = out["repeats"][op.id]
                differ += (a.lambda2, a.mu2, a.mu_min) != (b.lambda2, b.mu2, b.mu_min)
        return {"spectral.nonidentical_repeats": differ}
