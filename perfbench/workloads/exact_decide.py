"""exact-decide: in-process decide_groc / decide_gros on a seeded stream.

Each round holds the same shapes with fresh graphs.  Every threshold is set
from an oracle computed here (exact conductance of every candidate, float mu2
of every candidate, Cheeger and sweep bounds for the K = 0 shapes), so each
operation has a designed answer and a designed first witness, and those are
checked for every seed.  The yes/no mix alternates, so both answers appear.

Shape counts are set from measured per-shape latencies so that a run of one
round holds at least 40 operations of each problem (its tail, the
11th-largest latency, is then p75 or above), each problem takes at least a
third of the timed wall time (every run record gives the shares under
`time_shares`), and each median and tail falls near the middle of a block of
one shape or of shapes of like latency: (9, 2) for the groc median, the
3-regular n = 20 shape for the groc tail, the 3-regular
n = 32 shape for both the gros median and tail, (9, 2) with n = 32 for the
overall median, and n = 20 with shapes of like latency for the overall
tail.  Tails sit
in blocks of 3-regular graphs where possible: the cost of a G(n, p) shape
varies from graph to graph, so a tail inside such a block moves with the
seed.  A block's middle matters: each of the three worker processes
runs at its own speed, so the ends of a block are the fastest and the
slowest process's operations.
"""

from __future__ import annotations

import importlib
import json
import math
from fractions import Fraction

import numpy as np

from workloads.base import InProcess
from common import (
    Op,
    edit_json,
    mu2_float,
    normalized_laplacian_dense,
    phi_of_toggles,
    regular_edges,
    rng_for,
    spread_in_time,
    toggle_sets,
    toggled,
    connected_gnp_edges,
    cut_counts,
)

NAME = "exact-decide"
NOMINAL_ROUND_S = 14.0

# (problem, n, budget, design, count); design is "alt" (yes/no alternating),
# "no", or a float: yes with the first witness near that share of candidates.
SHAPES = [
    ("groc", 8, 1, "alt", 1), ("groc", 9, 1, "alt", 1), ("groc", 10, 1, "alt", 1),
    ("groc", 11, 1, "alt", 1), ("groc", 12, 1, "alt", 1), ("groc", 6, 2, "alt", 1),
    ("groc", 7, 2, "alt", 1), ("groc", 8, 2, "alt", 1), ("groc", 9, 2, "alt", 19),
    ("groc", 10, 2, "alt", 2),
    ("groc", 16, 1, "alt", 1), ("groc", 20, 0, "alt", 9), ("groc", 22, 0, "alt", 2),
    ("gros", 6, 1, "no", 1), ("gros", 7, 1, "no", 1), ("gros", 8, 1, "no", 1),
    ("gros", 10, 1, "no", 1),
    ("gros", 6, 1, 0.5, 1), ("gros", 7, 1, 0.5, 1), ("gros", 8, 1, 0.5, 1),
    ("gros", 9, 1, 0.5, 1), ("gros", 10, 1, 0.5, 1),
    ("gros", 6, 2, "no", 1), ("gros", 8, 2, 0.08, 1), ("gros", 16, 1, 0.1, 1),
    ("gros", 32, 0, "alt", 27), ("gros", 48, 0, "alt", 4),
]


def _first_wins(values):
    """Indices whose value is above every earlier value (index 0 included)."""
    out, best = [], None
    for i, x in enumerate(values):
        if best is None or x > best:
            out.append(i)
            best = x
    return out


def _design_groc(rng, n, k, edges, want_yes):
    cands = list(toggle_sets(n, k))
    phis = phi_of_toggles(n, edges, cands)
    best = max(phis)
    if want_yes or best >= 1:
        # phi0 = phi of an earlier-beating candidate makes it the first witness
        r = rng.choice(_first_wins(phis))
        return phis[r], cands[r], best, len(cands)
    return min(Fraction(1), best + Fraction(1, 1000)), None, best, len(cands)


def _grid(x: float, up: bool) -> Fraction:
    scale = 10**7
    return Fraction(math.ceil(x * scale) if up else math.floor(x * scale), scale)


def _design_gros(rng, n, k, edges, design):
    """tau sits 2e-6 above the chosen candidate's mu2 and at least as far below
    every earlier one, far beyond float error, so the exact answer is known."""
    cands = list(toggle_sets(n, k))
    mus = [mu2_float(n, toggled(edges, t)) for t in cands]
    if design == "no":
        return _grid(min(mus) - 1e-6, up=False), None, min(mus), len(cands)
    running, wins = 1.0, []
    for i, x in enumerate(mus):
        if x < running - 4e-6:
            wins.append(i)
        running = min(running, x)
    r = max([i for i in wins if i <= design * len(cands)] or wins[:1])
    return _grid(mus[r] + 2e-6, up=False), cands[r], min(mus), len(cands)


def _kernel_groc(rng, n, edges, want_yes):
    """Cheeger's lambda2 / 2 <= phi <= any sweep cut decides the K = 0 answer."""
    vals, vecs = np.linalg.eigh(normalized_laplacian_dense(n, edges))
    lam2 = float(vals[1])
    order = np.argsort(vecs[:, 1], kind="stable").tolist()
    sweep = min(_cut_phi(n, edges, set(order[: i + 1])) for i in range(n - 1))
    phi0 = _grid(lam2 / 2 - 1e-9, up=False) if want_yes else sweep + Fraction(1, 10**4)
    return phi0, lam2, sweep


def _cut_phi(n, edges, side):
    boundary, vol = cut_counts(edges, side)
    return Fraction(boundary, min(vol, 2 * len(edges) - vol))


def _decision_text(rl, decision, objective):
    return json.dumps(rl.decision_to_json(decision, objective), sort_keys=True, indent=2) + "\n"


def round_ops(rl, seed: int, r: int) -> list[Op]:
    ops = []
    for problem, n, k, design, count in SHAPES:
        for j in range(count):
            tag = design if isinstance(design, str) else "yes"
            op_id = f"r{r}.{problem}.n{n}k{k}.{tag}{j}"
            rng = rng_for(seed, op_id)
            want_yes = design != "no" and (design != "alt" or rng.random() < 0.5)
            if k == 0:
                edges = regular_edges(rng, n, 3)
            else:
                edges = connected_gnp_edges(rng, n, 0.3 if n >= 16 else 0.5, 2)
            ops.append(_make_op(rl, op_id, problem, n, k, design, want_yes, rng, edges))
    return spread_in_time([[op] for op in ops], r)


def _make_op(rl, op_id, problem, n, k, design, want_yes, rng, edges):
    if problem == "groc" and k == 0:
        phi0, lam2, sweep = _kernel_groc(rng, n, edges, want_yes)
        threshold, witness = phi0, (() if want_yes else None)

        def check_value(d):
            if lam2 / 2 - 1e-9 <= d.value_achieved <= float(sweep) + 1e-12:
                return []
            return [f"phi {d.value_achieved} outside [{lam2 / 2}, {float(sweep)}]"]

    elif problem == "groc":
        threshold, witness, best, _ = _design_groc(rng, n, k, edges, want_yes)

        def check_value(d):
            return [] if d.value_achieved == float(best) else [f"value {d.value_achieved} != {float(best)}"]

    else:
        if k == 0:
            mu = mu2_float(n, edges)
            threshold = _grid(mu + 1e-6, up=True) if want_yes else _grid(mu - 1e-6, up=False)
            witness, best = (() if want_yes else None), mu
        else:
            threshold, witness, best, _ = _design_gros(rng, n, k, edges, design)

        def check_value(d):
            return [] if abs(d.value_achieved - best) <= 1e-9 else [f"value {d.value_achieved} != {best}"]

    expect = "yes" if witness is not None else "no"
    want_witness = edit_json(frozenset(edges), witness) if witness is not None else None

    def check(d):
        problems = []
        if d.answer != expect:
            problems.append(f"answer {d.answer}, designed {expect}")
        got = rl.edit_set_to_json(d.witness)
        if got != want_witness:
            problems.append(f"witness {got}, designed {want_witness}")
        return problems + check_value(d)

    objective = "conductance" if problem == "groc" else "mu2"
    return Op(op_id, f"{problem}.n{n}k{k}", problem, ("decide", (problem, n, frozenset(edges), k, threshold)), check,
              exact=lambda d: _decision_text(rl, d, objective), info={"n": n, "k": k})


def make_call(rl, kind, data):
    """The program side of an op, built in the worker: the Graph, the instance
    and the solver call at the CLI default, decision_only=False."""
    problem, n, edges, k, threshold = data
    g = rl.Graph(n=n, edges=edges)
    if problem == "groc":
        inst = rl.GrocInstance(g, k, threshold)
        return lambda: rl.decide_groc(inst)
    inst = rl.GrosInstance(g, k, threshold)
    return lambda: rl.decide_gros(inst)


_ORDER: dict = {}


def witness_index(n: int, k: int, witness) -> int:
    """Position of a witness edit set in the solvers' (size, lex) order."""
    if (n, k) not in _ORDER:
        _ORDER[n, k] = {t: i for i, t in enumerate(toggle_sets(n, k))}
    return _ORDER[n, k][tuple(sorted(witness))]


def warm_up(rl) -> None:
    """First calls pay for BLAS start-up and lazy imports; pay them here."""
    np.linalg.eigh(np.eye(300) + 0.01)
    g = rl.cycle_graph(6)
    rl.decide_groc(rl.GrocInstance(g, 1, Fraction(1, 2)))
    rl.decide_gros(rl.GrosInstance(g, 1, Fraction(1, 2)))


class Workload(InProcess):
    NAME = NAME
    MODULE = "workloads.exact_decide"
    NOMINAL_ROUND_S = NOMINAL_ROUND_S

    def __init__(self):
        self.rl = importlib.import_module("rewirelab")

    def round_ops(self, seed, r):
        return round_ops(self.rl, seed, r)

    def outcomes(self, rows):
        out = {}
        for op, _, d, problems in rows:
            if not problems:
                w = d.witness
                first = None if w is None else witness_index(op.info["n"], op.info["k"], w.additions | w.removals)
                out[op.id] = (op.group, d.answer, first)
        return out
