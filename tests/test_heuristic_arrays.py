"""The array passes of the three heuristics against the per-candidate loops they
replaced (`heuristics_reference`): the same edits, and traces equal element for
element, with the same element types and, for floats, the same bits.

Greedy's lambda2 values are dense LAPACK `eigh` results at the OpenBLAS thread count
of the test process (the machine's cores: the tier-1 run sets no
OPENBLAS_NUM_THREADS); one stacked `eigh` and one `eigh` per matrix agree bit for bit
at any one count.
"""

import random

import numpy as np
import pytest

import heuristics_reference as ref
from conftest import make_connected, make_gnp
from rewirelab import Graph, barbell_graph, build_graph, cycle_graph, greedy_rewire, ppr_rewire, rewiring, sdrf_like_rewire


def _bits(x):
    """x with its type, floats by their bits, tuples element by element."""
    if type(x) is tuple:
        return tuple(map(_bits, x))
    return type(x), x.hex() if type(x) is float else x


def _same(got, want):
    """Equal edits, and traces of the same elements, types and bits."""
    assert got[0] == want[0]
    assert [_bits(x) for x in got[1]] == [_bits(x) for x in want[1]]


def _path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def _disjoint(*parts):
    """The disjoint union of the graphs, numbered one after another."""
    edges, base = [], 0
    for part in parts:
        edges += [(base + a, base + b) for a, b in part.edges]
        base += part.n
    return build_graph(base, edges)


def _greedy_corpus():
    rng = random.Random(2911)
    graphs = [_path(4), _path(9), _path(16), barbell_graph(3), barbell_graph(5), barbell_graph(8),
              cycle_graph(12), build_graph(2, [(0, 1)]), build_graph(1, []),
              # disconnected without isolated vertices: two and three components
              _disjoint(cycle_graph(4), _path(3)), _disjoint(barbell_graph(3), cycle_graph(5)),
              _disjoint(_path(2), _path(2), cycle_graph(3)), _disjoint(_path(2), _path(2))]
    while len(graphs) < 45:
        g = make_gnp(rng, rng.randrange(4, 17), rng.uniform(0.1, 0.8))
        if g.n == 1 or min(g.degrees) > 0:
            graphs.append(g)
    graphs += [make_connected(rng, 24), make_gnp(rng, 30, 0.4), make_connected(rng, 40)]
    return graphs


def test_greedy_spectral_matches_the_per_toggle_loop():
    scored = 0
    for g in _greedy_corpus():
        budget = 2 if g.n <= 24 else 1
        got = greedy_rewire(g, budget)
        _same(got, ref.greedy_rewire(g, budget))
        scored += len(got[1]) - 1
    assert scored > 60


def test_greedy_spectral_at_n_40_takes_the_same_two_steps():
    g = make_gnp(random.Random(2912), 40, 0.2)
    got = greedy_rewire(g, 2)
    _same(got, ref.greedy_rewire(g, 2))
    assert len(got[1]) == 3


def test_greedy_spectral_scores_only_toggles_that_keep_lambda2_positive(monkeypatch):
    # one eigh row per toggle that leaves the graph connected without an isolated vertex:
    # bridges and the two-component joins are found without a search per toggle
    rows = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: rows.append(len(a)) or eigh(a))
    for g in _greedy_corpus():
        rows.clear()
        rewiring._best_spectral_toggle(g)
        toggled = (rewiring._toggled(g, [p]) for p in rewiring._all_pairs(g.n))
        kept = [h for h in toggled if min(h.degrees) > 0 and h.is_connected()]
        assert sum(rows) == len(kept), sorted(g.edges)


@pytest.mark.parametrize("rows", [1, 3])
def test_greedy_spectral_is_the_same_in_small_blocks(monkeypatch, rows):
    corpus = _greedy_corpus()[:30]
    want = [greedy_rewire(g, 2) for g in corpus]
    for g, expected in zip(corpus, want):
        monkeypatch.setattr(rewiring, "_BLOCK_ENTRIES", rows * g.n * g.n)
        _same(greedy_rewire(g, 2), expected)


def test_greedy_spectral_loop_above_dense_limit_agrees(monkeypatch):
    # past DENSE_LIMIT greedy keeps one spectral_summary per toggle; lower the limit to
    # run that loop on graphs small enough for the batch
    corpus = _greedy_corpus()[:25]
    want = [greedy_rewire(g, 2) for g in corpus]
    monkeypatch.setattr(rewiring, "DENSE_LIMIT", 0)
    monkeypatch.setattr(rewiring, "_best_spectral_toggle", None)  # never reached
    for g, expected in zip(corpus, want):
        _same(greedy_rewire(g, 2), expected)


def _sdrf_corpus():
    rng = random.Random(2913)
    graphs = [_path(6), cycle_graph(7), barbell_graph(4), build_graph(5, []), build_graph(4, [(0, 1), (2, 3)]),
              Graph(n=6, edges=frozenset((a, b) for a in range(6) for b in range(a + 1, 6))),
              _disjoint(barbell_graph(3), _path(4), build_graph(2, []))]
    for _ in range(80):
        graphs.append(make_gnp(rng, rng.randrange(4, 31), rng.uniform(0.1, 0.8)))
    graphs += [make_gnp(rng, 60, 0.08), make_connected(rng, 90), make_gnp(rng, 200, 8 / 200)]
    return graphs


def test_sdrf_matches_the_per_pair_loop():
    rng = random.Random(2914)
    steps = {}
    for g in _sdrf_corpus():
        fractions = (0.0, 0.25, 0.5, 1.0) if g.n <= 30 else (0.25,)
        for fraction in fractions:
            budget = 8 if g.n > 30 else rng.randrange(1, 9)
            got = sdrf_like_rewire(g, budget, fraction)
            _same(got, ref.sdrf_like_rewire(g, budget, fraction))
            for step in got[1]:
                steps[step[0]] = steps.get(step[0], 0) + 1
    assert min(steps.get(kind, 0) for kind in ("add", "remove", "skip_removal", "skip_addition")) > 0, steps
    assert steps["remove"] > 200 and steps["add"] > 500, steps


def _ppr_corpus():
    rng = random.Random(2915)
    two_k4 = build_graph(8, [(u, v) for c in (0, 4) for u in range(c, c + 4) for v in range(u + 1, c + 4)])
    graphs = [build_graph(1, []), build_graph(2, [(0, 1)]), build_graph(3, []), cycle_graph(9), two_k4, _path(7)]
    for _ in range(40):
        graphs.append(make_gnp(rng, rng.randrange(2, 41), rng.uniform(0.05, 0.8)))
    return graphs


def test_ppr_matches_the_per_row_loop():
    for g in _ppr_corpus():
        for cap in sorted({0, 1, 4, 100, max(g.n - 2, 0), g.n - 1, g.n}):
            for epsilon in (0.0, 1e-4, 0.01, 0.05):
                _same(ppr_rewire(g, 0.15, epsilon, cap), ref.ppr_rewire(g, 0.15, epsilon, cap))
