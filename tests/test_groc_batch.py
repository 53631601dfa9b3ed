"""The batched conductance solvers against the per-candidate loops they
replaced (`groc_reference`): the same answer, the same first witness and the
same value, bit for bit."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groc_reference
from conftest import make_connected, make_gnp
from rewirelab import (
    Graph,
    GrocInstance,
    barbell_graph,
    build_graph,
    complete_graph,
    cuts,
    cycle_graph,
    decide_groc,
    greedy_rewire,
    rewiring,
    serialize_graph,
)
from rewirelab.cli import main
from rewirelab.errors import EmptySide, ExactLimitExceeded, SearchSpaceTooLarge


def _same(inst, **kwargs):
    got = decide_groc(inst, **kwargs)
    want = groc_reference.decide_groc(inst, **kwargs)
    assert got == want, (inst, kwargs)
    assert got.value_achieved.hex() == want.value_achieved.hex(), (inst, kwargs)
    return got


def _thresholds(best: Fraction):
    """phi0 on both sides of the optimum, at it, at the ends, and a float whose
    denominator is 2^55."""
    near = [best, best - Fraction(1, 1000), best + Fraction(1, 1000)]
    return [x for x in near if 0 <= x <= 1] + [Fraction(0), Fraction(1), 0.1]


def _corpus():
    rng = random.Random(1515)
    graphs = [
        build_graph(2, [(0, 1)]),
        build_graph(3, []),  # no edges: every candidate with an edge is still disconnected
        build_graph(3, [(0, 1), (1, 2)]),  # K = 2 can remove every edge
        build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),  # removing a star edge isolates a leaf
        build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),  # disconnected; one toggle joins it
        cycle_graph(5),
        complete_graph(5),
        barbell_graph(3),
    ]
    graphs += [make_gnp(rng, rng.randrange(2, 9), rng.random()) for _ in range(10)]
    graphs += [make_connected(rng, rng.randrange(4, 9)) for _ in range(4)]
    return graphs


CORPUS = _corpus()


def _decide_corpus(budgets=(0, 1, 2)):
    count = 0
    for g in CORPUS:
        for k in budgets:
            if k == 2 and g.n > 7:
                continue  # the reference loop takes ~0.1 s per decision there
            best = Fraction(groc_reference.decide_groc(GrocInstance(g, k, 1)).value_achieved).limit_denominator(10**6)
            for phi0 in _thresholds(best):
                _same(GrocInstance(g, k, phi0))
                count += 1
    return count


def test_decide_groc_matches_reference():
    assert _decide_corpus() > 300


def test_decide_groc_matches_reference_in_small_chunks(monkeypatch):
    # 8-side table chunks and 64-entry blocks: candidate blocks cross side chunks,
    # the per-pair tables split the sides, and candidates come in several groups
    monkeypatch.setattr(cuts, "_CHUNK_BITS", 3)
    monkeypatch.setattr(cuts, "_BLOCK_ENTRIES", 64)
    monkeypatch.setattr(rewiring, "_BLOCK_ENTRIES", 64)
    assert _decide_corpus(budgets=(0, 1)) > 150


def test_decide_groc_compares_huge_denominators_exactly():
    # 1e-30 and 1 - 2^-53 have denominators far beyond int64 products
    g = cycle_graph(6)
    for phi0 in (1e-30, 1 - 2.0**-53, 0.1, Fraction(1, 3)):
        _same(GrocInstance(g, 1, phi0))
    assert decide_groc(GrocInstance(build_graph(2, [(0, 1)]), 0, 1 - 2.0**-53)).answer == "yes"


def test_decide_groc_errors_keep_their_order():
    k6 = complete_graph(6)
    with pytest.raises(ExactLimitExceeded):
        decide_groc(GrocInstance(k6, 3, 0.5), exact_limit=5, max_candidates=1)
    with pytest.raises(SearchSpaceTooLarge):
        decide_groc(GrocInstance(Graph(n=1, edges=frozenset()), 0, 0.5), max_candidates=0)
    with pytest.raises(EmptySide):
        decide_groc(GrocInstance(Graph(n=1, edges=frozenset()), 2, 0.5))


def test_decide_groc_single_vertex_exits_4(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text(serialize_graph(Graph(n=1, edges=frozenset())))
    assert main(["decide", "groc", str(path), "1", "1/2"]) == 4
    assert "fewer than 2 vertices" in capsys.readouterr().err


@st.composite
def _instances(draw):
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = build_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))
    k = draw(st.integers(0, 2 if n <= 8 else 1))
    q = draw(st.integers(1, 12))
    phi0 = draw(st.one_of(st.builds(Fraction, st.integers(0, q), st.just(q)), st.floats(0, 1)))
    return GrocInstance(g, k, phi0)


@settings(max_examples=100, deadline=None)
@given(inst=_instances())
def test_decide_groc_property(inst):
    _same(inst)


def test_greedy_conductance_matches_reference():
    rng = random.Random(909)
    graphs = [barbell_graph(3), barbell_graph(5), cycle_graph(8), complete_graph(4), build_graph(5, [(0, 1), (2, 3)])]
    graphs += [make_gnp(rng, rng.randrange(2, 11), rng.random()) for _ in range(8)]
    for g in graphs:
        for budget in (0, 1, 3):
            for limit in (cuts.EXACT_CONDUCTANCE_LIMIT, 4):  # 4: larger graphs score by sweep cut
                got = greedy_rewire(g, budget, "conductance", exact_limit=limit)
                want = groc_reference.greedy_rewire(g, budget, "conductance", exact_limit=limit)
                assert got == want, (g, budget, limit)
                assert [x.hex() for x in got[1]] == [x.hex() for x in want[1]]


def test_least_ratio_decides_float_ties_by_integers():
    a = 2**30
    # a/(a-1) > (a+1)/a, yet both quotients round to the same float
    assert float(a) / (a - 1) == float(a + 1) / a
    num, den = np.array([[a, a + 1], [a + 1, a], [5, 5]]), np.array([[a - 1, a], [a, a - 1], [0, 0]])
    assert cuts._least_ratio(num, den).tolist() == [[False, True], [True, False], [False, False]]
