"""The block-scored spectral solver against the per-candidate loop it replaced
(`gros_reference`): the same answer, the same first witness and the same float
mu2, bit for bit."""

import json
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gros_reference
from conftest import make_connected, make_gnp
from rewirelab import (
    Graph,
    GrosInstance,
    barbell_graph,
    build_graph,
    complete_graph,
    cycle_graph,
    decide_gros,
    matrix_of,
    random_regular_graph,
    rewiring,
    serialize_graph,
)
from rewirelab.cli import EXIT_NO, main
from rewirelab.errors import ExactLimitExceeded, SearchSpaceTooLarge


def _same(inst, **kwargs):
    got = decide_gros(inst, **kwargs)
    want = gros_reference.decide_gros(inst, **kwargs)
    assert got == want, (inst, kwargs)
    assert got.value_achieved.hex() == want.value_achieved.hex(), (inst, kwargs)
    return got


def _thresholds(best: float):
    """tau at the best float mu2, just above and just below it, and the fixed
    degenerate values: 0, +-1/2, 1/3, +-1 and two p/20."""
    at = Fraction(best)
    near = [at, at + Fraction(1, 10**6), at - Fraction(1, 10**6)]
    fixed = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(1), Fraction(-1)]
    return [t for t in near if -1 <= t <= 1] + fixed + [Fraction(7, 20), Fraction(-3, 20)]


def _corpus():
    rng = random.Random(1616)
    graphs = [
        Graph(n=1, edges=frozenset()),
        build_graph(2, []),
        build_graph(2, [(0, 1)]),
        build_graph(4, []),  # edgeless: every eigenvalue is 1/(0 + 1)
        build_graph(3, [(0, 1), (1, 2)]),  # K = 2 can remove every edge
        build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),  # removing a star edge isolates a leaf
        build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),  # disconnected; one toggle joins it
        cycle_graph(4),  # mu2 = 1/3 exactly
        cycle_graph(5),
        complete_graph(5),
        barbell_graph(3),
    ]
    graphs += [make_gnp(rng, rng.randrange(2, 9), rng.random()) for _ in range(8)]
    graphs += [make_connected(rng, rng.randrange(4, 9)) for _ in range(3)]
    return graphs


CORPUS = _corpus()


def _decide_corpus(budgets=(0, 1, 2)):
    count = 0
    for g in CORPUS:
        for k in budgets:
            if k == 2 and g.n > 7:
                continue  # the reference loop takes ~0.1 s per decision there
            for mode in ("signed", "absolute"):
                best = gros_reference.decide_gros(GrosInstance(g, k, 1, mode)).value_achieved
                for tau in _thresholds(best):
                    _same(GrosInstance(g, k, tau, mode))
                    count += 1
    return count


def test_decide_gros_matches_reference():
    assert _decide_corpus() > 1000


def test_decide_gros_matches_reference_in_small_blocks(monkeypatch):
    # 64-entry stacks: one matrix per block from n = 6 up, several below
    monkeypatch.setattr(rewiring, "_BLOCK_ENTRIES", 64)
    assert _decide_corpus(budgets=(0, 1)) > 500


def test_decide_gros_errors_keep_their_order():
    k6 = complete_graph(6)
    for solve in (decide_gros, gros_reference.decide_gros):
        with pytest.raises(ExactLimitExceeded):
            solve(GrosInstance(k6, 3, Fraction(1, 2)), exact_limit=5, max_candidates=1)
        with pytest.raises(SearchSpaceTooLarge):
            solve(GrosInstance(Graph(n=1, edges=frozenset()), 0, Fraction(1, 2)), max_candidates=0)


def test_propagation_stack_matches_matrix_of_bytes():
    rng = random.Random(1617)
    for n in (2, 3, 5, 8, 12):
        g = make_gnp(rng, n, rng.random())
        u, v = np.triu_indices(n, 1)
        pairs = list(zip(u.tolist(), v.tolist()))
        sets = [s for j in range(3) for s in combinations(range(len(pairs)), j)]
        sets = rng.sample(sets, min(len(sets), 40))
        width = max(map(len, sets))
        toggles = np.array([s + (len(pairs),) * (width - len(s)) for s in sets], np.int64)
        # an int8 adjacency, as decide_gros passes
        stack, flips = rewiring._propagation_stack(matrix_of(g, "adjacency").astype(np.int8), u, v, toggles)
        eigs = np.linalg.eigvalsh(stack)
        for s, mat, row, adj in zip(sets, stack, eigs, flips):
            toggled = Graph(n=n, edges=g.edges ^ {pairs[i] for i in s})
            want = matrix_of(toggled, "propagation")
            assert mat.tobytes() == want.tobytes(), (g, s)
            assert row.tobytes() == np.linalg.eigvalsh(want).tobytes(), (g, s)
            assert adj.dtype == np.int8 and (adj == matrix_of(toggled, "adjacency")).all(), (g, s)


def test_decide_gros_above_dense_limit(tmp_path, capsys):
    # n = 514 > DENSE_LIMIT: matrix_of would return CSR, which eigvalsh rejects
    g = random_regular_graph(514, 3, seed=5)
    path = tmp_path / "g514.txt"
    path.write_text(serialize_graph(g))
    assert main(["decide", "gros", str(path), "0", "-1", "--exact-limit-n", "600"]) == EXIT_NO
    out = json.loads(capsys.readouterr().out)
    want = np.linalg.eigvalsh(matrix_of(g, "propagation", dense_limit=g.n))[-2]
    assert out["answer"] == "no" and out["value"].hex() == float(want).hex()


@st.composite
def _instances(draw):
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = build_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    k = draw(st.integers(0, 2 if n <= 7 else 1))
    q = draw(st.integers(1, 20))
    tau = Fraction(draw(st.integers(-q, q)), q)
    return GrosInstance(g, k, tau, draw(st.sampled_from(["signed", "absolute"])))


@settings(max_examples=100, deadline=None)
@given(inst=_instances())
def test_decide_gros_property(inst):
    _same(inst)
