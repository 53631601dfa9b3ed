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
from conftest import make_connected, make_connected_regular, make_gnp
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


def _first_wins(phis):
    """The values above every earlier value: each is the first witness at its own phi0."""
    wins = []
    for phi in phis:
        if not wins or phi > wins[-1]:
            wins.append(phi)
    return wins


def _floor(g, k):
    """The exact conductance of the first set with the greatest bound, the floor the
    bounded search starts from, or None when the search does not take the bound."""
    u, v = np.triu_indices(g.n, 1)
    toggles = next(rewiring._toggle_blocks(len(u), k, rewiring._BLOCK_ENTRIES))
    phi = cuts._ToggledConductance(g, toggles, (u, v))
    if phi.exact.all():
        return None
    top = np.argsort(-phi.num / phi.den, kind="stable")[:1]
    phi.refine(top)
    return Fraction(int(phi.num[top[0]]), int(phi.den[top[0]]))


def _hazard_thresholds(g, k, phis):
    """phi0 at every first-win value and just off it as a float, at the floor and at the
    optimum, past the optimum, at 0 and 1, and at floats with huge denominators."""
    best, floor = max(phis), _floor(g, k)
    wins = _first_wins(phis)
    out = wins + [float(x) for x in wins] + [best, best + Fraction(1, 1000), Fraction(0), Fraction(1)]
    out += [0.1, 1e-30, 1 - 2.0**-53] + ([floor] if floor is not None else [])
    return [x for x in out if 0 <= x <= 1]


def _bounded_batches(monkeypatch):
    """A list that gets, per scored batch, whether it took the bound."""
    bounded = []
    refine_greatest = cuts._ToggledConductance.refine_greatest

    def spy(self, ties=False):
        bounded.append(not self.exact.all())
        return refine_greatest(self, ties)

    monkeypatch.setattr(cuts._ToggledConductance, "refine_greatest", spy)
    return bounded


def _hazard_corpus(graphs, budgets, monkeypatch):
    """Decide every graph at every budget and hazard threshold against the reference;
    returns (decisions, decisions whose search took the bound)."""
    bounded = _bounded_batches(monkeypatch)
    count = 0
    for g in graphs:
        for k in budgets:
            candidates = list(groc_reference.candidate_conductances(g, k))
            for phi0 in _hazard_thresholds(g, k, [phi for _, phi in candidates]):
                got = decide_groc(GrocInstance(g, k, phi0))
                want = groc_reference.decide_from(g, candidates, phi0)
                assert got == want, (g, k, phi0)
                assert got.value_achieved.hex() == want.value_achieved.hex(), (g, k, phi0)
                count += 1
    return count, sum(bounded)


def _star(n):
    return build_graph(n, [(0, v) for v in range(1, n)])


def test_bounded_search_keeps_the_first_witness(monkeypatch):
    # K = 2 at n = 8-10 takes the bound at the default sizes; a cycle and a 3-regular graph
    # tie at the maximum, K8 ties everywhere, and two removed star edges disconnect (0/1)
    rng = random.Random(1919)
    graphs = [make_gnp(rng, 9, 0.5) for _ in range(3)] + [make_connected(rng, 9), make_gnp(rng, 10, 0.4)]
    graphs += [cycle_graph(9), make_connected_regular(rng, 10, 3), complete_graph(8), _star(9)]
    count, bounded = _hazard_corpus(graphs, (2,), monkeypatch)
    assert count > 120 and bounded == count


def test_bounded_search_keeps_the_first_witness_in_small_blocks(monkeypatch):
    # 64-entry blocks: the bound runs at K = 1 and 2, its refining passes split the sides
    # into tables of a few sides each, and the rows into several blocks; with 8-side
    # chunks only graphs of n <= 4 keep one chunk and take the bound
    monkeypatch.setattr(cuts, "_BLOCK_ENTRIES", 64)
    monkeypatch.setattr(rewiring, "_BLOCK_ENTRIES", 64)
    rng = random.Random(2323)
    graphs = [make_gnp(rng, rng.randrange(4, 8), 0.5) for _ in range(4)] + [make_connected(rng, 6)]
    graphs += [cycle_graph(6), complete_graph(5), _star(6), build_graph(4, [(0, 1), (2, 3)])]
    count, bounded = _hazard_corpus(graphs, (1, 2), monkeypatch)
    assert count > 150 and bounded > count // 2
    monkeypatch.setattr(cuts, "_CHUNK_BITS", 3)
    small = [cycle_graph(4), complete_graph(4), _star(4), build_graph(4, [(0, 1), (1, 2)])] + graphs
    count, bounded = _hazard_corpus(small, (1, 2), monkeypatch)
    assert count > 150 and 0 < bounded < count


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


def _same_greedy(g, budget):
    got = greedy_rewire(g, budget, "conductance")
    want = groc_reference.greedy_rewire(g, budget, "conductance")
    assert got == want, g
    assert [x.hex() for x in got[1]] == [x.hex() for x in want[1]]


def test_greedy_conductance_matches_reference_through_the_bound(monkeypatch):
    # 64-entry blocks make every single-toggle batch above n = 3 take the bound; cycles and
    # complete graphs tie at the greatest toggle, so the first greatest pair must survive
    monkeypatch.setattr(cuts, "_BLOCK_ENTRIES", 64)
    bounded = _bounded_batches(monkeypatch)
    rng = random.Random(4242)
    graphs = [cycle_graph(7), complete_graph(5), barbell_graph(3), build_graph(6, [(0, 1), (2, 3), (4, 5)])]
    graphs += [make_gnp(rng, rng.randrange(4, 9), rng.random()) for _ in range(6)]
    for g in graphs:
        _same_greedy(g, 3)
    assert sum(bounded) > 10


def test_bounded_search_holds_with_looser_bounds(monkeypatch):
    # any upper bounds must give the reference's answers: raise each bound at random to the
    # greatest bound or to 1, so many sets tie at the top bound and loose sets stand
    # before the first witness and the first greatest pair
    monkeypatch.setattr(cuts, "_BLOCK_ENTRIES", 64)
    monkeypatch.setattr(rewiring, "_BLOCK_ENTRIES", 64)
    init, rng = cuts._ToggledConductance.__init__, np.random.default_rng(31)

    def loosen(self, *args):
        init(self, *args)
        if not self.exact.all():
            top = int(cuts._least_ratio(-self.num, self.den).argmax())
            pick = rng.integers(0, 3, len(self.num))
            self.num[pick == 1], self.den[pick == 1] = self.num[top], self.den[top]
            self.num[pick == 2], self.den[pick == 2] = 1, 1

    monkeypatch.setattr(cuts._ToggledConductance, "__init__", loosen)
    rng_graphs = random.Random(5151)
    graphs = [make_gnp(rng_graphs, rng_graphs.randrange(4, 8), 0.5) for _ in range(5)]
    graphs += [cycle_graph(6), complete_graph(5), _star(6), barbell_graph(3)]
    assert _hazard_corpus(graphs, (1, 2), monkeypatch)[1] > 100
    for g in graphs:
        _same_greedy(g, 3)


def test_least_ratio_decides_float_ties_by_integers():
    a = 2**30
    # a/(a-1) > (a+1)/a, yet both quotients round to the same float
    assert float(a) / (a - 1) == float(a + 1) / a
    num, den = np.array([[a, a + 1], [a + 1, a], [5, 5]]), np.array([[a - 1, a], [a, a - 1], [0, 0]])
    assert cuts._least_ratio(num, den).tolist() == [[False, True], [True, False], [False, False]]
