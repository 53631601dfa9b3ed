import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import make_connected, make_gnp
from rewirelab import (
    GrocInstance,
    GrosInstance,
    apply_edits,
    barbell_graph,
    build_graph,
    complete_graph,
    conductance_exact,
    cycle_graph,
    decide_groc,
    decide_gros,
    decision_to_json,
    effective_resistance,
    exact_mu2_leq,
    forman_curvature,
    greedy_rewire,
    ppr_matrix,
    ppr_rewire,
    resistance_matrix,
    rewiring,
    sdrf_like_rewire,
)
from rewirelab.errors import (
    DisconnectedPair,
    EdgeAbsent,
    IsolatedVertex,
    OutOfRangeVertex,
    SameVertex,
    SearchSpaceTooLarge,
)


def test_decide_groc_spec_examples():
    k4 = complete_graph(4)
    yes = decide_groc(GrocInstance(k4, 0, 0.5))
    assert yes.answer == "yes" and yes.witness.size == 0
    assert decide_groc(GrocInstance(k4, 0, 0.7)).answer == "no"
    d = decide_groc(GrocInstance(cycle_graph(4), 2, 1.0))
    assert d.answer == "no"
    assert abs(d.value_achieved - 2 / 3) < 1e-12


def test_decide_groc_witness_reverifies():
    rng = random.Random(17)
    for _ in range(15):
        g = make_gnp(rng, rng.randrange(3, 7), rng.random())
        inst = GrocInstance(g, rng.randrange(0, 3), Fraction(rng.randrange(1, 10), 10))
        d = decide_groc(inst)
        if d.answer == "yes":
            rebuilt = apply_edits(g, d.witness)
            assert d.witness.size <= inst.budget_k
            assert conductance_exact(rebuilt).phi >= inst.phi0


def test_decide_groc_monotone_in_budget():
    rng = random.Random(19)
    for _ in range(8):
        g = make_gnp(rng, 5, rng.random())
        phi0 = Fraction(rng.randrange(1, 9), 10)
        k = rng.randrange(0, 2)
        if decide_groc(GrocInstance(g, k, phi0)).answer == "yes":
            assert decide_groc(GrocInstance(g, k + 1, phi0)).answer == "yes"


def test_decide_monotone_in_threshold():
    rng = random.Random(29)
    for _ in range(6):
        g = make_gnp(rng, 5, rng.random())
        k = rng.randrange(0, 2)
        phi0 = Fraction(rng.randrange(2, 9), 10)
        if decide_groc(GrocInstance(g, k, phi0)).answer == "yes":
            easier = phi0 - Fraction(1, 10)
            assert decide_groc(GrocInstance(g, k, easier)).answer == "yes"
        tau = Fraction(rng.randrange(-20, 90), 100)
        if decide_gros(GrosInstance(g, k, tau)).answer == "yes":
            assert decide_gros(GrosInstance(g, k, tau + Fraction(1, 10))).answer == "yes"


def test_decide_search_space_cap():
    with pytest.raises(SearchSpaceTooLarge):
        decide_groc(GrocInstance(complete_graph(6), 3, 0.5), max_candidates=100)


def test_decide_gros_spec_examples():
    k2 = complete_graph(2)
    assert decide_gros(GrosInstance(k2, 0, Fraction(0))).answer == "yes"
    assert decide_gros(GrosInstance(k2, 0, Fraction(-1, 2))).answer == "no"
    # tau = 1 is vacuous even for a disconnected graph with budget
    g = build_graph(4, [(0, 1)])
    assert decide_gros(GrosInstance(g, 1, Fraction(1))).answer == "yes"


def test_decide_gros_uses_exact_threshold():
    c4 = cycle_graph(4)  # mu2 = 1/3 exactly
    assert decide_gros(GrosInstance(c4, 0, Fraction(1, 3))).answer == "yes"
    assert decide_gros(GrosInstance(c4, 0, Fraction(33333, 100000))).answer == "no"


def test_decision_json_schema():
    d = decide_groc(GrocInstance(complete_graph(4), 0, 0.5))
    js = decision_to_json(d, "conductance")
    assert set(js) == {"answer", "witness", "value", "objective"}
    assert js["witness"] == {"add": [], "remove": []}


def test_greedy_budget_zero():
    edits, trace = greedy_rewire(cycle_graph(4), 0, "conductance")
    assert edits.size == 0 and len(trace) == 1


def test_greedy_barbell_improves_conductance():
    b5 = barbell_graph(5)
    edits, trace = greedy_rewire(b5, 1, "conductance")
    assert edits.size == 1
    after = apply_edits(b5, edits)
    assert conductance_exact(after).phi > Fraction(1, 21)
    assert trace[1] > trace[0]


def test_greedy_k4_stops_immediately():
    edits, trace = greedy_rewire(complete_graph(4), 3, "conductance")
    assert edits.size == 0 and len(trace) == 1


def test_greedy_trace_strictly_increasing():
    b6 = barbell_graph(3)
    for objective in ("conductance", "spectral_gap"):
        _, trace = greedy_rewire(b6, 3, objective)
        assert all(b > a for a, b in zip(trace, trace[1:]))


def test_greedy_spectral_gap_scores_the_start_as_spectral_summary_does():
    # lambda2 is 0 on one vertex and undefined with an isolated vertex among several
    edits, trace = greedy_rewire(build_graph(1, []), 2)
    assert edits.size == 0 and trace == [0.0]
    with pytest.raises(IsolatedVertex):
        greedy_rewire(build_graph(4, [(0, 1), (1, 2)]), 1)
    # on the path 0-1-2-3 removing an end edge isolates a vertex: that toggle is skipped
    edits, trace = greedy_rewire(build_graph(4, [(0, 1), (1, 2), (2, 3)]), 1)
    assert edits.additions == {(0, 3)} and not edits.removals and trace[1] > trace[0]


def test_greedy_never_beats_exact_solver():
    rng = random.Random(23)
    for _ in range(6):
        g = make_connected(rng, 5)
        budget = rng.randrange(0, 3)
        edits, trace = greedy_rewire(g, budget, "conductance")
        exact = decide_groc(GrocInstance(g, budget, 1.0))
        assert trace[-1] <= exact.value_achieved + 1e-12


def test_effective_resistance_known_values():
    assert abs(effective_resistance(build_graph(2, [(0, 1)]), 0, 1) - 1.0) < 1e-9
    c4 = cycle_graph(4)
    assert abs(effective_resistance(c4, 0, 1) - 0.75) < 1e-9
    assert abs(effective_resistance(c4, 0, 2) - 1.0) < 1e-9


def test_effective_resistance_errors():
    with pytest.raises(SameVertex):
        effective_resistance(cycle_graph(4), 1, 1)
    with pytest.raises(DisconnectedPair):
        effective_resistance(build_graph(4, [(0, 1), (2, 3)]), 0, 2)
    for u, v in [(-1, 2), (0, 10), (4, 0)]:
        with pytest.raises(OutOfRangeVertex):
            effective_resistance(cycle_graph(4), u, v)


def test_effective_resistance_solver_path_matches_dense(monkeypatch):
    rng = random.Random(29)
    g = make_connected(rng, 9)
    # a second component on vertices 9..14: the solver grounds only the pair's component
    tail = make_connected(rng, 6)
    two_parts = build_graph(15, list(g.edges) + [(a + 9, b + 9) for a, b in tail.edges])
    cases = [(g, 0, 5), (g, 2, 7), (g, 1, 8)] + [(two_parts, u, v) for u, v in [(0, 5), (1, 8), (9, 14), (10, 12)]]
    dense = [effective_resistance(*case) for case in cases]
    monkeypatch.setattr(rewiring, "DENSE_LIMIT", 2)
    for case, want in zip(cases, dense):
        assert abs(effective_resistance(*case) - want) < 1e-9


def test_effective_resistance_is_a_metric():
    rng = random.Random(37)
    for _ in range(5):
        g = make_connected(rng, 7)
        r = resistance_matrix(g)
        assert np.allclose(r, r.T, atol=1e-10)
        for a, b, c in combinations(range(7), 3):
            assert r[a, c] <= r[a, b] + r[b, c] + 1e-9


def test_forman_curvature_values():
    assert forman_curvature(complete_graph(3), (0, 1)) == 3
    assert forman_curvature(complete_graph(2), (0, 1)) == 2
    assert forman_curvature(barbell_graph(5), (4, 5)) == -6
    with pytest.raises(EdgeAbsent):
        forman_curvature(cycle_graph(4), (0, 2))


def test_sdrf_budget_zero():
    edits, trace = sdrf_like_rewire(cycle_graph(4), 0, 0.5)
    assert edits.size == 0 and trace == []


def test_sdrf_barbell_addition_spans_bottleneck():
    edits, _ = sdrf_like_rewire(barbell_graph(5), 1, 0.0)
    assert len(edits.additions) == 1
    ((u, v),) = edits.additions
    assert u < 5 <= v  # crosses between the two cliques


def test_sdrf_tree_never_removes_bridges():
    tree = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    edits, trace = sdrf_like_rewire(tree, 4, 1.0)
    assert edits.size == 0
    assert all(step[0] == "skip_removal" for step in trace)


def test_sdrf_never_disconnects():
    rng = random.Random(43)
    for _ in range(15):
        g = make_connected(rng, rng.randrange(4, 9))
        budget = rng.randrange(1, 5)
        frac = rng.random()
        edits, _ = sdrf_like_rewire(g, budget, frac)
        assert apply_edits(g, edits).is_connected()
        assert edits.size <= budget


def test_ppr_no_additions_on_complete_graph():
    edits, _ = ppr_rewire(complete_graph(2), 0.15, 1e-4, 2)
    assert edits.size == 0
    edits, _ = ppr_rewire(complete_graph(5), 0.2, 1e-4, 4)
    assert edits.size == 0


def test_ppr_teleport_dominated_limit():
    # alpha -> 1: Pi -> I, off-diagonal mass below epsilon, no additions
    edits, _ = ppr_rewire(cycle_graph(6), 0.999999, 1e-4, 3)
    assert edits.size == 0


def test_ppr_c4_diagonals():
    edits, _ = ppr_rewire(cycle_graph(4), 0.15, 1e-4, 3)
    assert sorted(edits.additions) == [(0, 2), (1, 3)]
    assert not edits.removals


def test_ppr_row_stochastic():
    g = make_connected(random.Random(47), 8)
    pi = ppr_matrix(g, 0.2)
    assert np.allclose(pi.sum(axis=1), 1.0, atol=1e-10)
    assert (pi > 0).all()


def _ppr_rewire_by_pairs(g, alpha, epsilon, cap):
    """Per-row selection over (score, target) tuples: score descending, then target."""
    pi = ppr_matrix(g, alpha)
    kept, trace = set(), []
    for v in range(g.n):
        scored = [(float(pi[v, j]), j) for j in range(g.n) if j != v and pi[v, j] > epsilon]
        scored.sort(key=lambda sj: (-sj[0], sj[1]))
        for score, j in scored[:cap]:
            kept.add((min(v, j), max(v, j)))
            trace.append((v, j, score))
    return frozenset(p for p in kept if p not in g.edges), trace


@pytest.mark.parametrize("seed", range(4))
def test_ppr_rewire_matches_pairwise_selection(seed):
    rng = random.Random(59 + seed)
    short_rows = cut_ties = 0
    # cycles and 2 x K4 tie scores exactly, so the target tie-break decides; caps 1 and 2 cut
    # through ties, caps n - 1 and up keep every score above epsilon, and at epsilon 0.05 many
    # rows have fewer scores above it than the cap
    for g in (cycle_graph(9 + seed), make_gnp(rng, 30, 0.15), make_connected(rng, 25),
              build_graph(8, [(u, v) for c in (0, 4) for u in range(c, c + 4) for v in range(u + 1, c + 4)])):
        pi = ppr_matrix(g, 0.15)
        for epsilon in (0.0, 1e-4, 0.05):
            for cap in (0, 1, 2, 3, g.n - 1, g.n, g.n + 5):
                edits, trace = ppr_rewire(g, 0.15, epsilon, cap)
                additions, expected = _ppr_rewire_by_pairs(g, 0.15, epsilon, cap)
                assert edits.additions == additions and not edits.removals
                assert trace == expected
                assert all(type(v) is int and type(j) is int and type(s) is float for v, j, s in trace)
                for v in range(g.n):
                    scores = sorted((pi[v, j] for j in range(g.n) if j != v and pi[v, j] > epsilon), reverse=True)
                    short_rows += len(scores) < cap
                    cut_ties += 0 < cap < len(scores) and scores[cap - 1] == scores[cap]
    assert short_rows > 0 and cut_ties > 0


def test_exact_mu2_reexport_consistency():
    # decide_gros and the direct decision must agree by construction
    g = make_gnp(random.Random(53), 5, 0.5)
    tau = Fraction(1, 2)
    assert decide_gros(GrosInstance(g, 0, tau)).answer == ("yes" if exact_mu2_leq(g, tau) else "no")
