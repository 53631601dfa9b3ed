import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import make_connected, make_gnp, oracle_conductance, oracle_min_bisection
from rewirelab import (
    Cut,
    balance_cut,
    barbell_graph,
    build_graph,
    cheeger_consistent,
    cheeger_interval,
    complete_graph,
    conductance_exact,
    conductance_of,
    conductance_sweep,
    cuts,
    cycle_graph,
    min_bisection_exact,
    spectral_summary,
)
from rewirelab.errors import EmptySide, ExactLimitExceeded, OddVertexCount, ZeroVolumeSide


def test_conductance_of_known_values():
    assert conductance_of(complete_graph(4), {0, 1}).phi == Fraction(2, 3)
    assert conductance_of(cycle_graph(4), {0, 1}).phi == Fraction(1, 2)


def test_conductance_of_rejects_degenerate_sides():
    with pytest.raises(EmptySide):
        conductance_of(cycle_graph(4), set())
    with pytest.raises(EmptySide):
        conductance_of(cycle_graph(4), {0, 1, 2, 3})
    with pytest.raises(ZeroVolumeSide):
        conductance_of(build_graph(3, [(1, 2)]), {0})


def test_boundary_recount_invariant():
    rng = random.Random(21)
    for _ in range(30):
        g = make_gnp(rng, rng.randrange(3, 10), rng.random())
        size = rng.randrange(1, g.n)
        side = set(rng.sample(range(g.n), size))
        try:
            cut = conductance_of(g, side)
        except ZeroVolumeSide:
            continue
        recount = sum(1 for u, v in g.edges if (u in cut.subset) != (v in cut.subset))
        assert recount == cut.boundary_size
        assert cut.vol_s + cut.vol_complement == 2 * g.m


def test_conductance_exact_known_values():
    assert conductance_exact(complete_graph(4)).phi == Fraction(2, 3)
    assert conductance_exact(cycle_graph(4)).phi == Fraction(1, 2)
    assert conductance_exact(barbell_graph(5)).phi == Fraction(1, 21)


def test_conductance_exact_matches_oracle():
    rng = random.Random(31)
    for _ in range(40):
        g = make_gnp(rng, rng.randrange(2, 10), rng.random() * 0.8 + 0.1)
        if g.m == 0:
            continue
        cut = conductance_exact(g)
        if not g.is_connected():
            assert cut.phi == 0
            continue
        assert cut.phi == oracle_conductance(g)
        # witness re-evaluates to the same conductance
        assert conductance_of(g, set(cut.subset)).phi == cut.phi


def test_conductance_exact_tie_break_lexicographic():
    cut = conductance_exact(cycle_graph(4))
    assert cut.subset == (0, 1)  # (0,1) beats (0,3) among the minimum cuts


def test_conductance_exact_disconnected_witness():
    g = build_graph(5, [(0, 1), (2, 3), (3, 4)])
    cut = conductance_exact(g)
    assert cut.phi == 0 and cut.subset == (0, 1) and cut.boundary_size == 0
    # the first component is an isolated vertex: a zero-volume witness still reads phi = 0
    cut = conductance_exact(build_graph(4, [(1, 2), (2, 3)]))
    assert cut == Cut((0,), 0, 0, 4, Fraction(0))


def test_conductance_exact_limit():
    with pytest.raises(ExactLimitExceeded):
        conductance_exact(complete_graph(8), exact_limit=6)


def test_conductance_sweep_upper_bounds_exact():
    rng = random.Random(41)
    for _ in range(15):
        g = make_connected(rng, rng.randrange(4, 11))
        assert conductance_sweep(g).phi >= conductance_exact(g).phi


_SWEEP_PROBE = """
import json, sys
from rewirelab import conductance_sweep, random_regular_graph
g = random_regular_graph(600, 3, seed=1)
conductance_sweep(g)
print(json.dumps({"connected": g.is_connected(), "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_dense_sweep_never_imports_scipy():
    # n = 600 is above DENSE_LIMIT but within the sweep's dense eigh
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SWEEP_PROBE], env=env, capture_output=True, text=True, timeout=120)
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    assert child == {"connected": True, "scipy": []}


def _cliques_joined_by_path(k: int, length: int):
    """Two K_k joined by a path through `length` extra vertices."""
    clique = [(u, v) for u in range(k) for v in range(u + 1, k)]
    far = k + length
    chain = [k - 1, *range(k, far), far]
    return build_graph(2 * k + length, clique + [(far + u, far + v) for u, v in clique] + list(zip(chain, chain[1:])))


@pytest.mark.parametrize(
    "g",
    [barbell_graph(k) for k in (4, 5, 8, 12, 20)] + [_cliques_joined_by_path(6, length) for length in (2, 4)],
    ids=lambda g: f"n{g.n}m{g.m}",
)
def test_lanczos_sweep_matches_dense_sweep(monkeypatch, g):
    # each graph has one least cut (an odd path would tie its two middle edges); the
    # Lanczos branch runs only above SWEEP_DENSE_LIMIT
    dense = conductance_sweep(g)
    monkeypatch.setattr(cuts, "SWEEP_DENSE_LIMIT", 2)
    lanczos = conductance_sweep(g)
    # the Fiedler vector's sign is free, so the sweep may return the other side
    other = tuple(v for v in range(g.n) if v not in dense.subset)
    assert lanczos.subset in (dense.subset, other)
    assert (lanczos.phi, lanczos.boundary_size) == (dense.phi, dense.boundary_size)
    assert {lanczos.vol_s, lanczos.vol_complement} == {dense.vol_s, dense.vol_complement}
    if g.n <= 24:
        assert lanczos.phi == conductance_exact(g).phi


def test_conductance_sweep_disconnected_witness():
    assert conductance_sweep(build_graph(5, [(0, 1), (2, 3), (3, 4)])) == Cut((0, 1), 0, 2, 4, Fraction(0))
    assert conductance_sweep(build_graph(4, [(1, 2), (2, 3)])) == Cut((0,), 0, 0, 4, Fraction(0))


def test_cheeger_interval_values():
    s = spectral_summary(cycle_graph(4), augmented=False)
    lo, hi = cheeger_interval(s)
    assert abs(lo - 0.5) < 1e-12 and abs(hi - 2.0**0.5) < 1e-12
    assert lo <= 0.5 <= hi  # contains the true conductance


def test_cheeger_interval_edge_cases():
    class Stub:
        lambda2 = 0.0

    assert cheeger_interval(Stub()) == (0.0, 0.0)
    Stub.lambda2 = 2.0
    lo, hi = cheeger_interval(Stub())
    assert lo == 1.0 and abs(hi - 2.0) < 1e-12
    # phi <= 1 clipping lives in the consistency check: K2 has lambda2 = 2, phi = 1
    assert cheeger_consistent(1.0, 2.0)


def test_cheeger_containment_on_corpus():
    rng = random.Random(51)
    for _ in range(25):
        g = make_connected(rng, rng.randrange(4, 12))
        phi = float(conductance_exact(g).phi)
        lam = spectral_summary(g, augmented=False).lambda2
        assert cheeger_consistent(phi, lam)


def test_min_bisection_known_values():
    assert min_bisection_exact(cycle_graph(4)).width == 2
    assert min_bisection_exact(cycle_graph(6)).width == 2
    assert min_bisection_exact(complete_graph(4)).width == 4


def _assert_min_bisection_matches_oracle():
    rng = random.Random(61)
    graphs = [build_graph(n, []) for n in (2, 4, 8, 12)]
    graphs += [make_gnp(rng, rng.choice([2, 4, 6, 8, 10, 12]), rng.random()) for _ in range(40)]
    for g in graphs:
        res = min_bisection_exact(g)
        assert (res.width, res.partition) == oracle_min_bisection(g), g
        assert res.exhaustive


def test_min_bisection_matches_oracle():
    _assert_min_bisection_matches_oracle()


def test_min_bisection_matches_oracle_in_small_chunks(monkeypatch):
    monkeypatch.setattr(cuts, "_CHUNK_BITS", 3)  # sides above n = 4 span several chunks
    _assert_min_bisection_matches_oracle()


def test_min_bisection_relabeling_invariance():
    rng = random.Random(71)
    for _ in range(10):
        g = make_gnp(rng, 8, 0.5)
        perm = list(range(8))
        rng.shuffle(perm)
        relabeled = build_graph(8, [(perm[u], perm[v]) for u, v in g.edges])
        assert min_bisection_exact(g).width == min_bisection_exact(relabeled).width


def test_min_bisection_rejects_odd():
    with pytest.raises(OddVertexCount):
        min_bisection_exact(cycle_graph(5))


def test_balance_cut_examples():
    c4 = cycle_graph(4)
    side, factor = balance_cut(c4, {0, 1})
    assert side == (0, 1) and factor == 1
    side, factor = balance_cut(c4, {0})
    assert side == (0, 1) and factor == 1
    side, factor = balance_cut(complete_graph(4), {0})
    assert len(side) == 2 and factor == Fraction(4, 3)


def test_balance_cut_properties():
    rng = random.Random(81)
    for _ in range(20):
        n = rng.choice([4, 6, 8])
        g = make_gnp(rng, n, rng.random())
        size = rng.randrange(1, n)
        side, _ = balance_cut(g, set(rng.sample(range(n), size)))
        assert len(side) == n // 2
        width = sum(1 for u, v in g.edges if (u in side) != (v in side))
        assert width >= min_bisection_exact(g).width


def test_balance_cut_rejects_odd_and_empty():
    with pytest.raises(OddVertexCount):
        balance_cut(cycle_graph(5), {0})
    with pytest.raises(EmptySide):
        balance_cut(cycle_graph(4), set())


@pytest.mark.parametrize("side", [[-1], [0, 99]])
def test_balance_cut_rejects_out_of_range_vertices(side):
    # [-1] came back as a "balanced side" holding vertex -1, and [0, 99] raised IndexError
    with pytest.raises(EmptySide, match="out-of-range vertices"):
        balance_cut(cycle_graph(4), side)
