"""The numpy cut table against the Gray-code scans it replaced, and against a
direct recount of every side."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gray_reference
from conftest import make_gnp, make_max_degree_3
from rewirelab import (
    barbell_graph,
    build_graph,
    complete_graph,
    conductance_exact,
    cuts,
    cycle_graph,
    embed_instance,
    measure_constants,
    random_regular_graph,
)


def _corpus():
    rng = random.Random(2024)
    graphs = [cycle_graph(n) for n in (3, 4, 7, 10, 16)]
    graphs += [complete_graph(n) for n in (2, 5, 8, 13, 16)]
    graphs += [barbell_graph(k) for k in (3, 5, 8)]
    graphs += [random_regular_graph(n, 3, seed=rng.randrange(1 << 30)) for n in (4, 8, 12, 16)]
    graphs += [make_gnp(rng, rng.randrange(2, 17), rng.uniform(0.15, 0.9)) for _ in range(12)]
    graphs.append(build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]))  # vertex 5 is isolated
    return [g for g in graphs if g.m > 0]


CORPUS = _corpus()


def test_conductance_exact_matches_gray_reference():
    for g in CORPUS:
        assert conductance_exact(g) == gray_reference.conductance_exact(g), g


def test_conductance_exact_matches_gray_reference_in_small_chunks(monkeypatch):
    monkeypatch.setattr(cuts, "_CHUNK_BITS", 3)  # every graph above n = 4 takes the high-bit path
    for g in CORPUS:
        assert conductance_exact(g) == gray_reference.conductance_exact(g), g


def test_conductance_sweep_matches_reference():
    graphs = CORPUS + [random_regular_graph(n, 3, seed=n) for n in (40, 100, 600)]
    graphs += [build_graph(4, [(1, 2), (2, 3)])]  # first component is an isolated vertex
    for g in graphs:
        assert cuts.conductance_sweep(g) == gray_reference.conductance_sweep(g), g


@pytest.mark.parametrize("seed", [7, 1729])
def test_measure_constants_matches_gray_reference(seed):
    rng = random.Random(seed)
    hosts = [cycle_graph(4), cycle_graph(6), cycle_graph(8), make_max_degree_3(rng, 6), make_max_degree_3(rng, 8)]
    for h in hosts:
        emb = embed_instance(h, seed=seed)
        assert measure_constants(emb, h) == gray_reference.measure_constants(emb, h), h


@st.composite
def _graphs(draw):
    n = draw(st.integers(2, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return build_graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


@settings(max_examples=60, deadline=None)
@given(g=_graphs(), chunk_bits=st.integers(1, 14))
def test_cut_table_recounts_every_side(g, chunk_bits):
    seen = []
    with mock.patch.object(cuts, "_CHUNK_BITS", chunk_bits):
        for start, boundary, volume in cuts._cut_table(g):
            for low, (b, vol) in enumerate(zip(boundary.tolist(), volume.tolist())):
                mask = start + low
                side = {v for v in range(g.n) if mask >> v & 1}
                assert (b, vol) == cuts._boundary_and_volumes(g, side)[:2]
                seen.append(mask)
    assert sorted(seen) == list(range(1 << (g.n - 1)))


TIE_HEAVY = [build_graph(n, []) for n in range(2, 13)] + [complete_graph(n) for n in range(2, 13)]
TIE_HEAVY += [cycle_graph(n) for n in range(3, 13)]


def test_tie_heavy_witnesses_match_gray_reference():
    # every side ties on the edgeless and complete graphs, and n rotations tie on a cycle:
    # the witness is the lexicographically least canonical side all the same
    for g in TIE_HEAVY:
        if g.m:
            assert conductance_exact(g) == gray_reference.conductance_exact(g), g
        if g.n % 2 == 0:
            assert cuts.min_bisection_exact(g) == gray_reference.min_bisection_exact(g), g


def _clique_union(*sizes):
    edges, start = [], 0
    for size in sizes:
        edges += [(start + u, start + v) for u in range(size) for v in range(u + 1, size)]
        start += size
    return build_graph(start, edges)


def _tie_heavy(top):
    graphs = [complete_graph(n) for n in range(2, top + 1)] + [build_graph(n, []) for n in range(2, top + 1)]
    graphs += [_clique_union(a, n - a) for n in range(4, top + 1, 2) for a in (1, n // 2 - 1, n // 2)]
    return graphs + [_clique_union(*sizes) for sizes in ((3, 3, 3, 3), (2, 5, 5), (4, 4, 4, 4, 4)) if sum(sizes) <= top]


@pytest.mark.parametrize("chunk_bits, top", [(14, 20), (3, 14)])
def test_tie_heavy_cuts_match_the_digit_table_reference(monkeypatch, chunk_bits, top):
    # the reference breaks ties by a lexsort of each chunk's tied sides and a tuple min
    # across chunks; the vertex filter must pick the same side, chunk edges included
    monkeypatch.setattr(cuts, "_CHUNK_BITS", chunk_bits)
    for g in _tie_heavy(top):
        got = (conductance_exact(g) if g.m else None, cuts.min_bisection_exact(g) if g.n % 2 == 0 else None)
        with monkeypatch.context() as m:
            m.setattr(cuts, "_least_side", gray_reference._least_side)
            want = (conductance_exact(g) if g.m else None, cuts.min_bisection_exact(g) if g.n % 2 == 0 else None)
        assert got == want, (chunk_bits, g)


def _shared_prefix_masks(rng, n, count):
    """Masks below 2^(n-1) that agree on their low bits, up to a random length."""
    low = rng.randrange(1 << (n - 1))
    keep = rng.randrange(n - 1)
    prefix = low & ((1 << keep) - 1)
    masks = [prefix | rng.randrange(1 << (n - 1)) >> keep << keep for _ in range(count)]
    return [mask or 1 for mask in masks + [prefix] * rng.randrange(2)]  # the prefix itself, at times


def test_least_canonical_matches_tuple_order():
    rng = random.Random(77)
    for n in (2, 3, 5, 9, 16, 24):
        for masks in [[rng.randrange(1, 1 << (n - 1)) for _ in range(40)]] + [
            _shared_prefix_masks(rng, n, rng.randrange(1, 30)) for _ in range(30)
        ]:
            want = min(range(len(masks)), key=lambda i: cuts._canonical_side(masks[i], n))
            got = cuts._least_canonical(np.array(masks, np.int64), n)
            assert cuts._canonical_side(masks[got], n) == cuts._canonical_side(masks[want], n), (n, masks)
