import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matrix_reference
from rewirelab import (
    Graph,
    apply_edits,
    build_graph,
    complete_graph,
    cycle_graph,
    generate,
    gnp_graph,
    make_edit_set,
    matrix_of,
    parse_graph,
    random_regular_graph,
    serialize_graph,
)
from rewirelab.graph import MATRIX_KINDS
from rewirelab.errors import (
    AdditionAlreadyPresent,
    DuplicateEdge,
    InfeasibleParameters,
    IsolatedVertex,
    MalformedEdgeLine,
    MalformedHeader,
    OutOfRangeVertex,
    RemovalAbsent,
    SelfLoop,
)


def test_build_c4():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4 and g.m == 4
    assert g.degrees == (2, 2, 2, 2)


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_graph(2, [(0, 0)])


def test_build_rejects_canonicalization_collision():
    with pytest.raises(DuplicateEdge):
        build_graph(4, [(0, 1), (1, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(OutOfRangeVertex):
        build_graph(3, [(0, 3)])


def test_apply_edits_chord():
    c4 = cycle_graph(4)
    g = apply_edits(c4, make_edit_set(additions=[(0, 2)]))
    assert g.m == 5 and g.has_edge(0, 2)


def test_apply_edits_identity():
    c4 = cycle_graph(4)
    assert apply_edits(c4, make_edit_set()) == c4


def test_apply_edits_rejects_present_addition():
    with pytest.raises(AdditionAlreadyPresent):
        apply_edits(cycle_graph(4), make_edit_set(additions=[(0, 1)]))


def test_apply_edits_rejects_absent_removal():
    with pytest.raises(RemovalAbsent):
        apply_edits(cycle_graph(4), make_edit_set(removals=[(0, 2)]))


def test_edit_set_rejects_overlap():
    with pytest.raises(DuplicateEdge):
        make_edit_set(additions=[(0, 1)], removals=[(1, 0)])


@settings(max_examples=50)
@given(st.integers(2, 8), st.randoms(use_true_random=False))
def test_edit_inverse_round_trip(n, rnd):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    base = frozenset(p for p in pairs if rnd.random() < 0.5)
    g = Graph(n=n, edges=base)
    toggled = [p for p in pairs if rnd.random() < 0.3]
    edits = make_edit_set(
        additions=[p for p in toggled if p not in base],
        removals=[p for p in toggled if p in base],
    )
    assert apply_edits(apply_edits(g, edits), edits.inverse()) == g
    assert edits.size == len(toggled)


def test_matrix_k2_propagation():
    p = matrix_of(complete_graph(2), "propagation")
    assert np.allclose(p, [[0.5, 0.5], [0.5, 0.5]])


def test_matrix_k1_adjacency():
    assert matrix_of(build_graph(1, []), "adjacency").tolist() == [[0.0]]


def test_matrix_isolated_vertex_errors():
    g = build_graph(2, [])
    with pytest.raises(IsolatedVertex):
        matrix_of(g, "normalized_laplacian")
    with pytest.raises(IsolatedVertex):
        matrix_of(g, "propagation", augmented=False)
    # augmented propagation is always defined
    p = matrix_of(g, "propagation")
    assert np.allclose(p, np.eye(2))


def test_row_stochastic_rows_sum_to_one():
    g = gnp_graph(9, 0.4, seed=3)
    t = matrix_of(g, "row_stochastic_propagation")
    assert np.allclose(t.sum(axis=1), 1.0, atol=1e-12)


def test_propagation_kinds_cospectral():
    g = gnp_graph(8, 0.5, seed=5)
    sym = np.linalg.eigvalsh(matrix_of(g, "propagation"))
    rw = np.sort(np.linalg.eigvals(matrix_of(g, "row_stochastic_propagation")).real)
    assert np.allclose(sym, rw, atol=1e-9)


def test_sparse_backend_matches_dense():
    g = gnp_graph(12, 0.4, seed=9)
    dense = matrix_of(g, "combinatorial_laplacian")
    sparse = matrix_of(g, "combinatorial_laplacian", dense_limit=4)
    assert np.allclose(dense, sparse.todense())


def _needs_positive_degree(kind, augmented):
    return kind == "normalized_laplacian" or (
        not augmented and kind in ("propagation", "row_stochastic_propagation")
    )


@pytest.mark.parametrize("augmented", [True, False])
@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_dense_and_sparse_views_agree(kind, augmented):
    graphs = [random_regular_graph(24, 3, seed=4)]
    if not _needs_positive_degree(kind, augmented):
        graphs.append(build_graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)]))  # vertex 7 isolated
    for g in graphs:
        dense = matrix_of(g, kind, augmented=augmented)
        sparse = matrix_of(g, kind, augmented=augmented, dense_limit=4)
        assert isinstance(dense, np.ndarray)
        assert np.array_equal(dense, sparse.toarray())


def _matrix_corpus():
    """Seeded graphs for the builder's differential test: n = 1, edgeless,
    isolated vertices, regular and G(n, p) graphs from sparse to dense."""
    rng = random.Random(14)
    graphs = [
        build_graph(1, []),
        build_graph(2, []),
        build_graph(7, []),
        build_graph(5, [(0, 1), (1, 2), (3, 1)]),
        complete_graph(6),
    ]
    for n in (2, 3, 4, 6, 9, 13, 24, 40, 90, 200, 600):
        for mean_degree in (0.8, 3.0, 8.0):
            graphs.append(gnp_graph(n, min(1.0, mean_degree / n), seed=rng.randrange(1 << 30)))
    for n, d in ((8, 3), (30, 4), (120, 3), (600, 3)):
        graphs.append(random_regular_graph(n, d, seed=rng.randrange(1 << 30)))
    return graphs


@pytest.mark.parametrize("augmented", [True, False])
@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_matrix_of_matches_reference_builders(kind, augmented):
    for g in _matrix_corpus():
        if _needs_positive_degree(kind, augmented) and 0 in g.degrees:
            for build in (matrix_reference.matrix_of, matrix_of):
                with pytest.raises(IsolatedVertex):
                    build(g, kind, augmented=augmented)
            continue
        dense = matrix_of(g, kind, augmented=augmented, dense_limit=g.n)
        want = matrix_reference.matrix_of(g, kind, augmented=augmented, dense_limit=g.n)
        assert isinstance(dense, np.ndarray) and dense.dtype == want.dtype and dense.shape == want.shape
        assert dense.tobytes() == want.tobytes(), (g, kind, augmented)
        sparse = matrix_of(g, kind, augmented=augmented, dense_limit=g.n - 1)
        want = matrix_reference.matrix_of(g, kind, augmented=augmented, dense_limit=g.n - 1)
        assert sparse.format == "csr" and sparse.shape == want.shape
        assert sparse.toarray().tobytes() == want.toarray().tobytes(), (g, kind, augmented)
        if kind != "row_stochastic_propagation":
            # the reference's row-scaling matmul leaves that kind's column indices unsorted
            assert np.array_equal(sparse.indptr, want.indptr) and np.array_equal(sparse.indices, want.indices)
            assert sparse.data.tobytes() == want.data.tobytes(), (g, kind, augmented)


def test_generate_complete_and_barbell():
    assert generate("complete", [4]).m == 6
    b5 = generate("barbell", [5])
    assert b5.n == 10 and b5.m == 21


@pytest.mark.parametrize(("family", "params"), [("gnp", [5]), ("cycle", [4, 5]), ("barbell", []), ("random_regular", [8])])
def test_generate_wrong_parameter_count(family, params):
    with pytest.raises(InfeasibleParameters, match=family):
        generate(family, params)


def test_generate_regular_parity_error():
    with pytest.raises(InfeasibleParameters):
        random_regular_graph(5, 3, seed=1)


def test_generate_regular_degrees():
    for n, d in [(8, 3), (10, 4), (6, 5)]:
        g = random_regular_graph(n, d, seed=42)
        assert all(deg == d for deg in g.degrees)


def test_generate_deterministic():
    assert gnp_graph(10, 0.3, seed=7) == gnp_graph(10, 0.3, seed=7)
    assert random_regular_graph(10, 3, seed=7) == random_regular_graph(10, 3, seed=7)


def test_parse_minimal():
    assert parse_graph("2 1\n0 1\n") == complete_graph(2)


def test_parse_comments_and_whitespace():
    text = "# a comment\n3 2\n0 1\n# another\n1 2\n"
    g = parse_graph(text)
    assert g.n == 3 and g.m == 2


def test_parse_out_of_range_names_line():
    with pytest.raises(MalformedEdgeLine) as exc:
        parse_graph("2 1\n0 2\n")
    assert exc.value.line_number == 2


def test_parse_header_errors():
    with pytest.raises(MalformedHeader):
        parse_graph("")
    with pytest.raises(MalformedHeader):
        parse_graph("2\n")
    with pytest.raises(MalformedHeader):
        parse_graph("2 2\n0 1\n")  # declared m mismatch


def test_parse_duplicate_edge_line():
    with pytest.raises(MalformedEdgeLine):
        parse_graph("3 2\n0 1\n1 0\n")


def test_round_trip_generated_graphs():
    rng = random.Random(0)
    for _ in range(20):
        g = gnp_graph(rng.randrange(1, 12), rng.random(), seed=rng.randrange(1 << 20))
        assert parse_graph(serialize_graph(g)) == g


def test_serialize_canonical_form():
    g1 = build_graph(3, [(2, 1), (0, 2)])
    g2 = build_graph(3, [(0, 2), (1, 2)])
    assert serialize_graph(g1) == serialize_graph(g2) == "3 2\n0 2\n1 2\n"
