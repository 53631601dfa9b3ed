"""Simple undirected graphs: construction, edits, matrix views, generators, text I/O.

Graphs are immutable value objects. Vertices are the integers 0..n-1 and edges
are stored canonically as (min, max) pairs, so equality, hashing and the text
serialization are all deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
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

#: Matrices up to this order are returned dense; larger ones come back sparse CSR.
DENSE_LIMIT = 512

MATRIX_KINDS = (
    "adjacency",
    "degree",
    "combinatorial_laplacian",
    "normalized_laplacian",
    "propagation",
    "row_stochastic_propagation",
)

Pair = tuple[int, int]


def canonical_pair(u: int, v: int) -> Pair:
    """Return the (min, max) form of an edge, rejecting self-loops."""
    if u == v:
        raise SelfLoop(f"self-loop ({u},{v}) is not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[Pair]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def sorted_edges(self) -> tuple[Pair, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.neighbors)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor sets as bitmasks; the workhorse of subset enumeration."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_pair(u, v) in self.edges

    def connected_components(self) -> list[list[int]]:
        """Components as sorted vertex lists, ordered by smallest member."""
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self.neighbors[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1


@dataclass(frozen=True)
class EditSet:
    """A budgeted set of edge toggles: the symmetric difference E' triangle E."""

    additions: frozenset[Pair]
    removals: frozenset[Pair]

    def __post_init__(self):
        overlap = self.additions & self.removals
        if overlap:
            raise DuplicateEdge(f"pairs {sorted(overlap)} appear as both addition and removal")

    @property
    def size(self) -> int:
        return len(self.additions) + len(self.removals)

    def inverse(self) -> "EditSet":
        return EditSet(additions=self.removals, removals=self.additions)


def make_edit_set(additions: Iterable[Pair] = (), removals: Iterable[Pair] = ()) -> EditSet:
    """Canonicalize raw pairs into an EditSet."""
    return EditSet(
        additions=frozenset(canonical_pair(u, v) for u, v in additions),
        removals=frozenset(canonical_pair(u, v) for u, v in removals),
    )


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Validate and build a Graph from a vertex count and edge pairs."""
    if n < 1:
        raise OutOfRangeVertex(f"vertex count must be >= 1, got {n}")
    seen: set[Pair] = set()
    for pair in edges:
        u, v = pair
        if not (0 <= u < n) or not (0 <= v < n):
            raise OutOfRangeVertex(f"edge ({u},{v}) has an endpoint outside [0,{n})")
        cp = canonical_pair(u, v)
        if cp in seen:
            raise DuplicateEdge(f"edge {cp} given more than once")
        seen.add(cp)
    return Graph(n=n, edges=frozenset(seen))


def apply_edits(g: Graph, edits: EditSet) -> Graph:
    """Return the graph with E' = (E minus removals) union additions."""
    for u, v in edits.additions:
        if not (0 <= u < g.n) or not (0 <= v < g.n):
            raise OutOfRangeVertex(f"addition ({u},{v}) outside [0,{g.n})")
        if (u, v) in g.edges:
            raise AdditionAlreadyPresent(f"addition ({u},{v}) is already an edge")
    for u, v in edits.removals:
        if (u, v) not in g.edges:
            raise RemovalAbsent(f"removal ({u},{v}) is not an edge")
    return Graph(n=g.n, edges=(g.edges - edits.removals) | edits.additions)


def edit_set_between(original: Graph, modified: Graph) -> EditSet:
    """The EditSet turning `original` into `modified` (same vertex set)."""
    return EditSet(
        additions=modified.edges - original.edges,
        removals=original.edges - modified.edges,
    )


# -- matrix views ---------------------------------------------------------------


def matrix_of(g: Graph, kind: str, augmented: bool = True, dense_limit: int = DENSE_LIMIT):
    """Return the requested n x n matrix view of the graph.

    The two propagation kinds use the self-loop augmented pair (A+I, D+I) when
    `augmented` is true (the default); with `augmented=False` they fall back to
    the plain normalized forms, which require every degree to be positive.
    The normalized Laplacian is always the non-augmented I - D^{-1/2} A D^{-1/2}.
    Dense ndarray for n <= dense_limit, scaled by broadcasting; scipy CSR
    beyond, and only that branch imports scipy.
    """
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}; expected one of {MATRIX_KINDS}")
    n = g.n
    deg = np.array(g.degrees, dtype=np.float64)
    needs_positive_degree = kind == "normalized_laplacian" or (
        kind in ("propagation", "row_stochastic_propagation") and not augmented
    )
    if needs_positive_degree and n and deg.min() == 0:
        isolated = int(np.argmin(deg))
        raise IsolatedVertex(f"vertex {isolated} has degree 0; {kind} is undefined")
    if n > dense_limit:
        return _sparse_matrix_of(g, kind, augmented, deg)

    a = np.zeros((n, n), dtype=np.float64)
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    if kind == "adjacency":
        return a
    if kind == "degree":
        return np.diag(deg)
    if kind == "combinatorial_laplacian":
        return np.diag(deg) - a
    if kind == "normalized_laplacian":
        s = 1.0 / np.sqrt(deg)
        return np.eye(n) - s[:, None] * a * s[None, :]

    d_eff = deg
    if augmented:
        a.flat[:: n + 1] += 1.0
        d_eff = deg + 1.0
    if kind == "propagation":
        s = 1.0 / np.sqrt(d_eff)
        a *= s[:, None]
        a *= s[None, :]
        return a
    # row_stochastic_propagation
    a *= (1.0 / d_eff)[:, None]
    return a


def _sparse_matrix_of(g: Graph, kind: str, augmented: bool, deg: np.ndarray):
    """CSR form of `matrix_of` above the dense limit."""
    import scipy.sparse as sp

    n = g.n
    rows, cols = [], []
    for u, v in g.edges:
        rows += [u, v]
        cols += [v, u]
    a = sp.csr_array((np.ones(len(rows)), (np.array(rows), np.array(cols))), shape=(n, n))

    def diag(values):
        return sp.diags_array(values, format="csr")

    if kind == "adjacency":
        return a
    if kind == "degree":
        return diag(deg)
    if kind == "combinatorial_laplacian":
        return diag(deg) - a
    if kind == "normalized_laplacian":
        s = 1.0 / np.sqrt(deg)
        return diag(np.ones(n)) - (diag(s) @ a @ diag(s))

    if augmented:
        a_eff = a + diag(np.ones(n))
        d_eff = deg + 1.0
    else:
        a_eff = a
        d_eff = deg
    if kind == "propagation":
        s = 1.0 / np.sqrt(d_eff)
        return diag(s) @ a_eff @ diag(s)
    # row_stochastic_propagation
    return diag(1.0 / d_eff) @ a_eff


# -- generators -------------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InfeasibleParameters(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    if not 0.0 <= p <= 1.0:
        raise InfeasibleParameters(f"edge probability must be in [0,1], got {p}")
    if n < 1:
        raise InfeasibleParameters(f"n must be >= 1, got {n}")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def _pair_stubs(stubs: Sequence[int]) -> set[Pair] | None:
    """Edges joining consecutive stubs, or None if a pair is a self-loop or repeats."""
    pairs: set[Pair] = set()
    for i in range(0, len(stubs), 2):
        u, v = stubs[i], stubs[i + 1]
        pair = (u, v) if u < v else (v, u)
        if u == v or pair in pairs:
            return None
        pairs.add(pair)
    return pairs


def random_regular_graph(n: int, d: int, seed: int, max_retries: int = 500) -> Graph:
    """Configuration-model sampling, retried until the pairing is simple.

    Dense degrees (d > (n-1)/2) are generated as the complement of a sparse
    regular graph, where the pairing succeeds quickly.
    """
    if d < 0 or d >= n:
        raise InfeasibleParameters(f"degree {d} infeasible for n={n}")
    if (n * d) % 2 != 0:
        raise InfeasibleParameters(f"n*d = {n}*{d} is odd; no {d}-regular graph on {n} vertices")
    if 2 * d > n - 1:
        sparse = random_regular_graph(n, n - 1 - d, seed, max_retries)
        complement = frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in sparse.edges
        )
        return Graph(n=n, edges=complement)
    if d == 0:
        return Graph(n=n, edges=frozenset())
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(max_retries):
        rng.shuffle(stubs)
        pairs = _pair_stubs(stubs)
        if pairs is not None:
            return Graph(n=n, edges=frozenset(pairs))
    raise InfeasibleParameters(
        f"no simple {d}-regular pairing on {n} vertices found in {max_retries} tries"
    )


def barbell_graph(k: int) -> Graph:
    """Two K_k cliques joined by a single bridge edge (k-1, k)."""
    if k < 3:
        raise InfeasibleParameters(f"barbell needs k >= 3, got {k}")
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(k + u, k + v) for u in range(k) for v in range(u + 1, k)]
    edges.append((k - 1, k))
    return build_graph(2 * k, edges)


def generate(family: str, params: Sequence, seed: int = 0) -> Graph:
    """Dispatch a generator by name; used by the command-line surface."""
    if family == "complete":
        (n,) = params
        return complete_graph(int(n))
    if family == "cycle":
        (n,) = params
        return cycle_graph(int(n))
    if family == "gnp":
        n, p = params
        return gnp_graph(int(n), float(p), seed)
    if family == "random_regular":
        n, d = params
        return random_regular_graph(int(n), int(d), seed)
    if family == "barbell":
        (k,) = params
        return barbell_graph(int(k))
    raise InfeasibleParameters(f"unknown graph family {family!r}")


# -- text format --------------------------------------------------------------------
#
# First non-comment line: "n m".  Then m lines "u v" with 0-indexed endpoints.
# Lines starting with '#' are comments; serialization emits sorted edges, LF endings.


def parse_graph(text: str) -> Graph:
    header = None
    header_line = 0
    edges: list[Pair] = []
    edge_lines: list[int] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2:
                raise MalformedHeader(f"line {lineno}: header must be 'n m', got {line!r}")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise MalformedHeader(f"line {lineno}: header must be two integers, got {line!r}")
            header_line = lineno
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedEdgeLine(lineno, f"expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedEdgeLine(lineno, f"endpoints must be integers, got {line!r}")
        n = header[0]
        if not (0 <= u < n) or not (0 <= v < n):
            raise MalformedEdgeLine(lineno, f"vertex out of range [0,{n}) in {line!r}")
        if u == v:
            raise MalformedEdgeLine(lineno, f"self-loop ({u},{v})")
        edges.append((u, v))
        edge_lines.append(lineno)
    if header is None:
        raise MalformedHeader("no header line found")
    n, m = header
    if n < 1:
        raise MalformedHeader(f"line {header_line}: vertex count must be >= 1, got {n}")
    if len(edges) != m:
        raise MalformedHeader(
            f"line {header_line}: header declares {m} edges but {len(edges)} edge lines found"
        )
    seen: set[Pair] = set()
    for (u, v), lineno in zip(edges, edge_lines):
        cp = canonical_pair(u, v)
        if cp in seen:
            raise MalformedEdgeLine(lineno, f"duplicate edge ({u},{v})")
        seen.add(cp)
    return Graph(n=n, edges=frozenset(seen))


def serialize_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.sorted_edges]
    return "\n".join(lines) + "\n"
