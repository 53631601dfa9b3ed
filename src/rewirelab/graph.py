"""Simple undirected graphs: construction, edits, matrix views, generators, text I/O.

Graphs are immutable value objects. Vertices are the integers 0..n-1 and edges
are stored canonically as (min, max) pairs, so equality, hashing and the text
serialization are all deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

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

    @cached_property
    def bridges(self) -> frozenset[Pair]:
        """The edges whose removal splits their component: one iterative Tarjan
        low-link pass, an edge (p, v) of the DFS tree being a bridge when nothing
        below v reaches above it."""
        order, low, found = [0] * self.n, [0] * self.n, []  # order: DFS discovery index + 1
        count = 0
        for root in range(self.n):
            if order[root]:
                continue
            count += 1
            order[root] = low[root] = count
            stack = [(root, -1, iter(self.neighbors[root]))]
            while stack:
                v, parent, rest = stack[-1]
                for w in rest:
                    if not order[w]:
                        count += 1
                        order[w] = low[w] = count
                        stack.append((w, v, iter(self.neighbors[w])))
                        break
                    if w != parent:  # a simple graph has one edge to the parent
                        low[v] = min(low[v], order[w])
                else:
                    stack.pop()
                    if parent >= 0:
                        low[parent] = min(low[parent], low[v])
                        if low[v] > order[parent]:
                            found.append(canonical_pair(parent, v))
        return frozenset(found)


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

    Each kind is one formula: a value at both ends of every edge plus a
    diagonal.  The normalized Laplacian is I - D^{-1/2} A D^{-1/2}.  The two
    propagation kinds use the self-loop augmented pair (A+I, D+I) unless
    `augmented` is false; then, like the Laplacian, they need every degree
    positive.  `dense_limit` chooses the storage: a dense ndarray for
    n <= dense_limit, a scipy CSR array beyond, and only that branch imports scipy.
    """
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}; expected one of {MATRIX_KINDS}")
    n = g.n
    deg = np.array(g.degrees, dtype=np.float64)
    needs_positive_degree = kind == "normalized_laplacian" or (kind.endswith("propagation") and not augmented)
    if needs_positive_degree and n and deg.min() == 0:
        raise IsolatedVertex(f"vertex {int(np.argmin(deg))} has degree 0; {kind} is undefined")

    pairs = np.fromiter(chain.from_iterable(g.edges), np.intp, 2 * g.m).reshape(-1, 2)
    u, v = pairs.ravel(), pairs[:, ::-1].ravel()  # every edge end u, beside its partner v
    d_eff = deg + 1.0 if augmented else deg  # the degrees the propagation kinds scale by
    if kind == "adjacency":
        edge, diag = 1.0, 0.0
    elif kind == "degree":
        edge, diag = 0.0, deg
    elif kind == "combinatorial_laplacian":
        edge, diag = -1.0, deg
    elif kind == "normalized_laplacian":
        s = 1.0 / np.sqrt(deg)
        edge, diag = -(s[u] * s[v]), 1.0
    elif kind == "propagation":
        s = 1.0 / np.sqrt(d_eff)
        edge, diag = s[u] * s[v], (s * s if augmented else 0.0)
    else:  # row_stochastic_propagation
        r = 1.0 / d_eff
        edge, diag = r[u], (r if augmented else 0.0)
    diagonal = np.arange(n)
    rows, cols = np.concatenate((u, diagonal)), np.concatenate((v, diagonal))
    vals = np.empty(len(rows))
    vals[: len(u)], vals[len(u) :] = edge, diag

    if n <= dense_limit:
        out = np.zeros((n, n))
        out[rows, cols] = vals
        return out
    import scipy.sparse as sp

    keep = vals != 0.0
    return sp.csr_array((vals[keep], (rows[keep], cols[keep])), shape=(n, n))


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


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """Configuration-model sampling, retried up to 500 times until the pairing is simple.

    Dense degrees (d > (n-1)/2) are generated as the complement of a sparse
    regular graph, where the pairing succeeds quickly.
    """
    if d < 0 or d >= n:
        raise InfeasibleParameters(f"degree {d} infeasible for n={n}")
    if (n * d) % 2 != 0:
        raise InfeasibleParameters(f"n*d = {n}*{d} is odd; no {d}-regular graph on {n} vertices")
    if 2 * d > n - 1:
        sparse = random_regular_graph(n, n - 1 - d, seed)
        complement = frozenset(
            (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in sparse.edges
        )
        return Graph(n=n, edges=complement)
    if d == 0:
        return Graph(n=n, edges=frozenset())
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(500):
        rng.shuffle(stubs)
        pairs = _pair_stubs(stubs)
        if pairs is not None:
            return Graph(n=n, edges=frozenset(pairs))
    raise InfeasibleParameters(
        f"no simple {d}-regular pairing on {n} vertices found in 500 tries"
    )


def barbell_graph(k: int) -> Graph:
    """Two K_k cliques joined by a single bridge edge (k-1, k)."""
    if k < 3:
        raise InfeasibleParameters(f"barbell needs k >= 3, got {k}")
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(k + u, k + v) for u in range(k) for v in range(u + 1, k)]
    edges.append((k - 1, k))
    return build_graph(2 * k, edges)


#: The parameters each generator family takes, in command-line order.
_FAMILY_PARAMS = {
    "complete": ("n",),
    "cycle": ("n",),
    "gnp": ("n", "p"),
    "random_regular": ("n", "d"),
    "barbell": ("k",),
}


def generate(family: str, params: Sequence, seed: int = 0) -> Graph:
    """Dispatch a generator by name; used by the command-line surface."""
    names = _FAMILY_PARAMS.get(family)
    if names is None:
        raise InfeasibleParameters(f"unknown graph family {family!r}")
    if len(params) != len(names):
        raise InfeasibleParameters(
            f"family {family!r} takes {len(names)} parameter(s), {' '.join(names)}; got {len(params)}"
        )
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
