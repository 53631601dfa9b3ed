"""Shared pieces of the benchmark: the operation record, statistics, oracles,
the machine record and the result line.

Everything here is stdlib plus numpy, and nothing here imports rewirelab, so
the oracles stay independent of the code they check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
REFERENCE = os.path.join(ROOT, "perfbench", "reference")

#: Seed whose exact outputs are pinned byte for byte in perfbench/reference/.
DEFAULT_SEED = 0
#: Latency recorded for a failed operation: slower than any limit.
FAILED_MS = 1e9
#: A tail percentile needs this many samples strictly beyond it.
TAIL_BEYOND = 10


@dataclass
class Op:
    """One timed call into the program.

    `call` is (call kind, data): plain data that worker.py turns into the
    program's input objects and the call, which is the only code inside the
    timed region.  `check` gets its result and returns a list of problems
    (empty when correct); `exact` returns the bytes of the result that must
    match the reference for the default seed.  `repeat` asks the trace run to
    call it once more, to count results that are not bit-identical.
    `follows` keeps it right after the previous op, in the same worker
    process: `verify` reads the certificate that `reduce` just wrote.
    """

    id: str
    kind: str  # the shape, e.g. "groc.n9k2"
    group: str  # "groc" or "gros": which per-problem latency group it joins
    call: tuple
    check: Callable[[object], list]
    exact: Callable[[object], str] | None = None
    info: dict = field(default_factory=dict)
    repeat: bool = False
    follows: bool = False


def rng_for(*parts) -> random.Random:
    """A stdlib RNG seeded by a string, so streams are stable across runs."""
    return random.Random(":".join(str(p) for p in parts))


def spread_in_time(units: list, r: int) -> list:
    """Shuffle a round's units (lists of ops that must run in this order), so
    the ops of one shape are spread over the round and a few seconds of
    machine slowdown cannot hit a whole block of them.  The order depends only
    on the round, so every seed puts the same shapes side by side."""
    units = list(units)
    rng_for("order", r).shuffle(units)
    return [op for unit in units for op in unit]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- statistics -----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with at least
    TAIL_BEYOND samples beyond it: the (TAIL_BEYOND+1)-th largest value.  A run
    too short to have one reports its maximum as percentile 100."""
    n = len(values)
    ordered = sorted(values)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def latency_summary(prefix: str, latencies: list[float]) -> dict:
    value, pct, count = tail(latencies)
    return {
        f"{prefix}_p50_ms": statistics.median(latencies),
        f"{prefix}_tail_ms": value,
        f"{prefix}_tail_percentile": pct,
        f"{prefix}_count": count,
    }


# -- independent oracles ----------------------------------------------------------


def components(n: int, edges) -> list[list[int]]:
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack, comp = [s], []
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in nbrs[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


_BITS: dict = {}


def _cut_bits(n: int) -> np.ndarray:
    """Row i holds the vertex bits of cut i + 1; vertex n-1 stays outside."""
    if n not in _BITS:
        masks = np.arange(1, 1 << (n - 1), dtype=np.int64)
        _BITS[n] = ((masks[:, None] >> np.arange(n)) & 1).astype(np.int32)
    return _BITS[n]


def _min_phi(boundary: np.ndarray, vol: np.ndarray, total: int) -> Fraction:
    if boundary.min() == 0:  # some side has no boundary: disconnected
        return Fraction(0)
    min_vol = np.minimum(vol, total - vol)
    ratio = boundary / min_vol
    near = np.flatnonzero(ratio <= ratio.min() + 1e-12)
    return min(Fraction(int(boundary[i]), int(min_vol[i])) for i in near)


def phi_of_toggles(n: int, edges, toggle_list) -> list:
    """Exact conductance of each toggled graph, by a vectorised scan of all
    2^(n-1) - 1 cuts: one (boundary, volume) table for the base graph, and
    one column per vertex pair for the change a toggle makes."""
    bits = _cut_bits(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    col = {p: i for i, p in enumerate(pairs)}
    pu = np.array([u for u, _ in pairs])
    pv = np.array([v for _, v in pairs])
    cross = (bits[:, pu] ^ bits[:, pv]).T.copy()
    ends = (bits[:, pu] + bits[:, pv]).T.copy()
    present = np.array([p in edges for p in pairs])
    boundary0 = cross[present].sum(axis=0)
    vol0 = ends[present].sum(axis=0)
    out = []
    for toggles in toggle_list:
        boundary, vol, m = boundary0.copy(), vol0.copy(), int(present.sum())
        for p in toggles:
            i = col[p]
            sign = -1 if present[i] else 1
            boundary += sign * cross[i]
            vol += sign * ends[i]
            m += sign
        out.append(_min_phi(boundary, vol, 2 * m))
    return out


def phi_oracle(n: int, edges) -> Fraction:
    """Exact conductance of one graph (no per-pair table, so n = 20 fits)."""
    edges = list(edges)
    if len(components(n, edges)) > 1:
        return Fraction(0)
    masks = np.arange(1, 1 << (n - 1), dtype=np.int64)
    boundary = np.zeros(len(masks), dtype=np.int64)
    vol = np.zeros(len(masks), dtype=np.int64)
    for u, v in edges:
        bu, bv = (masks >> u) & 1, (masks >> v) & 1
        boundary += bu ^ bv
        vol += bu + bv
    return _min_phi(boundary, vol, 2 * len(edges))


def propagation_dense(n: int, edges) -> np.ndarray:
    a = np.eye(n)
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    s = 1.0 / np.sqrt(a.sum(axis=1))
    return s[:, None] * a * s[None, :]


def normalized_laplacian_dense(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    s = 1.0 / np.sqrt(a.sum(axis=1))
    return np.eye(n) - s[:, None] * a * s[None, :]


def mu2_float(n: int, edges) -> float:
    return float(np.linalg.eigvalsh(propagation_dense(n, edges))[-2])


def toggle_sets(n: int, budget: int):
    """Toggle sets in the solvers' (size, lex) enumeration order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for j in range(budget + 1):
        yield from combinations(pairs, j)


def toggled(edges: frozenset, toggles) -> frozenset:
    return edges ^ frozenset(toggles)


def edit_json(edges: frozenset, toggles) -> dict:
    t = frozenset(toggles)
    return {"add": [list(p) for p in sorted(t - edges)], "remove": [list(p) for p in sorted(t & edges)]}


def bisection_width_oracle(n: int, edges) -> int:
    best = None
    for rest in combinations(range(1, n), n // 2 - 1):
        side = {0, *rest}
        width = sum(1 for u, v in edges if (u in side) != (v in side))
        best = width if best is None else min(best, width)
    return best


# -- graph inputs -------------------------------------------------------------------


def gnp_edges(rng: random.Random, n: int, p: float) -> frozenset:
    return frozenset((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)


def connected_gnp_edges(rng: random.Random, n: int, p: float, min_degree: int) -> frozenset:
    """G(n, p) resampled until connected with the given minimum degree."""
    while True:
        edges = gnp_edges(rng, n, p)
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        if min(deg) >= min_degree and len(components(n, edges)) == 1:
            return edges


def cut_counts(edges, side: set) -> tuple[int, int]:
    """(boundary edges, volume of side) of the cut (side, rest)."""
    boundary = sum(1 for u, v in edges if (u in side) != (v in side))
    vol = sum((u in side) + (v in side) for u, v in edges)
    return boundary, vol


def regular_edges(rng: random.Random, n: int, d: int) -> frozenset:
    """Simple connected d-regular graph by configuration-model rejection."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        pairs = set()
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in pairs:
                break
            pairs.add((min(u, v), max(u, v)))
        else:
            if len(components(n, pairs)) == 1:
                return frozenset(pairs)


def sparse_connected_edges(seed: int, n: int, mean_degree: float) -> frozenset:
    """G(n, c/n) with every small component tied to the giant one by one edge."""
    rng = np.random.default_rng(seed)
    m = int(rng.binomial(n * (n - 1) // 2, mean_degree / n))
    edges: set = set()
    while len(edges) < m:
        u = rng.integers(0, n, size=2 * m)
        v = rng.integers(0, n, size=2 * m)
        for a, b in zip(u.tolist(), v.tolist()):
            if a != b:
                edges.add((min(a, b), max(a, b)))
                if len(edges) == m:
                    break
    comps = components(n, edges)
    giant = max(comps, key=len)
    for comp in comps:
        if comp is not giant:
            a, b = comp[0], giant[int(rng.integers(len(giant)))]
            edges.add((min(a, b), max(a, b)))
    return frozenset(edges)


def serialize(n: int, edges) -> str:
    """The graph text format (header 'n m', sorted edges)."""
    return "\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in sorted(edges)]) + "\n"


# -- reference outputs -----------------------------------------------------------------


def load_reference(workload: str) -> dict:
    path = os.path.join(REFERENCE, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def write_reference(workload: str, digests: dict) -> str:
    os.makedirs(REFERENCE, exist_ok=True)
    path = os.path.join(REFERENCE, f"{workload}.json")
    with open(path, "w") as fh:
        json.dump(digests, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


# -- machine and run record ------------------------------------------------------------


def _openblas_threads() -> int | None:
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rewirelab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def machine_record() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "blas_threads": _openblas_threads(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "pythonpath": os.environ.get("PYTHONPATH", ""),
        "platform": platform.platform(),
    }


def write_record(name: str, record: dict) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        json.dump(record, fh, sort_keys=True, indent=1, default=str)
        fh.write("\n")
    return path


def finite(x: float) -> float:
    return x if math.isfinite(x) else FAILED_MS


def emit_result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": finite(float(v)), "unit": units[k]} for k, v in metrics.items()},
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()
