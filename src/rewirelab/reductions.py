"""Minimum-bisection reductions: certified expanders, embeddings, scaling, verification.

The pipeline turns a bisection instance (H, B) into a conductance or spectral
rewiring instance on a 3-regular host graph G built by padding H with an
expander-like completion.  Thresholds are exact rationals; constants come in a
configured flavour (validated against the constant conditions the hardness
argument needs) and a measured
flavour (enumerated tight values on the finite instance).  Verification
recomputes everything from scratch and records the inequality chains of both
proof directions; biconditional agreement is recorded, never asserted, because
finite instances cannot honour asymptotic constants.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .cuts import (
    EXACT_BISECTION_LIMIT,
    balance_cut,
    conductance_exact,
    conductance_of,
    min_bisection_exact,
)
from .errors import (
    CertificationFailure,
    ConstantConditionViolated,
    DegreeTooHigh,
    ExactLimitExceeded,
    InfeasibleParameters,
    PadCompletionFailure,
)
from .graph import Graph, build_graph, complete_graph, cycle_graph, matrix_of, parse_graph, random_regular_graph, serialize_graph
from .rewiring import GrocInstance, GrosInstance
from .spectral import spectral_summary
from .sturm import exact_mu2_leq

#: Fixed default seed so every pipeline run is reproducible by construction.
DEFAULT_SEED = 1729

#: Largest bisection side for which certificates are verified exhaustively.
VERIFY_H_LIMIT = 8


@dataclass(frozen=True)
class BisectionInstance:
    """A graph with an even vertex count and a budget on balanced-cut width."""

    h: Graph
    b: int

    def __post_init__(self):
        if self.h.n % 2 != 0:
            raise InfeasibleParameters(f"bisection instance needs an even vertex count, got {self.h.n}")
        if self.b < 0:
            raise InfeasibleParameters(f"bisection budget must be >= 0, got {self.b}")


class CertifiedExpander(NamedTuple):
    graph: Graph
    lambda2: float
    attempts: int


@dataclass(frozen=True)
class ExpanderEmbedding:
    """H embedded as the induced subgraph on 0..n-1 of a 3-regular graph on 2n vertices."""

    g: Graph
    original_vertices: tuple[int, ...]
    pad_vertices: tuple[int, ...]
    certified_lambda2: float


@dataclass(frozen=True)
class ReductionConstants:
    """Expander constants, either configured (validated) or measured (reported)."""

    c1: Fraction
    c2: Fraction
    c3: Fraction
    epsilon: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "c1", Fraction(self.c1))
        object.__setattr__(self, "c2", Fraction(self.c2))
        object.__setattr__(self, "c3", Fraction(self.c3))
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.c1 <= 0 or self.c2 <= 0 or self.c3 <= 0:
            raise ConstantConditionViolated(
                f"constants must be positive, got c1={self.c1}, c2={self.c2}, c3={self.c3}"
            )

    def require_conductance_conditions(self) -> None:
        """c1 < 1/6, c2*c3 < 1/2, c3 < 1."""
        if not self.c1 < Fraction(1, 6):
            raise ConstantConditionViolated(f"c1 = {self.c1} must be < 1/6")
        if not self.c2 * self.c3 < Fraction(1, 2):
            raise ConstantConditionViolated(f"c2*c3 = {self.c2 * self.c3} must be < 1/2")
        if not self.c3 < 1:
            raise ConstantConditionViolated(f"c3 = {self.c3} must be < 1")

    def require_spectral_conditions(self) -> None:
        """c1 < 1/48 and 2 c2 sqrt(3 c1) < 1/2 (checked as 48 c2^2 c1 < 1)."""
        if not self.c1 < Fraction(1, 48):
            raise ConstantConditionViolated(f"c1 = {self.c1} must be < 1/48")
        if not 48 * self.c2 * self.c2 * self.c1 < 1:
            raise ConstantConditionViolated(
                f"2*c2*sqrt(3*c1) must be < 1/2; got 48*c2^2*c1 = {48 * self.c2 * self.c2 * self.c1}"
            )


@dataclass(frozen=True)
class ReductionCertificate:
    """Full record of one reduction: inputs, derived instance, measured truth."""

    kind: str  # "groc" | "gros"
    instance: BisectionInstance
    seed: int
    pad_expander_floor: float
    max_retries: int
    constants: ReductionConstants
    threshold: Fraction  # phi0 for groc, tau for gros
    embedding: ExpanderEmbedding
    inverted: bool = True  # bisection-YES maps to rewiring-NO
    measured: ReductionConstants | None = None
    bisection_width: int | None = None
    bisection_witness: tuple[int, ...] | None = None
    graph_value: float | None = None
    graph_phi: Fraction | None = None  # exact conductance (groc only)
    mu2_leq_tau: bool | None = None  # exact mu2 <= tau decision (gros only)
    forward_check: dict | None = None
    reverse_check: dict | None = None
    agreement: bool | None = None


# -- expander construction -------------------------------------------------------


def build_certified_expander(
    n: int, lambda2_floor: float, seed: int = DEFAULT_SEED, max_retries: int = 50
) -> CertifiedExpander:
    """Sample random 3-regular graphs until the Fiedler value clears the floor."""
    if n < 4:
        raise InfeasibleParameters(f"expander construction needs n >= 4, got {n}")
    if (3 * n) % 2 != 0:
        raise InfeasibleParameters(f"3-regular graphs need an even vertex count, got {n}")
    best = -1.0
    for attempt in range(max_retries):
        g = random_regular_graph(n, 3, seed=seed + 7919 * attempt)
        lam = spectral_summary(g).lambda2
        if lam >= lambda2_floor:
            return CertifiedExpander(g, lam, attempt + 1)
        best = max(best, lam)
    raise CertificationFailure(
        f"no 3-regular graph on {n} vertices reached lambda2 >= {lambda2_floor} "
        f"in {max_retries} tries (best {best:.6f})",
        best_lambda2=best,
    )


def _pad_internal_lambda2(n_pad: int, pad_edges: set[tuple[int, int]], offset: int) -> float:
    """Fiedler value of the pad-internal graph, 0.0 when degenerate."""
    if not pad_edges:
        return 0.0
    local = build_graph(n_pad, [(u - offset, v - offset) for u, v in pad_edges])
    if min(local.degrees) == 0 or not local.is_connected():
        return 0.0
    return spectral_summary(local).lambda2


def embed_instance(
    h: Graph,
    pad_expander_floor: float = 0.0,
    seed: int = DEFAULT_SEED,
    max_retries: int = 50,
) -> ExpanderEmbedding:
    """Embed H (max degree 3, even n >= 4) into a 3-regular graph on 2n vertices.

    Each original vertex receives 3 - deg(v) round-robin edges into the pad set
    U; the residual degree demand inside U is completed by a seeded stub
    pairing, retried until simple and until the pad-internal Fiedler value
    clears `pad_expander_floor`.
    """
    n = h.n
    if n % 2 != 0 or n < 4:
        raise InfeasibleParameters(f"embedding needs an even vertex count >= 4, got {n}")
    if max(h.degrees, default=0) > 3:
        bad = max(range(n), key=lambda v: h.degrees[v])
        raise DegreeTooHigh(
            f"vertex {bad} has degree {h.degrees[bad]} > 3; H cannot be induced in a 3-regular graph"
        )
    vu_edges: set[tuple[int, int]] = set()
    received = [0] * n
    cursor = 0
    for v in range(n):
        for _ in range(3 - h.degrees[v]):
            u_local = cursor % n
            vu_edges.add((v, n + u_local))
            received[u_local] += 1
            cursor += 1
    residual = [3 - r for r in received]
    if any(r < 0 for r in residual) or sum(residual) % 2 != 0:
        raise PadCompletionFailure(
            f"pad demand infeasible: residual degrees {residual}"
        )
    stubs_template = [n + u for u in range(n) for _ in range(residual[u])]
    last_error = "no attempts made"
    for attempt in range(max_retries):
        rng = random.Random(seed + 104729 * attempt)
        stubs = list(stubs_template)
        rng.shuffle(stubs)
        pad_edges: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            a, b = stubs[i], stubs[i + 1]
            if a == b:
                ok = False
                break
            pair = (a, b) if a < b else (b, a)
            if pair in pad_edges:
                ok = False
                break
            pad_edges.add(pair)
        if not ok:
            last_error = "stub pairing produced a self-loop or duplicate"
            continue
        certified = _pad_internal_lambda2(n, pad_edges, n)
        if certified < pad_expander_floor:
            last_error = f"pad lambda2 {certified:.6f} below floor {pad_expander_floor}"
            continue
        g = build_graph(2 * n, list(h.edges) + sorted(vu_edges) + sorted(pad_edges))
        assert all(d == 3 for d in g.degrees), "embedding must be 3-regular"
        induced = {e for e in g.edges if e[0] < n and e[1] < n}
        assert induced == set(h.edges), "H must be induced on the original vertices"
        return ExpanderEmbedding(
            g=g,
            original_vertices=tuple(range(n)),
            pad_vertices=tuple(range(n, 2 * n)),
            certified_lambda2=certified,
        )
    raise PadCompletionFailure(
        f"pad completion failed after {max_retries} attempts: {last_error}"
    )


# -- measured constants -------------------------------------------------------------


def _h_cut_width(h: Graph, s_mask: int) -> int:
    width = 0
    for u, v in h.edges:
        if (s_mask >> u & 1) != (s_mask >> v & 1):
            width += 1
    return width


def measure_constants(
    emb: ExpanderEmbedding, h: Graph, exact_limit: int = VERIFY_H_LIMIT
) -> ReductionConstants:
    """Enumerate the tight constants realized by this embedding.

    c1: max over S subset V, |S| <= n/2 of phi_G(S u U) * n / (|cut_H(S)| + n).
    c2: max over cuts X of G with phi_G(X) > 0 of |cut_H(X n V)| / (phi_G(X) n).
    c3: max balancing factor of the extracted side S = X n V over the same cuts.
    """
    n = h.n
    if n > exact_limit:
        raise ExactLimitExceeded(f"constant measurement limited to h.n <= {exact_limit}, got {n}")
    g = emb.g
    n_g = g.n
    u_set = set(emb.pad_vertices)

    c1 = Fraction(0)
    half = n // 2
    for s_mask in range(1 << n):
        members = [v for v in range(n) if s_mask >> v & 1]
        if len(members) > half:
            continue
        phi = conductance_of(g, set(members) | u_set).phi
        c1 = max(c1, phi * n / (_h_cut_width(h, s_mask) + n))

    c2 = Fraction(0)
    c3 = Fraction(0)
    masks_g = g.adjacency_masks
    deg_g = g.degrees
    total_vol = 2 * g.m
    balance_memo: dict[int, Fraction] = {}
    v_all_mask = (1 << n) - 1

    mask = 0
    cut = 0
    vol = 0
    for i in range(1, 1 << (n_g - 1)):
        v = (i & -i).bit_length() - 1
        bit = 1 << v
        if mask & bit:
            mask ^= bit
            cut -= deg_g[v] - 2 * (masks_g[v] & mask).bit_count()
            vol -= deg_g[v]
        else:
            cut += deg_g[v] - 2 * (masks_g[v] & mask).bit_count()
            mask ^= bit
            vol += deg_g[v]
        min_vol = min(vol, total_vol - vol)
        if min_vol <= 0 or cut == 0:
            continue
        phi_x = Fraction(cut, min_vol)
        s_mask = mask & v_all_mask
        width = _h_cut_width(h, s_mask)
        if width:
            c2 = max(c2, Fraction(width) / (phi_x * n))
        if s_mask not in (0, v_all_mask):
            factor = balance_memo.get(s_mask)
            if factor is None:
                side = tuple(v for v in range(n) if s_mask >> v & 1)
                _, factor = balance_cut(h, side)
                balance_memo[s_mask] = factor
            c3 = max(c3, factor)
    return ReductionConstants(
        c1=c1 if c1 > 0 else Fraction(1, 10**9),
        c2=c2 if c2 > 0 else Fraction(1, 10**9),
        c3=c3 if c3 > 0 else Fraction(1, 10**9),
    )


# -- instance scaling -----------------------------------------------------------------


def _bisection_answer(inst: BisectionInstance, exact_limit: int) -> bool | None:
    if inst.h.n > exact_limit:
        return None
    return min_bisection_exact(inst.h, exact_limit=exact_limit).width <= inst.b


def _with_universal_clique(h: Graph, t: int) -> tuple[Graph, int]:
    """Join H with a clique of 2t universal vertices.

    Every balanced cut that keeps the original side balanced and splits the
    clique evenly grows by exactly t*n + t^2 crossing edges, which is the
    budget offset returned alongside the graph.
    """
    n = h.n
    new_edges = list(h.edges)
    for w in range(n, n + 2 * t):
        for v in range(w):
            new_edges.append((v, w))
    return build_graph(n + 2 * t, new_edges), t * n + t * t


def _with_isolated_pairs(h: Graph, pairs: int) -> Graph:
    return Graph(n=h.n + 2 * pairs, edges=h.edges)


def _canonical_instance(answer: bool, regime: str) -> BisectionInstance:
    """Fixed equivalent instances inside the target window, used as a fallback.

    large regime (B >= 2n):      YES -> (C4, 8);  NO -> (K10, 20) with width 25.
    between regime (n/2<=B<=2n): YES -> (C4, 2);  NO -> (K6, 3) with width 9.
    """
    if regime == "large":
        return BisectionInstance(cycle_graph(4), 8) if answer else BisectionInstance(complete_graph(10), 20)
    return BisectionInstance(cycle_graph(4), 2) if answer else BisectionInstance(complete_graph(6), 3)


def scale_instance_large(
    inst: BisectionInstance, exact_limit: int = EXACT_BISECTION_LIMIT
) -> BisectionInstance:
    """Equivalent instance with B1 >= 2*n1, via a universal-clique gadget.

    The gadget count is minimal; at desk scale the construction brute-force
    checks that the decision is preserved and falls back to a canonical
    equivalent instance when the gadget's balance penalty is too weak for this
    particular graph (possible because cheap unbalanced cuts of H can undercut
    the uniform offset).
    """
    n, b = inst.h.n, inst.b
    if b >= 2 * n:
        return inst
    t = 1
    while t * t + (n - 4) * t + b - 2 * n < 0:
        t += 1
    scaled_h, offset = _with_universal_clique(inst.h, t)
    scaled = BisectionInstance(scaled_h, b + offset)
    assert scaled.b >= 2 * scaled.h.n
    answer = _bisection_answer(inst, exact_limit)
    if answer is not None:
        scaled_answer = _bisection_answer(scaled, exact_limit)
        if scaled_answer is None or scaled_answer != answer:
            return _canonical_instance(answer, "large")
    return scaled


def scale_instance_between(
    inst: BisectionInstance, exact_limit: int = EXACT_BISECTION_LIMIT
) -> BisectionInstance:
    """Equivalent instance with n2/2 <= B2 <= 2*n2.

    Low budgets are lifted by one universal-vertex pair; high budgets are
    pulled into range by isolated-vertex pairs (always safe for YES instances,
    whose widths can only drop; NO instances are brute-force checked with a
    canonical fallback).
    """
    n, b = inst.h.n, inst.b
    if n <= 2 * b and b <= 2 * n:
        return inst
    answer = _bisection_answer(inst, exact_limit)
    if 2 * b < n:
        scaled_h, offset = _with_universal_clique(inst.h, 1)
        scaled = BisectionInstance(scaled_h, b + offset)
    else:  # b > 2n
        pairs = (b - 2 * n + 3) // 4
        scaled_h = _with_isolated_pairs(inst.h, pairs)
        scaled = BisectionInstance(scaled_h, b)
    assert scaled.h.n <= 2 * scaled.b <= 4 * scaled.h.n
    if answer is not None:
        scaled_answer = _bisection_answer(scaled, exact_limit)
        if scaled_answer is None:
            if not answer:
                return _canonical_instance(answer, "between")
        elif scaled_answer != answer:
            return _canonical_instance(answer, "between")
    return scaled


# -- reductions --------------------------------------------------------------------


def reduce_to_groc(
    inst: BisectionInstance,
    consts: ReductionConstants,
    pad_expander_floor: float = 0.0,
    seed: int = DEFAULT_SEED,
    max_retries: int = 50,
) -> tuple[GrocInstance, ReductionCertificate]:
    """Map (H, B) to the conductance rewiring instance (G, K=0, phi0).

    phi0 = 1 - c1 (B + n)/n; the answer convention is inverted: a bisection of
    width <= B forces phi(G) < phi0, i.e. a NO instance of the rewiring
    problem.
    """
    consts.require_conductance_conditions()
    n, b = inst.h.n, inst.b
    phi0 = 1 - consts.c1 * Fraction(b + n, n)
    if not 0 <= phi0 <= 1:
        raise ConstantConditionViolated(
            f"phi0 = {phi0} outside [0,1]; pre-scale the instance (n/2 <= B <= 2n)"
        )
    emb = embed_instance(inst.h, pad_expander_floor, seed, max_retries)
    target = GrocInstance(graph=emb.g, budget_k=0, phi0=phi0)
    cert = ReductionCertificate(
        kind="groc",
        instance=inst,
        seed=seed,
        pad_expander_floor=pad_expander_floor,
        max_retries=max_retries,
        constants=consts,
        threshold=phi0,
        embedding=emb,
    )
    return target, cert


def reduce_to_gros(
    inst: BisectionInstance,
    consts: ReductionConstants,
    pad_expander_floor: float = 0.0,
    seed: int = DEFAULT_SEED,
    max_retries: int = 50,
    require_scaled: bool = True,
) -> tuple[GrosInstance, ReductionCertificate]:
    """Map (H, B) to the spectral rewiring instance (G, K=0, tau).

    tau = 1 - 2 c1 (B + n)/n - epsilon with epsilon capped both at half the
    remaining headroom and at c1 B / n, all exact rationals.  The construction
    expects B >= 2n (scale_instance_large); pass require_scaled=False to
    explore unscaled desk instances.
    """
    consts.require_spectral_conditions()
    n, b = inst.h.n, inst.b
    if require_scaled and b < 2 * n:
        raise InfeasibleParameters(
            f"spectral reduction expects B >= 2n (got B={b}, n={n}); apply scale_instance_large"
        )
    headroom = 1 - 2 * consts.c1 * Fraction(b + n, n)
    if headroom <= 0:
        raise InfeasibleParameters(
            f"1 - 2 c1 (B+n)/n = {headroom} <= 0; B grew faster than O(n), rescale the instance"
        )
    eps_candidates = [headroom / 2]
    if b > 0:
        eps_candidates.append(consts.c1 * Fraction(b, n))
    epsilon = min(eps_candidates)
    if epsilon <= 0:
        raise InfeasibleParameters(f"epsilon = {epsilon} must be positive")
    tau = 1 - 2 * consts.c1 * Fraction(b + n, n) - epsilon
    consts = replace(consts, epsilon=epsilon)
    emb = embed_instance(inst.h, pad_expander_floor, seed, max_retries)
    target = GrosInstance(graph=emb.g, budget_k=0, tau=tau, mode="signed")
    cert = ReductionCertificate(
        kind="gros",
        instance=inst,
        seed=seed,
        pad_expander_floor=pad_expander_floor,
        max_retries=max_retries,
        constants=consts,
        threshold=tau,
        embedding=emb,
    )
    return target, cert


# -- verification ---------------------------------------------------------------------


def _forward_chain_groc(
    cert: ReductionCertificate, witness: tuple[int, ...], measured: ReductionConstants
) -> dict:
    """phi_G(S u U) <= c1 (B+n)/n = 1 - phi0 < phi0 for the bisection witness S."""
    inst = cert.instance
    n, b = inst.h.n, inst.b
    x = set(witness) | set(cert.embedding.pad_vertices)
    phi_x = conductance_of(cert.embedding.g, x).phi
    bound = cert.constants.c1 * Fraction(b + n, n)
    measured_bound = measured.c1 * Fraction(b + n, n)
    return {
        "applicable": True,
        "witness_cut_conductance": phi_x,
        "configured_bound": bound,
        "measured_bound": measured_bound,
        "one_minus_threshold": 1 - cert.threshold,
        "holds_with_configured": phi_x <= bound,
        "holds_with_measured": phi_x <= measured_bound,
        "threshold_above_half": cert.threshold > Fraction(1, 2),
    }


def _reverse_chain_groc(cert: ReductionCertificate, min_cut_side: tuple[int, ...], phi_g: Fraction) -> dict:
    """Extraction + balancing chain evaluated on the actual minimum cut of G."""
    inst = cert.instance
    h, b = inst.h, inst.b
    n = h.n
    s = tuple(v for v in min_cut_side if v < n)
    terms: dict = {
        "applicable": True,
        "min_cut_conductance": phi_g,
        "threshold": cert.threshold,
        "hypothesis_phi_below_threshold": phi_g < cert.threshold,
        "extracted_side": s,
    }
    width = _h_cut_width(h, sum(1 << v for v in s))
    terms["extracted_width"] = width
    terms["extraction_bound_configured"] = cert.constants.c2 * phi_g * n
    terms["extraction_holds_configured"] = Fraction(width) <= cert.constants.c2 * phi_g * n
    if 0 < len(s) < n:
        balanced, factor = balance_cut(h, s)
        bal_width = _h_cut_width(h, sum(1 << v for v in balanced))
        terms["balanced_side"] = balanced
        terms["balanced_width"] = bal_width
        terms["balance_factor"] = factor
        terms["balance_bound_configured"] = cert.constants.c3 * width
        terms["contradiction_bound"] = cert.constants.c2 * cert.constants.c3 * cert.threshold * n
        terms["balanced_width_below_budget"] = bal_width < max(b, 1)
    else:
        terms["balanced_side"] = None
    terms["conclusion_phi_at_least_threshold"] = phi_g >= cert.threshold
    return terms


def _forward_chain_gros(
    cert: ReductionCertificate,
    witness: tuple[int, ...],
    lambda2_g: float,
    mu2_excess: bool,
    measured: ReductionConstants,
) -> dict:
    """Cut witness -> Cheeger -> lambda2 small -> mu2 above tau."""
    inst = cert.instance
    n, b = inst.h.n, inst.b
    x = set(witness) | set(cert.embedding.pad_vertices)
    phi_x = conductance_of(cert.embedding.g, x).phi
    delta_bound = 2 * cert.constants.c1 * Fraction(b + n, n)
    return {
        "applicable": True,
        "witness_cut_conductance": phi_x,
        "configured_bound": cert.constants.c1 * Fraction(b + n, n),
        "measured_bound": measured.c1 * Fraction(b + n, n),
        "holds_with_measured": phi_x <= measured.c1 * Fraction(b + n, n),
        "cheeger_lambda2_bound": delta_bound,
        "lambda2_measured": lambda2_g,
        "lambda2_within_bound": lambda2_g <= float(delta_bound) + 1e-9,
        "mu2_exceeds_tau": mu2_excess,
    }


def _reverse_chain_gros(cert: ReductionCertificate, lambda2_g: float, mu2_leq_tau: bool) -> dict:
    """delta, sqrt(2 delta) and the extraction/balancing contradiction terms."""
    inst = cert.instance
    h, b = inst.h, inst.b
    n = h.n
    eps = cert.constants.epsilon
    delta = 2 * cert.constants.c1 * Fraction(b + n, n) + eps
    sqrt_2_delta = float(2 * delta) ** 0.5
    eps_cut = 2.0 * float(3 * cert.constants.c1 * Fraction(max(b, 1), n)) ** 0.5
    terms: dict = {
        "applicable": True,
        "delta": delta,
        "sqrt_two_delta": sqrt_2_delta,
        "cut_conductance_target": eps_cut,
        "sqrt_bound_holds": sqrt_2_delta <= eps_cut + 1e-12,
        "lambda2_measured": lambda2_g,
        "extraction_bound": float(cert.constants.c2) * eps_cut * n,
        "half_sqrt_bn": (float(b) * n) ** 0.5 / 2.0,
        "conclusion_mu2_leq_tau": mu2_leq_tau,
    }
    cut = conductance_exact(cert.embedding.g)
    s = tuple(v for v in cut.subset if v < n)
    terms["min_cut_conductance"] = cut.phi
    terms["extracted_side"] = s
    width = _h_cut_width(h, sum(1 << v for v in s))
    terms["extracted_width"] = width
    if 0 < len(s) < n:
        balanced, factor = balance_cut(h, s)
        terms["balanced_width"] = _h_cut_width(h, sum(1 << v for v in balanced))
        terms["balance_factor"] = factor
    return terms


def verify_reduction(
    inst: BisectionInstance,
    cert: ReductionCertificate,
    h_limit: int = VERIFY_H_LIMIT,
) -> ReductionCertificate:
    """Recompute bisection truth and graph value, evaluate both proof chains.

    Returns the completed certificate.  Agreement is whether the reduction's
    biconditional (bisection width <= B iff rewiring instance is NO) held on
    this finite instance with the configured constants.
    """
    if inst != cert.instance:
        raise InfeasibleParameters("certificate does not belong to this instance")
    h = inst.h
    if h.n > h_limit:
        raise ExactLimitExceeded(f"verification limited to h.n <= {h_limit}, got {h.n}")
    g = cert.embedding.g
    truth = min_bisection_exact(h)
    bisection_yes = truth.width <= inst.b
    measured = measure_constants(cert.embedding, h, exact_limit=h_limit)

    if cert.kind == "groc":
        cut = conductance_exact(g)
        phi_g = cut.phi
        rewiring_no = phi_g < cert.threshold
        forward = (
            _forward_chain_groc(cert, truth.partition, measured)
            if bisection_yes
            else {"applicable": False}
        )
        reverse = (
            _reverse_chain_groc(cert, cut.subset, phi_g)
            if not bisection_yes
            else {"applicable": False}
        )
        return replace(
            cert,
            measured=measured,
            bisection_width=truth.width,
            bisection_witness=truth.partition,
            graph_value=float(phi_g),
            graph_phi=phi_g,
            forward_check=forward,
            reverse_check=reverse,
            agreement=bisection_yes == rewiring_no,
        )

    # gros
    mu2_leq_tau = exact_mu2_leq(g, cert.threshold, mode="signed")
    prop = matrix_of(g, "propagation")
    mu2_float = float(np.linalg.eigvalsh(prop)[-2])
    lambda2_g = spectral_summary(g).lambda2
    rewiring_no = not mu2_leq_tau
    forward = (
        _forward_chain_gros(cert, truth.partition, lambda2_g, rewiring_no, measured)
        if bisection_yes
        else {"applicable": False}
    )
    reverse = (
        _reverse_chain_gros(cert, lambda2_g, mu2_leq_tau)
        if not bisection_yes
        else {"applicable": False}
    )
    return replace(
        cert,
        measured=measured,
        bisection_width=truth.width,
        bisection_witness=truth.partition,
        graph_value=mu2_float,
        mu2_leq_tau=mu2_leq_tau,
        forward_check=forward,
        reverse_check=reverse,
        agreement=bisection_yes == rewiring_no,
    )


# -- certificate serialization ----------------------------------------------------------


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _jsonable(value):
    if isinstance(value, Fraction):
        return _frac_str(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value)!r}")


def _constants_json(consts: ReductionConstants | None):
    if consts is None:
        return None
    out = {"c1": _frac_str(consts.c1), "c2": _frac_str(consts.c2), "c3": _frac_str(consts.c3)}
    if consts.epsilon is not None:
        out["epsilon"] = _frac_str(consts.epsilon)
    return out


def certificate_to_json(cert: ReductionCertificate) -> dict:
    return {
        "kind": cert.kind,
        "instance": {"graph": serialize_graph(cert.instance.h), "budget": cert.instance.b},
        "seed": cert.seed,
        "pad_expander_floor": repr(float(cert.pad_expander_floor)),
        "max_retries": cert.max_retries,
        "constants": _constants_json(cert.constants),
        "threshold": _frac_str(cert.threshold),
        "inverted": cert.inverted,
        "embedding": {
            "graph": serialize_graph(cert.embedding.g),
            "original_vertices": list(cert.embedding.original_vertices),
            "pad_vertices": list(cert.embedding.pad_vertices),
            "certified_lambda2": repr(cert.embedding.certified_lambda2),
        },
        "measured_constants": _constants_json(cert.measured),
        "bisection": None
        if cert.bisection_width is None
        else {"width": cert.bisection_width, "witness": list(cert.bisection_witness)},
        "graph_value": None if cert.graph_value is None else repr(cert.graph_value),
        "graph_phi": None if cert.graph_phi is None else _frac_str(cert.graph_phi),
        "mu2_leq_tau": cert.mu2_leq_tau,
        "forward_check": _jsonable(cert.forward_check),
        "reverse_check": _jsonable(cert.reverse_check),
        "agreement": cert.agreement,
    }


def certificate_json_text(cert: ReductionCertificate) -> str:
    return json.dumps(certificate_to_json(cert), sort_keys=True, indent=2) + "\n"


def rebuild_certificate(cert_json: dict, h_limit: int = VERIFY_H_LIMIT) -> ReductionCertificate:
    """Reconstruct and re-verify a certificate from its recorded inputs.

    `h_limit` caps the instance size of the re-verification, as in `verify_reduction`.
    """
    inst = BisectionInstance(
        h=parse_graph(cert_json["instance"]["graph"]), b=int(cert_json["instance"]["budget"])
    )
    raw_consts = cert_json["constants"]
    consts = ReductionConstants(
        c1=Fraction(raw_consts["c1"]),
        c2=Fraction(raw_consts["c2"]),
        c3=Fraction(raw_consts["c3"]),
    )
    seed = int(cert_json["seed"])
    floor = float(cert_json["pad_expander_floor"])
    retries = int(cert_json["max_retries"])
    if cert_json["kind"] == "groc":
        _, skeleton = reduce_to_groc(inst, consts, floor, seed, retries)
    else:
        _, skeleton = reduce_to_gros(inst, consts, floor, seed, retries, require_scaled=False)
    return verify_reduction(inst, skeleton, h_limit=h_limit)
