"""Minimum-bisection reductions: certified expanders, embeddings, scaling, verification.

The pipeline turns a bisection instance (H, B) into a conductance or spectral
rewiring instance on a 3-regular host graph G built by padding H with an
expander-like completion.  Thresholds are exact rationals; constants come in a
configured flavour (validated against the constant conditions the hardness
argument needs) and a measured
flavour (enumerated tight values on the finite instance).  Verification
recomputes everything from scratch and records the inequality chain of the
proof direction the bisection answer selects, marking the other as not
applicable; biconditional agreement is recorded, never asserted, because
finite instances cannot honour asymptotic constants.  This module alone knows
the certificate format: it writes certificates and checks the ones it reads.
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
    _boundary_and_volumes,
    _cut_table,
    _least_ratio,
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
    MalformedHeader,
    PadCompletionFailure,
)
from .graph import Graph, _pair_stubs, build_graph, complete_graph, cycle_graph, matrix_of, parse_graph, random_regular_graph, serialize_graph
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
        stubs = list(stubs_template)
        random.Random(seed + 104729 * attempt).shuffle(stubs)
        pad_edges = _pair_stubs(stubs)
        if pad_edges is None:
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


def _greatest_ratio(num: np.ndarray, den: np.ndarray) -> Fraction:
    """Greatest num/den over the entries with den > 0, or 0 if there are none."""
    top = _least_ratio(-num, den)
    return Fraction(int(num[top[0]]), int(den[top[0]])) if len(top) else Fraction(0)


def measure_constants(
    emb: ExpanderEmbedding, h: Graph, exact_limit: int = VERIFY_H_LIMIT
) -> ReductionConstants:
    """Enumerate the tight constants realized by this embedding.

    c1: max over S subset V, |S| <= n/2 of phi_G(S u U) * n / (|cut_H(S)| + n).
    c2: max over cuts X of G with phi_G(X) > 0 of |cut_H(X n V)| / (phi_G(X) n).
    c3: max balancing factor of the extracted side S = X n V over the same cuts.

    All read the cut tables of G and H (phi_G(S u U) is the entry of V \\ S);
    each maximum is decided by integer cross-multiplication.
    """
    n = h.n
    if n > exact_limit:
        raise ExactLimitExceeded(f"constant measurement limited to h.n <= {exact_limit}, got {n}")
    g = emb.g
    total_vol = 2 * g.m
    v_all = (1 << n) - 1
    # |cut_H(S)| for every S subset V; S and V \ S have the same width
    width = np.concatenate([cut for _, cut, _ in sorted(_cut_table(h), key=lambda chunk: chunk[0])])
    width = np.concatenate((width, width[::-1]))

    c1 = c2 = c3 = Fraction(0)
    seen = np.zeros(1 << n, bool)  # the sides X n V of the cuts with cut > 0
    for start, cut, vol in _cut_table(g):
        x = start + np.arange(len(cut))
        s = x & v_all
        w = width[s]
        min_vol = np.minimum(vol, total_vol - vol)
        # c1 reads X = V \ S, so X misses U and |X| >= n - n/2; other X get a zero denominator
        pick = (x == s) & (np.bitwise_count(s) >= n - n // 2)
        c1 = max(c1, _greatest_ratio(cut * n, min_vol * (w + n) * pick))
        # phi_G(X) > 0 exactly when cut > 0, which also makes min_vol > 0
        c2 = max(c2, _greatest_ratio(w * min_vol, cut * n))
        seen[s[cut > 0]] = True
    for s_mask in np.flatnonzero(seen).tolist():
        if s_mask not in (0, v_all):
            c3 = max(c3, balance_cut(h, tuple(v for v in range(n) if s_mask >> v & 1))[1])
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


def _certificate(
    kind: str,
    inst: BisectionInstance,
    consts: ReductionConstants,
    threshold: Fraction,
    floor: float,
    seed: int,
    retries: int,
) -> ReductionCertificate:
    """Embed H and record the inputs of the reduction, before verification."""
    return ReductionCertificate(
        kind=kind,
        instance=inst,
        seed=seed,
        pad_expander_floor=floor,
        max_retries=retries,
        constants=consts,
        threshold=threshold,
        embedding=embed_instance(inst.h, floor, seed, retries),
    )


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
    cert = _certificate("groc", inst, consts, phi0, pad_expander_floor, seed, max_retries)
    return GrocInstance(graph=cert.embedding.g, budget_k=0, phi0=phi0), cert


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
    tau = headroom - epsilon
    consts = replace(consts, epsilon=epsilon)
    cert = _certificate("gros", inst, consts, tau, pad_expander_floor, seed, max_retries)
    return GrosInstance(graph=cert.embedding.g, budget_k=0, tau=tau, mode="signed"), cert


# -- verification ---------------------------------------------------------------------


def _witness_terms(cert: ReductionCertificate, witness: tuple[int, ...], measured: ReductionConstants) -> dict:
    """phi_G(S u U) for the bisection witness S against c1 (B+n)/n, configured and measured."""
    n, b = cert.instance.h.n, cert.instance.b
    phi_x = conductance_of(cert.embedding.g, set(witness) | set(cert.embedding.pad_vertices)).phi
    measured_bound = measured.c1 * Fraction(b + n, n)
    return {
        "applicable": True,
        "witness_cut_conductance": phi_x,
        "configured_bound": cert.constants.c1 * Fraction(b + n, n),
        "measured_bound": measured_bound,
        "holds_with_measured": phi_x <= measured_bound,
    }


def _extraction_terms(h: Graph, min_cut_side: tuple[int, ...]) -> dict:
    """The side S = X n V of a minimum cut X of G, its width in H, and its balanced version.

    `balanced_side` is None when S is empty or all of V, and then no balance terms follow.
    """
    s = tuple(v for v in min_cut_side if v < h.n)
    terms: dict = {"extracted_side": s, "extracted_width": _boundary_and_volumes(h, set(s))[0], "balanced_side": None}
    if 0 < len(s) < h.n:
        balanced, factor = balance_cut(h, s)
        terms["balanced_side"] = balanced
        terms["balanced_width"] = _boundary_and_volumes(h, set(balanced))[0]
        terms["balance_factor"] = factor
    return terms


def _forward_chain_groc(
    cert: ReductionCertificate, witness: tuple[int, ...], measured: ReductionConstants
) -> dict:
    """phi_G(S u U) <= c1 (B+n)/n = 1 - phi0 < phi0 for the bisection witness S."""
    terms = _witness_terms(cert, witness, measured)
    terms["one_minus_threshold"] = 1 - cert.threshold
    terms["holds_with_configured"] = terms["witness_cut_conductance"] <= terms["configured_bound"]
    terms["threshold_above_half"] = cert.threshold > Fraction(1, 2)
    return terms


def _reverse_chain_groc(cert: ReductionCertificate, min_cut_side: tuple[int, ...], phi_g: Fraction) -> dict:
    """Extraction + balancing chain evaluated on the actual minimum cut of G."""
    h, b = cert.instance.h, cert.instance.b
    c2, c3 = cert.constants.c2, cert.constants.c3
    terms = _extraction_terms(h, min_cut_side)
    terms.update(
        applicable=True,
        min_cut_conductance=phi_g,
        threshold=cert.threshold,
        hypothesis_phi_below_threshold=phi_g < cert.threshold,
        extraction_bound_configured=c2 * phi_g * h.n,
        extraction_holds_configured=terms["extracted_width"] <= c2 * phi_g * h.n,
        conclusion_phi_at_least_threshold=phi_g >= cert.threshold,
    )
    if terms["balanced_side"] is not None:
        terms["balance_bound_configured"] = c3 * terms["extracted_width"]
        terms["contradiction_bound"] = c2 * c3 * cert.threshold * h.n
        terms["balanced_width_below_budget"] = terms["balanced_width"] < max(b, 1)
    return terms


def _forward_chain_gros(
    cert: ReductionCertificate,
    witness: tuple[int, ...],
    lambda2_g: float,
    mu2_excess: bool,
    measured: ReductionConstants,
) -> dict:
    """Cut witness -> Cheeger -> lambda2 small -> mu2 above tau."""
    terms = _witness_terms(cert, witness, measured)
    delta_bound = 2 * terms["configured_bound"]
    terms["cheeger_lambda2_bound"] = delta_bound
    terms["lambda2_measured"] = lambda2_g
    terms["lambda2_within_bound"] = lambda2_g <= float(delta_bound) + 1e-9
    terms["mu2_exceeds_tau"] = mu2_excess
    return terms


def _reverse_chain_gros(cert: ReductionCertificate, lambda2_g: float, mu2_leq_tau: bool) -> dict:
    """delta, sqrt(2 delta) and the extraction/balancing contradiction terms."""
    h, b = cert.instance.h, cert.instance.b
    n = h.n
    c1 = cert.constants.c1
    delta = 2 * c1 * Fraction(b + n, n) + cert.constants.epsilon
    sqrt_2_delta = float(2 * delta) ** 0.5
    eps_cut = 2.0 * float(3 * c1 * Fraction(max(b, 1), n)) ** 0.5
    cut = conductance_exact(cert.embedding.g)
    terms = _extraction_terms(h, cut.subset)
    del terms["balanced_side"]  # spectral certificates record only the balanced width and factor
    terms.update(
        applicable=True,
        delta=delta,
        sqrt_two_delta=sqrt_2_delta,
        cut_conductance_target=eps_cut,
        sqrt_bound_holds=sqrt_2_delta <= eps_cut + 1e-12,
        lambda2_measured=lambda2_g,
        extraction_bound=float(cert.constants.c2) * eps_cut * n,
        half_sqrt_bn=(float(b) * n) ** 0.5 / 2.0,
        conclusion_mu2_leq_tau=mu2_leq_tau,
        min_cut_conductance=cut.phi,
    )
    return terms


def verify_reduction(
    inst: BisectionInstance,
    cert: ReductionCertificate,
    h_limit: int = VERIFY_H_LIMIT,
) -> ReductionCertificate:
    """Recompute bisection truth and graph value, evaluate the selected proof chain.

    The bisection answer selects the proof direction: its chain is evaluated
    and the other is recorded as {"applicable": False}.  Returns the completed
    certificate.  Agreement is whether the reduction's biconditional (bisection
    width <= B iff rewiring instance is NO) held on this finite instance with
    the configured constants.
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
        rewiring_no = cut.phi < cert.threshold
        values = {"graph_value": float(cut.phi), "graph_phi": cut.phi}
        chain = (
            _forward_chain_groc(cert, truth.partition, measured)
            if bisection_yes
            else _reverse_chain_groc(cert, cut.subset, cut.phi)
        )
    else:
        mu2_leq_tau = exact_mu2_leq(g, cert.threshold, mode="signed")
        mu2_float = float(np.linalg.eigvalsh(matrix_of(g, "propagation"))[-2])
        lambda2_g = spectral_summary(g).lambda2
        rewiring_no = not mu2_leq_tau
        values = {"graph_value": mu2_float, "mu2_leq_tau": mu2_leq_tau}
        chain = (
            _forward_chain_gros(cert, truth.partition, lambda2_g, rewiring_no, measured)
            if bisection_yes
            else _reverse_chain_gros(cert, lambda2_g, mu2_leq_tau)
        )
    idle = {"applicable": False}
    return replace(
        cert,
        measured=measured,
        bisection_width=truth.width,
        bisection_witness=truth.partition,
        forward_check=chain if bisection_yes else idle,
        reverse_check=idle if bisection_yes else chain,
        agreement=bisection_yes == rewiring_no,
        **values,
    )


# -- certificate serialization ----------------------------------------------------------


def _jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
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


def _constants_json(consts: ReductionConstants | None) -> dict | None:
    return None if consts is None else {k: v for k, v in vars(consts).items() if v is not None}


def certificate_to_json(cert: ReductionCertificate) -> dict:
    emb = cert.embedding
    return _jsonable({
        "kind": cert.kind,
        "instance": {"graph": serialize_graph(cert.instance.h), "budget": cert.instance.b},
        "seed": cert.seed,
        "pad_expander_floor": float(cert.pad_expander_floor),
        "max_retries": cert.max_retries,
        "constants": _constants_json(cert.constants),
        "threshold": cert.threshold,
        "inverted": cert.inverted,
        "embedding": {
            "graph": serialize_graph(emb.g),
            "original_vertices": emb.original_vertices,
            "pad_vertices": emb.pad_vertices,
            "certified_lambda2": emb.certified_lambda2,
        },
        "measured_constants": _constants_json(cert.measured),
        "bisection": None
        if cert.bisection_width is None
        else {"width": cert.bisection_width, "witness": cert.bisection_witness},
        "graph_value": cert.graph_value,
        "graph_phi": cert.graph_phi,
        "mu2_leq_tau": cert.mu2_leq_tau,
        "forward_check": cert.forward_check,
        "reverse_check": cert.reverse_check,
        "agreement": cert.agreement,
    })


def certificate_json_text(cert: ReductionCertificate) -> str:
    return json.dumps(certificate_to_json(cert), sort_keys=True, indent=2) + "\n"


#: What `rebuild_certificate` reads, with the JSON types `certificate_to_json` writes.
_CERTIFICATE_INPUTS = {
    "kind": str,
    "instance": {"graph": str, "budget": int},
    "constants": {"c1": str, "c2": str, "c3": str},
    "seed": int,
    "pad_expander_floor": str,
    "max_retries": int,
}


def _mistyped_fields(value, shape: dict, path: str = "certificate") -> list[str]:
    """The fields of `shape` that `value` lacks or holds with another type."""
    if not isinstance(value, dict):
        return [path]
    bad = []
    for key, kind in shape.items():
        if isinstance(kind, dict):
            bad += _mistyped_fields(value.get(key), kind, f"{path}.{key}")
        elif not isinstance(value.get(key), kind):
            bad.append(f"{path}.{key}")
    return bad


def rebuild_certificate(cert_json: dict, h_limit: int = VERIFY_H_LIMIT) -> ReductionCertificate:
    """Reconstruct and re-verify a certificate from its recorded inputs.

    Raises MalformedHeader when an input is missing or has another JSON type
    than `certificate_to_json` writes.  `h_limit` caps the instance size of the
    re-verification, as in `verify_reduction`.
    """
    bad = _mistyped_fields(cert_json, _CERTIFICATE_INPUTS)
    if bad:
        raise MalformedHeader(f"not a reduction certificate: {', '.join(bad)} missing or mistyped")
    inst = BisectionInstance(
        h=parse_graph(cert_json["instance"]["graph"]), b=int(cert_json["instance"]["budget"])
    )
    raw_consts = cert_json["constants"]
    consts = ReductionConstants(
        c1=Fraction(raw_consts["c1"]),
        c2=Fraction(raw_consts["c2"]),
        c3=Fraction(raw_consts["c3"]),
    )
    # int() also turns a JSON true, which passes the int check, into 1
    seed = int(cert_json["seed"])
    floor = float(cert_json["pad_expander_floor"])
    retries = int(cert_json["max_retries"])
    if cert_json["kind"] == "groc":
        _, skeleton = reduce_to_groc(inst, consts, floor, seed, retries)
    else:
        _, skeleton = reduce_to_gros(inst, consts, floor, seed, retries, require_scaled=False)
    return verify_reduction(inst, skeleton, h_limit=h_limit)
