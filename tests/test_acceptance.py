"""Acceptance suite: one test per criterion, each printing a pass line.

Expected values follow the oracle-first rule: every asserted number is either
recomputed here by an independent oracle (plain subset/partition scans, Neumann
series, closed-form electrical identities) or is an exact arithmetic identity.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from conftest import (
    make_connected,
    make_connected_regular,
    make_gnp,
    make_max_degree_3,
    oracle_conductance,
    oracle_min_bisection,
)
from rewirelab import (
    BisectionInstance,
    GrocInstance,
    GrosInstance,
    ReductionConstants,
    apply_edits,
    barbell_graph,
    build_graph,
    certificate_json_text,
    complete_graph,
    conductance_exact,
    conductance_of,
    cycle_graph,
    decide_groc,
    decide_gros,
    effective_resistance,
    embed_instance,
    exact_mu2_leq,
    matrix_of,
    min_bisection_exact,
    parse_graph,
    ppr_matrix,
    ppr_rewire,
    random_regular_graph,
    rebuild_certificate,
    reduce_to_groc,
    reduce_to_gros,
    scale_instance_between,
    scale_instance_large,
    sdrf_like_rewire,
    serialize_graph,
    spectral_summary,
    verify_reduction,
    greedy_rewire,
)


def _report(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion:2d}: PASS — {message}")


def test_criterion_01_cheeger_suite():
    started = time.monotonic()
    rng = random.Random(101)
    checked = 0
    while checked < 200:
        n = rng.randrange(4, 13)
        if checked % 3 == 0 and n >= 4:
            d = rng.choice([2, 3])
            if (n * d) % 2 != 0:
                n += 1
            g = make_connected_regular(rng, n, d)
        else:
            g = make_connected(rng, n)
        phi = float(conductance_exact(g).phi)
        lam = spectral_summary(g, augmented=False).lambda2
        assert phi * phi / 2.0 <= lam + 1e-9
        assert lam <= 2.0 * phi + 1e-9
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(1, f"200 graphs satisfy phi^2/2 <= lambda2 <= 2 phi (slack 1e-9) in {elapsed:.1f}s")


def test_criterion_02_regular_identity():
    rng = random.Random(202)
    worst = 0.0
    for _ in range(50):
        d = rng.choice([3, 4])
        n = rng.choice([8, 10, 12, 14, 16])
        g = make_connected_regular(rng, n, d)
        s = spectral_summary(g, augmented=False)
        worst = max(worst, abs(s.mu2 - (1.0 - s.lambda2)))
    assert worst <= 1e-9
    _report(2, f"50 regular graphs: max |mu2 - (1 - lambda2)| = {worst:.2e} <= 1e-9")


def test_criterion_03_exact_vs_float_eigen_agreement():
    rng = random.Random(303)
    checked = 0
    disagreements = 0
    while checked < 500:
        g = make_gnp(rng, rng.randrange(2, 11), rng.random())
        eigs = np.sort(np.linalg.eigvalsh(matrix_of(g, "propagation")))
        mu2 = float(eigs[-2])
        if rng.random() < 0.5:
            tau = Fraction(rng.randrange(-1000, 1001), 1000)
        else:
            # probe near the eigenvalue to stress the boundary
            offset = rng.choice([-1, 1]) * rng.choice([2e-5, 1e-4, 1e-3])
            tau = Fraction(round((mu2 + offset) * 10**7), 10**7)
        if abs(float(tau) - mu2) <= 1e-6 or not -1 <= tau <= 1:
            continue
        if exact_mu2_leq(g, tau) != (mu2 <= float(tau)):
            disagreements += 1
        checked += 1
    assert disagreements == 0
    _report(3, "500 (graph, tau) pairs: exact Sturm decision matches the float eigensolver")


def _reverify_groc(decision, g, inst) -> None:
    fresh = parse_graph(serialize_graph(g))
    rebuilt = apply_edits(fresh, decision.witness)
    assert decision.witness.size <= inst.budget_k
    assert conductance_exact(rebuilt).phi >= inst.phi0


def _reverify_gros(decision, g, inst) -> None:
    fresh = parse_graph(serialize_graph(g))
    rebuilt = apply_edits(fresh, decision.witness)
    assert decision.witness.size <= inst.budget_k
    assert exact_mu2_leq(rebuilt, inst.tau, mode=inst.mode)


def test_criterion_04_decision_soundness_and_monotonicity():
    rng = random.Random(404)
    yes_groc = yes_gros = 0
    for _ in range(100):
        g = make_gnp(rng, rng.randrange(4, 9), rng.random())
        k = rng.randrange(0, 3)
        inst = GrocInstance(g, k, Fraction(rng.randrange(1, 10), 10))
        d = decide_groc(inst)
        if d.answer == "yes":
            yes_groc += 1
            _reverify_groc(d, g, inst)
            bigger = decide_groc(GrocInstance(g, k + 1, inst.phi0), decision_only=True)
            assert bigger.answer == "yes"
    for _ in range(100):
        g = make_gnp(rng, rng.randrange(4, 9), rng.random())
        k = rng.randrange(0, 3)
        inst = GrosInstance(g, k, Fraction(rng.randrange(-25, 101), 100))
        d = decide_gros(inst)
        if d.answer == "yes":
            yes_gros += 1
            _reverify_gros(d, g, inst)
            bigger = decide_gros(GrosInstance(g, k + 1, inst.tau), decision_only=True)
            assert bigger.answer == "yes"
    assert yes_groc > 0 and yes_gros > 0  # the sample must exercise both branches
    _report(4, f"100+100 instances sound and budget-monotone ({yes_groc}/{yes_gros} yes answers re-verified)")


def test_criterion_05_known_value_spot_checks():
    # conductance oracles: direct all-subset scans
    assert oracle_conductance(complete_graph(4)) == Fraction(2, 3)
    assert conductance_exact(complete_graph(4)).phi == Fraction(2, 3)
    assert oracle_conductance(cycle_graph(4)) == Fraction(1, 2)
    assert conductance_exact(cycle_graph(4)).phi == Fraction(1, 2)
    b5 = barbell_graph(5)
    assert oracle_conductance(b5) == Fraction(1, 21)
    assert conductance_exact(b5).phi == Fraction(1, 21)
    # lambda2(C4) = 1: cycle spectrum 1 - cos(2 pi k / 4) gives {0, 1, 1, 2}
    lam = np.sort(np.linalg.eigvalsh(matrix_of(cycle_graph(4), "normalized_laplacian")))
    assert abs(lam[1] - 1.0) <= 1e-9
    assert abs(spectral_summary(cycle_graph(4), augmented=False).lambda2 - 1.0) <= 1e-9
    # mu2(K2 augmented) = 0: P = [[1/2,1/2],[1/2,1/2]]
    mu = np.sort(np.linalg.eigvalsh(np.full((2, 2), 0.5)))
    assert abs(mu[-2]) <= 1e-12
    assert abs(spectral_summary(complete_graph(2)).mu2) <= 1e-9
    # min bisection C4 = 2 by balanced-partition scan
    assert oracle_min_bisection(cycle_graph(4))[0] == 2
    assert min_bisection_exact(cycle_graph(4)).width == 2
    # effective resistance C4 adjacent = 3/4: parallel resistors 1 and 3
    assert abs(1 / (1 / 1 + 1 / 3) - 0.75) <= 1e-12
    assert abs(effective_resistance(cycle_graph(4), 0, 1) - 0.75) <= 1e-9
    _report(5, "all seven spot values match their independent oracles to 1e-9")


def _all_degree3_graphs_on_4_vertices():
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    for bits in range(1 << 6):
        edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
        yield build_graph(4, edges)


def _measured_c1(emb, h) -> Fraction:
    n = h.n
    u_set = set(emb.pad_vertices)
    best = Fraction(0)
    for bits in range(1 << n):
        members = {v for v in range(n) if bits >> v & 1}
        if len(members) > n // 2:
            continue
        width = sum(1 for a, b in h.edges if (a in members) != (b in members))
        phi = conductance_of(emb.g, members | u_set).phi
        best = max(best, phi * n / (width + n))
    return best


def test_criterion_06_reduction_forward_direction():
    rng = random.Random(606)
    instances = list(_all_degree3_graphs_on_4_vertices())
    instances += [make_max_degree_3(rng, 6) for _ in range(8)]
    instances += [make_max_degree_3(rng, 8) for _ in range(4)]
    assert len(instances) >= 50
    c1 = Fraction(1, 10)
    for idx, h in enumerate(instances):
        n = h.n
        b = min_bisection_exact(h).width
        emb = embed_instance(h, seed=1000 + idx)
        c1_hat = _measured_c1(emb, h)
        bound = c1_hat * Fraction(b + n, n)
        u_set = set(emb.pad_vertices)
        for side in combinations(range(1, n), n // 2 - 1):
            s = {0, *side}
            width = sum(1 for a, e in h.edges if (a in s) != (e in s))
            if width <= b:
                assert conductance_of(emb.g, s | u_set).phi <= bound
        # arithmetic identity: phi0 > 1/2 whenever c1 < 1/6 and B <= 2n
        assert b <= 2 * n
        assert 1 - c1 * Fraction(b + n, n) > Fraction(1, 2)
    _report(6, f"{len(instances)} embeddings: every width<=B witness satisfies the measured c1 bound")


def test_criterion_07_scaling_gadget_equivalence():
    rng = random.Random(707)
    for _ in range(50):
        n = rng.choice([4, 6, 8])
        h = make_gnp(rng, n, rng.random())
        b = rng.randrange(0, h.m + 3)
        inst = BisectionInstance(h, b)
        truth = min_bisection_exact(h).width <= b
        big = scale_instance_large(inst)
        assert big.b >= 2 * big.h.n
        assert (min_bisection_exact(big.h).width <= big.b) == truth
        mid = scale_instance_between(inst)
        assert mid.h.n <= 2 * mid.b <= 4 * mid.h.n
        assert (min_bisection_exact(mid.h).width <= mid.b) == truth
    _report(7, "50 instances: bisection decision identical before and after both scalings")


def _agreement_instance_set(rng):
    insts = [
        BisectionInstance(cycle_graph(4), 2),
        BisectionInstance(cycle_graph(4), 1),
        BisectionInstance(cycle_graph(4), 0),
        BisectionInstance(build_graph(4, [(0, 1), (2, 3)]), 0),
        BisectionInstance(build_graph(4, [(0, 1), (1, 2), (2, 3)]), 1),
        BisectionInstance(build_graph(4, []), 0),
    ]
    for _ in range(6):
        h = make_max_degree_3(rng, 6)
        width = min_bisection_exact(h).width
        insts.append(BisectionInstance(h, width))
        if width >= 1:
            insts.append(BisectionInstance(h, width - 1))
    return insts


def _build_agreement_report(seed: int) -> dict:
    rng = random.Random(seed)
    groc_consts = ReductionConstants(Fraction(1, 10), Fraction(1, 10), Fraction(1, 2))
    gros_consts = ReductionConstants(Fraction(1, 64), Fraction(1, 10), Fraction(1, 2))
    rows = []
    for idx, inst in enumerate(_agreement_instance_set(rng)):
        _, cert = reduce_to_groc(inst, groc_consts, seed=seed + idx)
        done = verify_reduction(inst, cert)
        rows.append(("groc", idx, done.agreement, certificate_json_text(done)))
        _, cert = reduce_to_gros(inst, gros_consts, seed=seed + idx, require_scaled=False)
        done = verify_reduction(inst, cert)
        rows.append(("gros", idx, done.agreement, certificate_json_text(done)))
    # one natively scaled spectral instance (B >= 2n keeps the max degree at 3)
    scaled = BisectionInstance(cycle_graph(4), 8)
    _, cert = reduce_to_gros(scaled, gros_consts, seed=seed)
    done = verify_reduction(scaled, cert)
    rows.append(("gros_scaled", 0, done.agreement, certificate_json_text(done)))
    agreements = [r[2] for r in rows]
    return {
        "instances": len(rows),
        "agreement_rate": sum(agreements) / len(agreements),
        "rows": rows,
    }


def test_criterion_08_biconditional_agreement_report():
    report_a = _build_agreement_report(808)
    report_b = _build_agreement_report(808)
    assert report_a["instances"] == report_b["instances"]
    assert [r[:3] for r in report_a["rows"]] == [r[:3] for r in report_b["rows"]]
    # deterministic under seed: byte-identical certificates
    assert [r[3] for r in report_a["rows"]] == [r[3] for r in report_b["rows"]]
    # every inequality term recomputable: certificates rebuild byte-for-byte
    for _, _, _, text in report_a["rows"][:6]:
        assert certificate_json_text(rebuild_certificate(json.loads(text))) == text
    rate = report_a["agreement_rate"]
    _report(8, f"agreement report over {report_a['instances']} certificates, rate {rate:.2f} (reported, not thresholded)")


def test_criterion_09_heuristic_sanity():
    # greedy on barbell(5): exact conductance strictly increases
    b5 = barbell_graph(5)
    edits, _ = greedy_rewire(b5, 1, "conductance")
    assert conductance_exact(apply_edits(b5, edits)).phi > conductance_exact(b5).phi
    # sdrf never disconnects
    rng = random.Random(909)
    for _ in range(100):
        g = make_connected(rng, rng.randrange(4, 9))
        edits, _ = sdrf_like_rewire(g, rng.randrange(1, 5), rng.random())
        assert apply_edits(g, edits).is_connected()
    # ppr matches a Neumann-series oracle to 1e-8
    for _ in range(20):
        g = make_connected(rng, rng.randrange(2, 11))
        alpha = rng.uniform(0.05, 0.9)
        t_mat = matrix_of(g, "row_stochastic_propagation")
        term = alpha * np.eye(g.n)
        oracle = term.copy()
        while np.abs(term).max() > 1e-14:
            term = (1 - alpha) * (term @ t_mat)
            oracle += term
        assert np.abs(ppr_matrix(g, alpha) - oracle).max() <= 1e-8
        edits, _ = ppr_rewire(g, alpha, 1e-4, 3)
        assert all(p not in g.edges for p in edits.additions)
    _report(9, "greedy improves barbell, sdrf preserved connectivity 100/100, ppr matches series oracle")


def test_criterion_10_performance_floor():
    rng = random.Random(1010)
    g20 = make_connected(rng, 20)
    started = time.monotonic()
    cut = conductance_exact(g20)
    exact_elapsed = time.monotonic() - started
    assert exact_elapsed < 60.0
    assert cut.phi == oracle_conductance(g20)
    big = random_regular_graph(5000, 3, seed=42)
    started = time.monotonic()
    summary = spectral_summary(big)
    iter_elapsed = time.monotonic() - started
    assert summary.method == "iterative"
    assert summary.residual_bound <= 1e-6
    assert iter_elapsed < 10.0
    _report(
        10,
        f"n=20 exact conductance {exact_elapsed:.2f}s; n=5000 iterative lambda2 "
        f"{iter_elapsed:.2f}s (residual {summary.residual_bound:.1e})",
    )
